#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "util/sync.hpp"
#include "util/text.hpp"

namespace senids::obs {

namespace {

using util::append_format;

std::atomic<bool> g_metrics_enabled{true};

std::string format_double(double v) {
  std::string out;
  append_format(out, "%.9g", v);
  return out;
}

/// Prometheus exposition-format escaping for label values: backslash,
/// double quote, and newline must be escaped inside the quotes.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// HELP-text escaping: backslash and newline only (quotes are legal).
std::string escape_help(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

}  // namespace detail

// ------------------------------------------------------------- Histogram

double Histogram::bucket_bound(std::size_t i) noexcept {
  return std::ldexp(1e-6, static_cast<int>(i));
}

std::size_t Histogram::bucket_index(double seconds) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seconds <= bucket_bound(i)) return i;
  }
  return kBuckets;  // +Inf overflow bucket
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  std::uint64_t sum_ns = 0;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i <= kBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t b : snap.buckets) snap.count += b;
  snap.sum_seconds = static_cast<double>(sum_ns) * 1e-9;
  return snap;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum_ns.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // The +Inf bucket has no upper bound; report the largest finite one.
      if (i == kBuckets) return bucket_bound(kBuckets - 1);
      const double lower = i == 0 ? 0.0 : bucket_bound(i - 1);
      const double upper = bucket_bound(i);
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bucket_bound(kBuckets - 1);
}

// --------------------------------------------------------------- Registry

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

struct Entry {
  std::string family;
  std::string labels;
  std::string help;
  Kind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

}  // namespace

struct Registry::Impl {
  mutable util::Mutex mu{"MetricsRegistry"};
  // Keyed on (family, labels); std::map node stability keeps the
  // string_views handed out in MetricView valid forever.
  std::map<std::pair<std::string, std::string>, Entry> entries GUARDED_BY(mu);

  Entry& find_or_create(std::string_view family, std::string_view help,
                        std::string_view label_key, std::string_view label_value,
                        Kind kind) {
    std::string labels;
    if (!label_key.empty()) {
      labels.append(label_key)
          .append("=\"")
          .append(escape_label_value(label_value))
          .append("\"");
    }
    util::MutexLock lock(mu);
    auto key = std::make_pair(std::string(family), labels);
    auto it = entries.find(key);
    if (it != entries.end()) return it->second;
    Entry e;
    e.family = std::string(family);
    e.labels = std::move(labels);
    e.help = std::string(help);
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: e.histogram = std::make_unique<Histogram>(); break;
    }
    return entries.emplace(std::move(key), std::move(e)).first->second;
  }
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

Counter& Registry::counter(std::string_view family, std::string_view help,
                           std::string_view label_key, std::string_view label_value) {
  return *impl().find_or_create(family, help, label_key, label_value, Kind::kCounter)
              .counter;
}

Gauge& Registry::gauge(std::string_view family, std::string_view help,
                       std::string_view label_key, std::string_view label_value) {
  return *impl().find_or_create(family, help, label_key, label_value, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view family, std::string_view help,
                               std::string_view label_key,
                               std::string_view label_value) {
  return *impl().find_or_create(family, help, label_key, label_value, Kind::kHistogram)
              .histogram;
}

std::vector<MetricView> Registry::metrics() const {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  std::vector<MetricView> out;
  out.reserve(im.entries.size());
  for (const auto& [key, e] : im.entries) {
    MetricView v;
    v.family = e.family;
    v.labels = e.labels;
    v.help = e.help;
    v.counter = e.counter.get();
    v.gauge = e.gauge.get();
    v.histogram = e.histogram.get();
    out.push_back(v);
  }
  return out;
}

void Registry::reset_values() {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  for (auto& [key, e] : im.entries) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

std::string Registry::prometheus_text() const {
  std::string out;
  std::string last_family;
  for (const MetricView& m : metrics()) {
    const std::string family(m.family);
    if (family != last_family) {
      if (!m.help.empty()) {
        append_format(out, "# HELP %s %s\n", family.c_str(),
                      escape_help(m.help).c_str());
      }
      const char* type = m.counter ? "counter" : m.gauge ? "gauge" : "histogram";
      append_format(out, "# TYPE %s %s\n", family.c_str(), type);
      last_family = family;
    }
    const std::string labels(m.labels);
    if (m.counter) {
      if (labels.empty()) {
        append_format(out, "%s %llu\n", family.c_str(),
                      static_cast<unsigned long long>(m.counter->value()));
      } else {
        append_format(out, "%s{%s} %llu\n", family.c_str(), labels.c_str(),
                      static_cast<unsigned long long>(m.counter->value()));
      }
    } else if (m.gauge) {
      if (labels.empty()) {
        append_format(out, "%s %lld\n", family.c_str(),
                      static_cast<long long>(m.gauge->value()));
      } else {
        append_format(out, "%s{%s} %lld\n", family.c_str(), labels.c_str(),
                      static_cast<long long>(m.gauge->value()));
      }
    } else if (m.histogram) {
      const Histogram::Snapshot snap = m.histogram->snapshot();
      const std::string sep = labels.empty() ? "" : labels + ",";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
        cumulative += snap.buckets[i];
        const std::string le = i == Histogram::kBuckets
                                   ? "+Inf"
                                   : format_double(Histogram::bucket_bound(i));
        append_format(out, "%s_bucket{%sle=\"%s\"} %llu\n", family.c_str(), sep.c_str(),
                      le.c_str(), static_cast<unsigned long long>(cumulative));
      }
      if (labels.empty()) {
        append_format(out, "%s_sum %.9g\n", family.c_str(), snap.sum_seconds);
        append_format(out, "%s_count %llu\n", family.c_str(),
                      static_cast<unsigned long long>(snap.count));
      } else {
        append_format(out, "%s_sum{%s} %.9g\n", family.c_str(), labels.c_str(),
                      snap.sum_seconds);
        append_format(out, "%s_count{%s} %llu\n", family.c_str(), labels.c_str(),
                      static_cast<unsigned long long>(snap.count));
      }
    }
  }
  return out;
}

std::string Registry::json() const {
  std::string out = "[\n";
  const std::vector<MetricView> views = metrics();
  for (std::size_t i = 0; i < views.size(); ++i) {
    const MetricView& m = views[i];
    append_format(out, "  {\"name\": \"%s\"", std::string(m.family).c_str());
    if (!m.labels.empty()) {
      // labels hold key="value"; JSON wants key/value split out.
      const std::string labels(m.labels);
      const std::size_t eq = labels.find('=');
      append_format(out, ", \"%s\": %s", labels.substr(0, eq).c_str(),
                    labels.substr(eq + 1).c_str());
    }
    if (m.counter) {
      append_format(out, ", \"type\": \"counter\", \"value\": %llu",
                    static_cast<unsigned long long>(m.counter->value()));
    } else if (m.gauge) {
      append_format(out, ", \"type\": \"gauge\", \"value\": %lld",
                    static_cast<long long>(m.gauge->value()));
    } else if (m.histogram) {
      const Histogram::Snapshot snap = m.histogram->snapshot();
      append_format(out,
                    ", \"type\": \"histogram\", \"count\": %llu, \"sum\": %.9g, "
                    "\"p50\": %.9g, \"p95\": %.9g, \"p99\": %.9g, \"buckets\": [",
                    static_cast<unsigned long long>(snap.count), snap.sum_seconds,
                    snap.quantile(0.50), snap.quantile(0.95), snap.quantile(0.99));
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b <= Histogram::kBuckets; ++b) {
        cumulative += snap.buckets[b];
        const std::string le = b == Histogram::kBuckets
                                   ? "\"+Inf\""
                                   : format_double(Histogram::bucket_bound(b));
        append_format(out, "%s{\"le\": %s, \"count\": %llu}", b ? ", " : "", le.c_str(),
                      static_cast<unsigned long long>(cumulative));
      }
      out += "]";
    }
    out += i + 1 < views.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

}  // namespace senids::obs
