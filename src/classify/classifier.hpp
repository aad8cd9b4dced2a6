// Traffic classification (Section 4.1): decide which packets are
// "interesting" before the expensive stages run. Two schemes, exactly as
// in the paper:
//   1. Honeypot: traffic to registered decoy addresses taints the sender.
//   2. Dark space: a source that keeps probing unused addresses is
//      counted (n) and becomes suspicious at a threshold (t).
//
// Configuration vs. state: the honeypot registry, dark prefixes, and
// options are *configuration*, held by TrafficClassifier, registered
// before traffic flows and read-only after. The taint set and the
// per-source probe counters are *state*, held in a ClassifierState that
// each stage-(a) pipeline (an engine shard, a LiveSession) owns. Many
// pipelines can therefore classify concurrently against one classifier
// with no synchronization on the packet hot path.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"

namespace senids::classify {

/// CIDR prefix of unused address space.
struct Prefix {
  net::Ipv4Addr base;
  std::uint8_t bits = 32;

  [[nodiscard]] bool contains(net::Ipv4Addr addr) const noexcept {
    if (bits == 0) return true;
    const std::uint32_t mask = bits >= 32 ? 0xffffffffu : ~((1u << (32 - bits)) - 1);
    return (addr.value & mask) == (base.value & mask);
  }
};

class HoneypotRegistry {
 public:
  void add_decoy(net::Ipv4Addr addr) { decoys_.insert(addr.value); }
  [[nodiscard]] bool is_decoy(net::Ipv4Addr addr) const {
    return decoys_.contains(addr.value);
  }
  [[nodiscard]] std::size_t size() const noexcept { return decoys_.size(); }

 private:
  std::unordered_set<std::uint32_t> decoys_;
};

/// Bounded per-source dark-space probe counters. A spoofed-source flood
/// would otherwise grow the table one entry per forged address, so past
/// `max_sources` live entries the least-recently-probed source is
/// evicted (its count resets if it probes again — an attacker cycling
/// more addresses than the cap trades taint progress for table space).
/// 0 = unbounded.
class DarkSpaceCounters {
 public:
  explicit DarkSpaceCounters(std::size_t max_sources = 0) : max_sources_(max_sources) {}

  /// Bump (and LRU-refresh) the probe count for `src`; returns the new
  /// count. Evicts the coldest source first when the cap is exceeded.
  std::size_t increment(std::uint32_t src);

  [[nodiscard]] std::size_t count(std::uint32_t src) const {
    auto it = counts_.find(src);
    return it == counts_.end() ? 0 : it->second.count;
  }
  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  /// Sources evicted to enforce the cap since construction.
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    std::size_t count = 0;
    std::list<std::uint32_t>::iterator lru_pos;
  };
  std::size_t max_sources_;
  std::size_t evictions_ = 0;
  std::list<std::uint32_t> lru_;  // front = least recently probed
  std::unordered_map<std::uint32_t, Entry> counts_;
};

/// Dark-space scheme configuration: the prefix list, the threshold and
/// the counter cap. The probe counters themselves are caller-owned
/// DarkSpaceCounters (see ClassifierState).
class DarkSpaceDetector {
 public:
  explicit DarkSpaceDetector(std::size_t threshold = 5, std::size_t max_sources = 0)
      : threshold_(threshold), max_sources_(max_sources) {}

  void add_unused_prefix(Prefix p) { prefixes_.push_back(p); }
  [[nodiscard]] bool is_unused(net::Ipv4Addr addr) const {
    for (const Prefix& p : prefixes_) {
      if (p.contains(addr)) return true;
    }
    return false;
  }

  /// Record one probe to an unused address into `counters`; returns the
  /// source's count n. Configuration is only read, so concurrent
  /// pipelines may call this with disjoint `counters`.
  std::size_t record_probe_in(DarkSpaceCounters& counters, net::Ipv4Addr src) const {
    return counters.increment(src.value);
  }

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }
  /// A fresh counter table sized by this detector's cap.
  [[nodiscard]] DarkSpaceCounters make_counters() const {
    return DarkSpaceCounters(max_sources_);
  }

 private:
  std::size_t threshold_;
  std::size_t max_sources_;
  std::vector<Prefix> prefixes_;
};

enum class Verdict : std::uint8_t { kIgnore, kAnalyze };

struct ClassifierOptions {
  bool use_honeypot = true;
  bool use_dark_space = true;
  std::size_t dark_space_threshold = 5;
  /// Cap on live per-source dark-space counters (LRU eviction past it;
  /// see DarkSpaceCounters). 0 = unbounded. The default bounds the table
  /// at ~16 MB under a spoofed-source flood while being far above any
  /// honest source population.
  std::size_t dark_space_max_sources = 1u << 20;
  /// Disable classification entirely — every packet is analyzed (the
  /// Section 5.4 false-positive configuration).
  bool analyze_everything = false;
};

/// Mutable classification state of one stage-(a) pipeline: the taint
/// set plus dark-space probe counters for the sources it sees. Obtain via
/// TrafficClassifier::make_state() so the counter cap matches the
/// configured option.
struct ClassifierState {
  std::unordered_set<std::uint32_t> tainted;
  DarkSpaceCounters dark_counts;
};

/// Read-only classifier configuration. observe_in() must see every packet
/// of a pipeline in order, against that pipeline's ClassifierState; it
/// returns the verdict for that packet. Sources stay tainted for the
/// lifetime of the state (the paper takes "further action ... against the
/// offending IP address"). Every classifying call is const, so any number
/// of pipelines may share one classifier as long as no configuration
/// mutator (honeypots(), dark_space()) runs while traffic flows.
class TrafficClassifier {
 public:
  explicit TrafficClassifier(ClassifierOptions options = ClassifierOptions{});

  HoneypotRegistry& honeypots() noexcept { return honeypots_; }
  DarkSpaceDetector& dark_space() noexcept { return dark_space_; }

  /// Fresh pipeline state with the configured dark-counter cap.
  [[nodiscard]] ClassifierState make_state() const {
    return ClassifierState{{}, dark_space_.make_counters()};
  }
  /// Classify one packet, updating `state`; const because only `state`
  /// and the process-wide metric counters are mutated.
  Verdict observe_in(ClassifierState& state, const net::ParsedPacket& pkt) const;
  /// Verdict without state update (used for reassembled datagrams, whose
  /// fragments were already observed individually).
  [[nodiscard]] Verdict check_in(const ClassifierState& state,
                                 const net::ParsedPacket& pkt) const {
    if (options_.analyze_everything) return Verdict::kAnalyze;
    return state.tainted.contains(pkt.ip.src.value) ? Verdict::kAnalyze
                                                    : Verdict::kIgnore;
  }

  [[nodiscard]] const ClassifierOptions& options() const noexcept { return options_; }

 private:
  ClassifierOptions options_;
  HoneypotRegistry honeypots_;
  DarkSpaceDetector dark_space_;
};

}  // namespace senids::classify
