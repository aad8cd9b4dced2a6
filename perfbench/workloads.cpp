#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/mailworm.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "net/forge.hpp"
#include "semantic/library.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using semantic::ThreatClass;
using util::Bytes;
using util::Prng;

constexpr net::Ipv4Addr kHoneypot = net::Ipv4Addr::from_octets(10, 1, 0, 7);
constexpr classify::Prefix kDark{net::Ipv4Addr::from_octets(10, 1, 200, 0), 24};
constexpr std::size_t kMss = 1400;
/// IP payload bytes per fragment when a frame is fragmented.
constexpr std::size_t kFragmentPayload = 576;

net::Ipv4Addr server(Prng& prng) {
  return net::Ipv4Addr::from_octets(10, 1, 0,
                                    static_cast<std::uint8_t>(10 + prng.below(40)));
}

/// One source's frames, in the order that source sends them.
using Event = std::vector<Bytes>;

/// Builds a capture from events. Frames of one event keep their order;
/// events run concurrently, `window` at a time, with their frames
/// interleaved at random, so the flow table holds many live flows.
class Composer {
 public:
  explicit Composer(Prng& prng) : prng_(prng) {}

  /// Emit a frame into `ev`, fragmenting it when `fragment` is set.
  void frame(Event& ev, Bytes f, bool fragment) {
    if (fragment) {
      auto parts = net::fragment_frame(f, kFragmentPayload);
      if (parts.size() > 1) fragment_frames_ += parts.size();
      for (auto& p : parts) ev.push_back(std::move(p));
    } else {
      ev.push_back(std::move(f));
    }
  }

  /// A one-directional TCP flow; with `acks`, the receiver also answers
  /// the SYN, every data segment and the FIN with a bare ACK.
  void tcp_flow(Event& ev, const net::Endpoint& src, const net::Endpoint& dst,
                util::ByteView payload, bool fragment = false, bool acks = false) {
    net::ForgeOptions opts;
    const auto ack = [&] {
      if (!acks) return;
      opts.ip_id = ip_id_++;
      frame(ev, net::forge_tcp(dst, src, 0, {}, net::kTcpAck, opts), false);
    };
    opts.ip_id = ip_id_++;
    const auto isn = static_cast<std::uint32_t>(prng_.next());
    frame(ev, net::forge_syn(src, dst, isn, opts), false);
    ack();
    std::uint32_t seq = isn + 1;
    for (std::size_t off = 0; off < payload.size(); off += kMss) {
      const std::size_t chunk = std::min(kMss, payload.size() - off);
      opts.ip_id = ip_id_++;
      frame(ev,
            net::forge_tcp(src, dst, seq, payload.subspan(off, chunk),
                           net::kTcpPsh | net::kTcpAck, opts),
            fragment);
      ack();
      seq += static_cast<std::uint32_t>(chunk);
    }
    opts.ip_id = ip_id_++;
    frame(ev, net::forge_tcp(src, dst, seq, {}, net::kTcpFin | net::kTcpAck, opts),
          false);
    ack();
  }

  void udp(Event& ev, const net::Endpoint& src, const net::Endpoint& dst,
           util::ByteView payload, bool fragment = false) {
    net::ForgeOptions opts;
    opts.ip_id = ip_id_++;
    frame(ev, net::forge_udp(src, dst, payload, opts), fragment);
  }

  void syn(Event& ev, const net::Endpoint& src, net::Ipv4Addr dst, std::uint16_t port) {
    net::ForgeOptions opts;
    opts.ip_id = ip_id_++;
    frame(ev, net::forge_syn(src, net::Endpoint{dst, port},
                             static_cast<std::uint32_t>(prng_.next()), opts),
          false);
  }

  void add(Event ev) {
    if (!ev.empty()) events_.push_back(std::move(ev));
  }

  /// Interleave every added event into one capture and serialize it.
  Bytes finish(std::size_t window, std::size_t& packets) {
    pcap::Capture capture;
    std::uint32_t ts_sec = 1136073600;
    std::uint32_t ts_usec = 0;
    std::deque<Event>& pending = events_;
    std::vector<std::pair<Event, std::size_t>> active;
    for (;;) {
      while (active.size() < window && !pending.empty()) {
        active.emplace_back(std::move(pending.front()), 0);
        pending.pop_front();
      }
      if (active.empty()) break;
      const std::size_t pick = prng_.below(active.size());
      auto& [ev, next] = active[pick];
      capture.add(ts_sec, ts_usec, ev[next]);
      ts_usec += 20 + static_cast<std::uint32_t>(prng_.below(400));
      if (ts_usec >= 1000000) {
        ts_usec -= 1000000;
        ++ts_sec;
      }
      if (++next == ev.size()) {
        active[pick] = std::move(active.back());
        active.pop_back();
      }
    }
    packets = capture.records.size();
    return pcap::serialize(capture);
  }

  [[nodiscard]] std::size_t fragment_frames() const noexcept { return fragment_frames_; }

 private:
  Prng& prng_;
  std::deque<Event> events_;
  std::uint16_t ip_id_ = 1;
  std::size_t fragment_frames_ = 0;
};

/// A source sending units: picks fresh ports so each unit's 4-tuple is
/// unique, and records the ground truth for every unit it sends.
struct Sender {
  Composer& composer;
  Workload& w;
  Event ev;
  net::Ipv4Addr ip;
  std::uint16_t next_port = 1024;

  void flow(net::Endpoint dst, Bytes payload, std::optional<ThreatClass> threat,
            bool fragment = false) {
    const net::Endpoint src{ip, next_port++};
    composer.tcp_flow(ev, src, dst, payload, fragment);
    truth(src, dst, std::move(payload), threat);
  }
  void datagram(net::Endpoint dst, Bytes payload, std::optional<ThreatClass> threat,
                bool fragment = false) {
    const net::Endpoint src{ip, next_port++};
    composer.udp(ev, src, dst, payload, fragment);
    truth(src, dst, std::move(payload), threat);
  }
  void benign(net::Ipv4Addr dst_ip, gen::BenignPayload p, bool fragment = false) {
    const net::Endpoint dst{dst_ip, p.dst_port};
    if (p.udp) {
      datagram(dst, std::move(p.data), std::nullopt, fragment);
    } else {
      flow(dst, std::move(p.data), std::nullopt, fragment);
    }
  }
  /// Taint this source: one SYN to the honeypot, or a dark-space SYN
  /// sweep past the threshold.
  void taint(Prng& prng, bool honeypot) {
    const net::Endpoint src{ip, next_port++};
    if (honeypot) {
      composer.syn(ev, src, kHoneypot, 80);
    } else {
      const std::size_t probes = 5 + prng.below(4);
      for (std::size_t i = 0; i < probes; ++i) {
        composer.syn(ev, src,
                     net::Ipv4Addr{kDark.base.value + 1 + static_cast<std::uint32_t>(
                                                              prng.below(250))},
                     static_cast<std::uint16_t>(prng.chance(0.5) ? 80 : 445));
      }
    }
  }
  void done() { composer.add(std::move(ev)); }

 private:
  void truth(const net::Endpoint& src, const net::Endpoint& dst, Bytes payload,
             std::optional<ThreatClass> threat) {
    if (payload.empty()) return;
    UnitTruth u;
    u.meta.src = src.ip;
    u.meta.dst = dst.ip;
    u.meta.src_port = src.port;
    u.meta.dst_port = dst.port;
    u.payload = std::move(payload);
    u.threat = threat;
    w.units.push_back(std::move(u));
  }
};

/// Untainted clients whose traffic never forms a unit (honeypot-mode
/// workloads only): benign payloads to the servers, which acknowledge
/// every TCP segment.
void add_background(Composer& composer, Prng& prng, std::size_t flows) {
  for (std::size_t i = 0; i < flows; ++i) {
    Event ev;
    const net::Endpoint src{
        net::Ipv4Addr{net::Ipv4Addr::from_octets(198, 18, 0, 0).value +
                      static_cast<std::uint32_t>(prng.below(1u << 16))},
        static_cast<std::uint16_t>(32768 + prng.below(28000))};
    gen::BenignPayload p = gen::make_benign_payload(prng);
    const net::Endpoint dst{server(prng), p.dst_port};
    if (p.udp) {
      composer.udp(ev, src, dst, p.data);
    } else {
      composer.tcp_flow(ev, src, dst, p.data, false, true);
    }
    composer.add(std::move(ev));
  }
}

net::Ipv4Addr source_ip(std::uint8_t a, std::uint8_t b, std::size_t i) {
  return net::Ipv4Addr{net::Ipv4Addr::from_octets(a, b, 0, 0).value +
                       static_cast<std::uint32_t>(i + 1)};
}

const std::vector<gen::ShellcodeSample>& shell_corpus() {
  static const std::vector<gen::ShellcodeSample> corpus = gen::make_shell_spawn_corpus();
  return corpus;
}

/// Overflow-wrapped shell from the Table-1 corpus; a binding variant
/// plants the port-bind class.
std::pair<Bytes, ThreatClass> shell_exploit(Prng& prng, bool bind) {
  std::vector<const gen::ShellcodeSample*> pool;
  for (const auto& s : shell_corpus()) {
    if (s.binds_port == bind) pool.push_back(&s);
  }
  const gen::ShellcodeSample& s = *pool[prng.below(pool.size())];
  return {gen::wrap_in_overflow(s.code, prng),
          bind ? ThreatClass::kPortBindShell : ThreatClass::kShellSpawn};
}

Bytes admmutate_exploit(Prng& prng) {
  const Bytes encoded = gen::admmutate_encode(shell_corpus()[1].code, prng).bytes;
  return gen::wrap_in_overflow(encoded, prng);
}

Bytes clet_exploit(Prng& prng) {
  const Bytes encoded = gen::clet_encode(shell_corpus()[1].code, prng).bytes;
  return gen::wrap_in_overflow(encoded, prng);
}

Bytes codered_exploit(Prng& prng) {
  gen::CodeRedOptions opts;
  opts.vary_padding = true;
  return gen::make_code_red_ii_request(prng, opts);
}

// ------------------------------------------------------------ workloads

/// What one unit carries. Workloads deal exact counts of each kind, so
/// seeds vary the content of units but never the mix.
enum class Kind : std::uint8_t {
  kBenign,      // gen::make_benign_payload of one BenignKind (`subkind`)
  kSuspicious,  // gen::make_suspicious_benign_payload of one kind
  kShell,
  kBindShell,
  kAdmmutate,
  kClet,
  kCodeRed,
  kMailWorm,
};

struct Card {
  Kind kind;
  std::uint8_t subkind = 0;
};

constexpr std::uint8_t kBenignKinds = 7;      // kHttpRequest .. kSmtp
constexpr std::uint8_t kSuspiciousKinds = 3;  // kAsciiSledLookalike ..

/// A payload of the given benign kind, drawn from the corpus generators'
/// own distribution (rejection sampling keeps their per-kind content).
gen::BenignPayload benign_of(Prng& prng, const Card& card) {
  const auto want = static_cast<gen::BenignKind>(
      card.kind == Kind::kBenign ? card.subkind : kBenignKinds + card.subkind);
  for (;;) {
    gen::BenignPayload p = card.kind == Kind::kBenign
                               ? gen::make_benign_payload(prng)
                               : gen::make_suspicious_benign_payload(prng);
    if (p.kind == want) return p;
  }
}

/// Append `per_kind` cards of each of `kinds` benign kinds to `deck`.
void add_benign_cards(std::vector<Card>& deck, Kind kind, std::uint8_t kinds,
                      std::size_t per_kind) {
  for (std::uint8_t v = 0; v < kinds; ++v) {
    deck.insert(deck.end(), per_kind, Card{kind, v});
  }
}

template <typename T>
void shuffle(std::vector<T>& v, Prng& prng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[prng.below(i)]);
}

/// Send one unit of `card`'s kind from `s`.
void send(Sender& s, Prng& prng, const Card& card, bool fragment) {
  const net::Endpoint web{server(prng), 80};
  switch (card.kind) {
    case Kind::kBenign:
    case Kind::kSuspicious:
      s.benign(server(prng), benign_of(prng, card), fragment);
      break;
    case Kind::kShell:
    case Kind::kBindShell: {
      auto [bytes, threat] = shell_exploit(prng, card.kind == Kind::kBindShell);
      s.flow(web, std::move(bytes), threat, fragment);
      break;
    }
    case Kind::kAdmmutate:
      s.flow(web, admmutate_exploit(prng), ThreatClass::kDecryptionLoop, fragment);
      break;
    case Kind::kClet:
      s.flow(web, clet_exploit(prng), ThreatClass::kDecryptionLoop, fragment);
      break;
    case Kind::kCodeRed:
      s.flow(web, codered_exploit(prng), ThreatClass::kCodeRedII, fragment);
      break;
    case Kind::kMailWorm:
      s.flow(net::Endpoint{server(prng), 25}, gen::make_email_worm(prng).smtp_payload,
             ThreatClass::kDecryptionLoop, fragment);
      break;
  }
}

/// Section 5.4 benign corpus, every flow and datagram analysed: 184
/// units of each of the seven benign kinds.
void build_benign_deep(Workload& w, Prng& prng) {
  w.options.classifier.analyze_everything = true;
  w.options.triage.mode = triage::TriageMode::kOff;
  w.options.verdict_cache_bytes = 0;
  std::vector<Card> deck;
  add_benign_cards(deck, Kind::kBenign, kBenignKinds, 184);
  shuffle(deck, prng);
  Composer composer(prng);
  constexpr std::size_t kUnitsPerClient = 8;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    if (i % kUnitsPerClient == 0) {
      Sender s{composer, w, {}, source_ip(198, 18, i / kUnitsPerClient)};
      for (std::size_t u = i; u < std::min(deck.size(), i + kUnitsPerClient); ++u) {
        send(s, prng, deck[u], false);
      }
      s.done();
    }
  }
  w.pcap_bytes = composer.finish(32, w.packets);
  w.fragment_frames = composer.fragment_frames();
}

/// The operator's everyday run: a large untainted background, and 200
/// tainted sources sending 1178 units — 164 of each benign kind, 2 of
/// each benign-but-suspicious kind and 4 of each of six attacks. Every
/// fifth unit is IPv4-fragmented. Few units escalate past triage, so
/// most of the time goes to pcap, net, classify and triage.
void build_honeynet_mix(Workload& w, Prng& prng) {
  w.options.verdict_cache_bytes = 64u << 20;
  w.options.triage.mode = triage::TriageMode::kOn;
  w.honeypots.push_back(kHoneypot);
  w.dark.push_back(kDark);
  std::vector<Card> deck;
  add_benign_cards(deck, Kind::kBenign, kBenignKinds, 164);
  add_benign_cards(deck, Kind::kSuspicious, kSuspiciousKinds, 2);
  for (Kind k : {Kind::kShell, Kind::kBindShell, Kind::kAdmmutate, Kind::kClet,
                 Kind::kCodeRed, Kind::kMailWorm}) {
    deck.insert(deck.end(), 4, Card{k});
  }
  shuffle(deck, prng);
  Composer composer(prng);
  add_background(composer, prng, 48000);
  constexpr std::size_t kUnitsPerSource = 6;
  for (std::size_t i = 0; i < deck.size(); i += kUnitsPerSource) {
    Sender s{composer, w, {}, source_ip(203, 0, i / kUnitsPerSource)};
    s.taint(prng, (i / kUnitsPerSource) % 2 == 0);
    for (std::size_t u = i; u < std::min(deck.size(), i + kUnitsPerSource); ++u) {
      send(s, prng, deck[u], u % 5 == 0);
    }
    s.done();
  }
  w.pcap_bytes = composer.finish(64, w.packets);
  w.fragment_frames = composer.fragment_frames();
}

/// Attack-dominated capture: 2016 infected sources, each replaying one
/// of 48 distinct exploits (16 Code Red II, 16 ADMmutate, 16 Clet; 42
/// sources each), and 196 tainted sources sending one benign unit (28 of
/// each kind).
void build_worm_outbreak(Workload& w, Prng& prng) {
  w.options.verdict_cache_bytes = 64u << 20;
  w.options.triage.mode = triage::TriageMode::kOn;
  w.options.enable_emulation = true;
  w.options.threads = 2;
  w.honeypots.push_back(kHoneypot);
  w.dark.push_back(kDark);

  struct Exploit {
    Bytes bytes;
    ThreatClass threat;
  };
  std::vector<Exploit> exploits;
  for (std::size_t i = 0; i < 16; ++i) {
    exploits.push_back({codered_exploit(prng), ThreatClass::kCodeRedII});
    exploits.push_back({admmutate_exploit(prng), ThreatClass::kDecryptionLoop});
    exploits.push_back({clet_exploit(prng), ThreatClass::kDecryptionLoop});
  }
  std::vector<Card> benign;
  add_benign_cards(benign, Kind::kBenign, kBenignKinds, 28);
  std::vector<std::size_t> order(exploits.size() * 42 + benign.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, prng);

  Composer composer(prng);
  add_background(composer, prng, 2000);
  const std::size_t infected = exploits.size() * 42;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Sender s{composer, w, {}, source_ip(100, 64, i)};
    s.taint(prng, i % 2 == 0);
    if (order[i] < infected) {
      const Exploit& e = exploits[order[i] % exploits.size()];
      s.flow(net::Endpoint{server(prng), 80}, e.bytes, e.threat);
    } else {
      send(s, prng, benign[order[i] - infected], false);
    }
    s.done();
  }
  w.pcap_bytes = composer.finish(64, w.packets);
  w.fragment_frames = composer.fragment_frames();
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"benign_deep", "honeynet_mix",
                                                      "worm_outbreak"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                      std::uint64_t variant) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  const auto& names = workload_names();
  const auto salt = static_cast<std::uint64_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
  Prng prng((seed * 0x9e3779b97f4a7c15ULL + variant) * 0xbf58476d1ce4e5b9ULL + salt);
  if (name == "benign_deep") {
    build_benign_deep(w, prng);
  } else if (name == "honeynet_mix") {
    build_honeynet_mix(w, prng);
  } else if (name == "worm_outbreak") {
    build_worm_outbreak(w, prng);
  } else {
    return std::nullopt;
  }
  return w;
}

core::NidsEngine make_engine(const Workload& w) {
  core::NidsEngine engine(w.options, semantic::make_standard_library());
  for (net::Ipv4Addr ip : w.honeypots) engine.classifier().honeypots().add_decoy(ip);
  for (const classify::Prefix& p : w.dark) {
    engine.classifier().dark_space().add_unused_prefix(p);
  }
  return engine;
}

UnitKey unit_key(const core::Alert& a) {
  return {a.src.value, a.dst.value,
          (static_cast<std::uint32_t>(a.src_port) << 16) | a.dst_port};
}

}  // namespace perfbench
