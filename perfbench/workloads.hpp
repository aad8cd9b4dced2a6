// Seeded capture workloads for the benchmark. Each generator returns the
// serialized capture the engine sees, the option set the engine runs
// with (the equivalent senids_scan flags are in BENCHMARK.json), and the
// ground truth: every analysis unit the capture forms, with the threat
// class planted in it or none for a benign unit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "classify/classifier.hpp"
#include "core/engine.hpp"
#include "semantic/template.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using namespace senids;

/// One unit the engine forms: a suspicious flow's reassembled stream or
/// a suspicious datagram's payload. `meta` carries the unit's addresses
/// and ports (what alerts are keyed by); `threat` is the class planted in
/// it, nullopt for benign content.
struct UnitTruth {
  core::Alert meta;
  util::Bytes payload;
  std::optional<semantic::ThreatClass> threat;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  core::NidsOptions options;
  std::vector<net::Ipv4Addr> honeypots;
  std::vector<classify::Prefix> dark;
  util::Bytes pcap_bytes;  // the only input the engine receives
  std::size_t packets = 0;
  std::size_t fragment_frames = 0;
  std::vector<UnitTruth> units;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string_view>& workload_names();

/// Build variant `variant` of workload `name` from `seed`; nullopt for an
/// unknown name. Variants share the workload's mix and differ in content;
/// the same name, seed and variant always produce the same bytes.
std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                      std::uint64_t variant = 0);

/// A fresh engine configured like senids_scan with the workload's flags:
/// options, standard template library, honeypot and dark registration.
core::NidsEngine make_engine(const Workload& w);

/// Directional 4-tuple an alert or a unit is keyed by: source, destination,
/// and the two ports packed into one word.
using UnitKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
UnitKey unit_key(const core::Alert& a);

}  // namespace perfbench
