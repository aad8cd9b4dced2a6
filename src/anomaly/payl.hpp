// PAYL-style 1-gram payload anomaly detector (Stolfo & Wang, RAID'04 —
// reference [12] of the paper). Trains per-(port, length-bucket) byte
// histograms on benign traffic and scores new payloads by a simplified
// Mahalanobis distance. Included as the statistical baseline: the Clet
// engine's spectrum padding is designed to defeat exactly this detector.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "util/bytes.hpp"

namespace senids::anomaly {

/// Normalised 1-gram byte spectrum of a payload (each cell in [0, 1],
/// summing to 1 for non-empty input): what the PAYL detector trains on
/// and scores.
[[nodiscard]] std::array<double, 256> byte_spectrum(util::ByteView payload);

/// One trained model cell: running mean/variance of each byte frequency.
struct ByteModel {
  std::array<double, 256> mean{};
  std::array<double, 256> m2{};  // sum of squared deviations (Welford)
  std::size_t samples = 0;

  void add(const std::array<double, 256>& freq);
  [[nodiscard]] double distance(const std::array<double, 256>& freq,
                                double smoothing = 0.001) const;
};

class PaylDetector {
 public:
  struct Options {
    double threshold = 256.0;  // alert when distance exceeds this
    /// Payload lengths are bucketed by powers of two (PAYL conditions its
    /// models on length).
    bool bucket_by_length = true;
  };

  PaylDetector() : PaylDetector(Options{}) {}
  explicit PaylDetector(Options options) : options_(options) {}

  /// Accumulate one benign payload into the model.
  void train(util::ByteView payload, std::uint16_t dst_port);

  /// Anomaly score of a payload (higher = more anomalous). Payloads for
  /// untrained (port, bucket) cells score 0 — PAYL stays silent without
  /// a baseline, which is itself a known weakness.
  [[nodiscard]] double score(util::ByteView payload, std::uint16_t dst_port) const;

  [[nodiscard]] bool is_anomalous(util::ByteView payload, std::uint16_t dst_port) const {
    return score(payload, dst_port) > options_.threshold;
  }

  [[nodiscard]] std::size_t model_count() const noexcept { return models_.size(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  [[nodiscard]] std::uint32_t bucket_of(std::size_t len) const noexcept;

  Options options_;
  std::map<std::uint64_t, ByteModel> models_;  // key: port << 32 | bucket
};

}  // namespace senids::anomaly
