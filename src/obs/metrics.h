// MetricsRegistry: one enumerable, mergeable home for every counter,
// gauge, and latency histogram the stack reports.
//
// The tree grew a *Stats struct per subsystem (FtlStats, HostStats,
// TenantStats, FaultStats, ReadErrorStats, ...) — each with its own field
// list, JSON shape, and merge story.  The registry unifies them behind
// hierarchical dot-separated names ("ftl.gc.page_copies",
// "host.read.latency") so exporters, campaign reports, and time-series
// sampling can enumerate everything without knowing any struct layout.
// The families keep their structs as the hot-path representation.
//
// Three metric kinds, matching how they merge across shards/devices:
//   counters   - uint64, merge by sum;
//   gauges     - double point-in-time samples, merge by max (a fleet's
//                peak occupancy is the max of per-device peaks);
//   histograms - util::LatencyStats (QuantileEstimator-backed), merge by
//                histogram merge.
// Names sort deterministically (std::map), so ToJson() bytes are stable —
// the same contract as everything else the campaign layer compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "util/stats.h"

namespace ctflash::obs {

/// Tail summary extracted from raw QuantileEstimator bins.
struct BinQuantiles {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Quantile of a raw bin-count vector laid out like
/// util::QuantileEstimator::bins() — the EXACT same walk the estimator
/// runs, so a quantile computed from copied (or windowed-delta) bins agrees
/// bit-for-bit with QuantileEstimator::Quantile on the same stream.  The
/// health/SLO monitors window cumulative histograms by bin subtraction and
/// still need estimator-identical answers.  Throws std::invalid_argument
/// for q outside [0,1]; returns 0.0 for empty bins.
double QuantileFromBins(const std::vector<std::uint64_t>& bins, double q);

/// p50/p99/p99.9 (plus the sample count) from raw bins in one walk setup.
BinQuantiles SummarizeBins(const std::vector<std::uint64_t>& bins);

class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (created at zero on first touch).
  void AddCounter(const std::string& name, std::uint64_t delta);
  /// Sets gauge `name` to `value` (last write wins within one registry).
  void SetGauge(const std::string& name, double value);
  /// The histogram named `name`, created empty on first access.
  util::LatencyStats& Histogram(const std::string& name);

  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  /// p50/p99/p99.9 of histogram `name` via the shared bin walk (all zero
  /// for an unknown name).
  BinQuantiles HistogramQuantiles(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, util::LatencyStats>& histograms() const {
    return histograms_;
  }

  std::size_t Size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Merges another registry: counters sum, gauges keep the max,
  /// histograms merge.
  void Merge(const MetricsRegistry& other);
  void Reset();

  /// Deterministic JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, mean_us, p50_us, p99_us, p999_us,
  /// max_us}}}.
  campaign::Json ToJson() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, util::LatencyStats> histograms_;
};

}  // namespace ctflash::obs
