// simbench workloads: the three named inputs the benchmark measures.
//
//  replay_mixed    two MSR CSV traces (media 8:1 over web) streamed through
//                  StreamingMsrCsvSource -> ReplayPlan -> ReplayEngine on a
//                  queued, 80 %-aged device with scheduled GC; the web
//                  tenant is warped past the device's knee, so the ready set
//                  runs deep (the scheduler-heavy workload);
//  campaign_paper  the paper's PPB-vs-conventional grid as a CampaignSpec
//                  (ftl x {web, media}) run by CampaignRunner below the knee
//                  (the event-queue / PPB-core / snapshot workload);
//  cluster_zipf    a healthy 8+1 device fleet under 1M Zipf users run by
//                  ClusterSim at min(2, nproc) workers (serial director step
//                  plus a parallel device phase).
//
// All three are open loop in simulated time and batch jobs in host time.
// Inputs are generated from --seed only; the library sees generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace simbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-sized inputs for the benchmark's own tests.
  bool tiny = false;
  /// Threads a workload may use: min(2, nproc).
  std::uint32_t workers = 1;
  /// Scratch directory (inside the checkout) for generated trace files.
  std::string work_dir = ".bench_build/simbench-work";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// One setup + measured call.
struct Repeat {
  double setup_s = 0.0;
  double call_s = 0.0;
  std::uint64_t attempted = 0;  ///< simulated host requests offered
  std::uint64_t completed = 0;  ///< simulated host requests completed
  double sim_device_s = 0.0;    ///< simulated makespan x devices
  std::string digest;           ///< FNV over the deterministic result
  /// ReferenceSeconds() right before the repeat (set by the caller).
  double reference_s = 0.0;
  std::vector<std::string> violations;
};

/// Simulated (deterministic per seed) end-to-end results.
struct SimSummary {
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p99_us = 0.0;
  double waf = 0.0;
  double ppb_read_gain = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the measured call runs on.
  virtual std::uint32_t Threads() const { return 1; }

  /// Setup, then the measured call.  `spans` is null in untraced repeats.
  /// `traced_layers` non-null (traced repeats only) attaches the
  /// benchmark's scheduler observer and records the run's layer counters.
  virtual Repeat RunOnce(Spans* spans, Metrics* traced_layers) = 0;

  /// Simulated end-to-end metrics of the last repeat.
  virtual SimSummary Summarize(Spans* spans) = 0;

  /// Once-per-run checks beyond the per-repeat ones.
  virtual void CheckOnce(Spans* /*spans*/,
                         std::vector<std::string>& /*violations*/) {}

  /// Traced run, after CheckOnce: every workload-specific per-layer
  /// metric.  `untraced_call_s` is the median measured-call time of the
  /// untraced repeats, the baseline for overhead ratios.  Checks the probes
  /// make append to `violations`.
  virtual void LayerMetrics(Spans* spans, double untraced_call_s,
                            Metrics& layers,
                            std::vector<std::string>& violations) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

}  // namespace simbench
