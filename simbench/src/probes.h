// simbench probes: per-layer measurements made from outside the library.
//
// Each probe times a loop of calls into one layer's public functions and
// records it under a span of its own.  The component loops are ported
// from bench/bench_micro_components.cpp (without google-benchmark); the
// layer probes take the workload's own inputs and shapes, so the same
// metric name means the same thing on every workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/snapshot.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "ledger.h"
#include "replay/replay_plan.h"
#include "sched/observer.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace simbench {

/// Host, scheduler and QoS layer counters of one or more host-interface
/// runs (host.*, sched.*, qos.* metrics).
struct HostLayerStats {
  std::vector<std::uint64_t> depth_counts;  ///< dispatches by ready depth
  std::uint64_t samples = 0;
  double depth_sum = 0.0;
  double pending_sum = 0.0;  ///< event-queue depth summed over dispatches
  std::uint64_t host_dispatches = 0;
  std::uint64_t tenant0_dispatches = 0;
  std::uint64_t txns = 0;
  std::uint64_t gc_dispatches = 0;
  std::uint64_t read_preemptions_of_gc = 0;
  std::uint64_t write_hold_picks = 0;
  std::uint64_t throttled = 0;
  std::uint32_t peak_in_flight = 0;
  double call_s = 0.0;

  /// Adds a finished run's scheduler/QoS counters and wall time.
  void AddRun(const ctflash::host::HostInterface& host, double run_s);
  void SetMetrics(Metrics& layers) const;
};

/// Samples the scheduler's ready-set depth and the event queue's pending
/// count at every dispatch into `stats`.  Attached only in traced runs:
/// attaching any observer turns on the scheduler's dispatch-context
/// computation.
class DepthObserver final : public ctflash::sched::SchedulerObserver {
 public:
  DepthObserver(ctflash::host::HostInterface& host, HostLayerStats& stats);
  ~DepthObserver() override;
  DepthObserver(const DepthObserver&) = delete;
  DepthObserver& operator=(const DepthObserver&) = delete;

  void OnDispatch(const ctflash::sched::FlashTransaction& txn,
                  const ctflash::sched::DispatchContext& context) override;
  void OnTxnExecuted(const ctflash::sched::FlashTransaction&, ctflash::Us,
                     ctflash::Us) override {}

 private:
  ctflash::host::HostInterface& host_;
  HostLayerStats& stats_;
};

/// A prefilled device template and its snapshot (campaign.* probes).
struct AgedDevice {
  ctflash::ssd::SsdConfig config;
  ctflash::campaign::DeviceState state;
  std::uint64_t logical_bytes = 0;
  std::uint64_t prefill_bytes = 0;
  double prefill_ms = 0.0;
  double snapshot_ms = 0.0;
  double restore_ms = 0.0;
  double snapshot_mib = 0.0;
};

/// Prefills a `config` device to `prefill_pct` of its logical space,
/// snapshots it and restores the snapshot into a second device, timing all
/// three steps.
AgedDevice AgeDevice(Spans* spans, const ctflash::ssd::SsdConfig& config,
                     std::uint32_t prefill_pct,
                     std::uint64_t prefill_chunk_bytes = 256 * ctflash::kKiB);

/// Open-loop replay of `records` through a HostInterface over a device
/// restored from `aged`, with a DepthObserver feeding `stats`.  Returns the
/// generator's load stats.
ctflash::host::LoadStats RunObservedReplica(
    Spans* spans, const AgedDevice& aged,
    const ctflash::host::HostConfig& host_config,
    std::vector<ctflash::trace::TraceRecord> records, double time_scale,
    HostLayerStats& stats);

/// The workload's request stream through Ssd::Read/Write (service time)
/// on a conventional and a PPB device of the same size and age.
struct TwinResult {
  double conventional_ns_per_request = 0.0;
  double ppb_ns_per_request = 0.0;
  double conventional_read_mean_us = 0.0;
  double ppb_read_mean_us = 0.0;
  ctflash::ftl::FtlStats conventional_ftl;
  std::uint64_t requests = 0;

  double PpbReadGain() const {
    return ppb_read_mean_us > 0.0 ? conventional_read_mean_us / ppb_read_mean_us
                                  : 0.0;
  }
};
TwinResult RunFtlTwin(Spans* spans,
                      const std::vector<ctflash::trace::TraceRecord>& records,
                      std::uint64_t device_bytes, std::uint32_t prefill_pct);

/// One CSV-backed source of a trace-ingest probe.
struct CsvSource {
  std::string path;
  ctflash::replay::SourceOptions options;
};
/// A ReplayPlan streaming each source's CSV file with its options.
std::unique_ptr<ctflash::replay::ReplayPlan> CsvPlan(
    const std::vector<CsvSource>& sources);

/// trace.parse_ns_per_record (drain StreamingMsrCsvSource) and
/// replay.plan_ns_per_record (drain a ReplayPlan over the same files, minus
/// the parse time).
void ProbeTraceIngest(Spans* spans, const std::vector<CsvSource>& sources,
                      Metrics& layers);

/// trace.synth_ns_per_record over the workload's generator configs.
void ProbeSynthetic(Spans* spans,
                    const std::vector<ctflash::trace::SyntheticWorkloadConfig>&
                        configs,
                    Metrics& layers);

/// util.zipf_build_ms / util.zipf_sample_ns for an (n, theta) table.
void ProbeZipf(Spans* spans, std::uint64_t n, double theta, Metrics& layers);

/// sim.ns_per_event: `depth` concurrent ScheduleAfter chains drained by
/// RunToCompletion.
void ProbeEventQueue(Spans* spans, std::uint64_t depth, Metrics& layers);

/// The ported component loops: cluster.router_lookup_ns, core.*, nand.*,
/// ftl.map_update_ns.
void ProbeComponents(Spans* spans, Metrics& layers);

/// env.parallel_capacity: throughput of `workers` threads spinning at once
/// over one thread spinning alone (workers x t1 / tN).
void ProbeParallelCapacity(Spans* spans, std::uint32_t workers,
                           Metrics& layers);

/// Writes `records` as an MSR CSV file.
void WriteCsv(const std::string& path,
              const std::vector<ctflash::trace::TraceRecord>& records);

}  // namespace simbench
