#include "probes.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/shard_router.h"
#include "core/two_level_lru.h"
#include "core/virtual_block.h"
#include "ftl/block_manager.h"
#include "ftl/flash_target.h"
#include "ftl/mapping_table.h"
#include "nand/error_model.h"
#include "nand/latency_model.h"
#include "replay/trace_source.h"
#include "sim/event_queue.h"
#include "ssd/experiment.h"
#include "util/random.h"

namespace simbench {

namespace ct = ctflash;

namespace {

/// Keeps a probe's result observable so the loop is not optimized away.
std::uint64_t g_sink = 0;

/// Runs `body(iterations)` with doubling iteration counts until one call
/// takes at least `min_s`; returns ns per iteration of that call.
double NsPerIteration(const std::function<void(std::uint64_t)>& body,
                      double min_s = 0.05) {
  for (std::uint64_t n = 1024;; n *= 2) {
    const auto start = Clock::now();
    body(n);
    const double s = SecondsSince(start);
    if (s >= min_s || n >= (1ull << 34)) {
      return s * 1e9 / static_cast<double>(n);
    }
  }
}

}  // namespace

// --- scheduler observation ----------------------------------------------------

DepthObserver::DepthObserver(ct::host::HostInterface& host,
                             HostLayerStats& stats)
    : host_(host), stats_(stats) {
  host_.scheduler().AttachObserver(this);
}

DepthObserver::~DepthObserver() { host_.scheduler().DetachObserver(this); }

void DepthObserver::OnDispatch(const ct::sched::FlashTransaction& txn,
                               const ct::sched::DispatchContext&) {
  const std::size_t depth = host_.scheduler().ReadyCount();
  if (depth >= stats_.depth_counts.size()) {
    stats_.depth_counts.resize(depth + 1, 0);
  }
  stats_.depth_counts[depth]++;
  stats_.samples++;
  stats_.depth_sum += static_cast<double>(depth);
  stats_.pending_sum += static_cast<double>(host_.queue().PendingCount());
  if (!ct::sched::IsGc(txn.source)) {
    stats_.host_dispatches++;
    if (txn.tenant == 0) stats_.tenant0_dispatches++;
  }
}

void HostLayerStats::AddRun(const ct::host::HostInterface& host, double run_s) {
  const ct::host::IoScheduler& sched = host.scheduler();
  txns += host.TxnsDispatched();
  gc_dispatches += sched.GcDispatchedCount();
  read_preemptions_of_gc += sched.ReadPreemptionsOfGc();
  write_hold_picks += sched.WriteHoldPicks();
  peak_in_flight = std::max(peak_in_flight, host.PeakDeviceInFlight());
  if (const ct::qos::TenantTable* tenants = host.tenants()) {
    for (std::size_t t = 0; t < host.config().qos.tenants.size(); ++t) {
      throttled += tenants->StatsOf(static_cast<ct::qos::TenantId>(t)).throttled;
    }
  }
  call_s += run_s;
}

void HostLayerStats::SetMetrics(Metrics& layers) const {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, samples));
  double p99 = 0.0;
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < depth_counts.size(); ++d) {
    seen += depth_counts[d];
    if (static_cast<double>(seen) >= 0.99 * static_cast<double>(samples)) {
      p99 = static_cast<double>(d);
      break;
    }
  }
  layers.Set("host.ready_depth_mean", depth_sum / n, "txns");
  layers.Set("host.ready_depth_p99", p99, "txns");
  layers.Set("host.txns", static_cast<double>(txns), "count");
  layers.Set("host.ns_per_txn",
             txns == 0 ? 0.0 : call_s * 1e9 / static_cast<double>(txns), "ns");
  layers.Set("host.peak_in_flight", static_cast<double>(peak_in_flight),
             "txns");
  layers.Set("host.pending_events_mean", pending_sum / n, "events");
  layers.Set("sched.gc_dispatches", static_cast<double>(gc_dispatches),
             "count");
  layers.Set("sched.read_preemptions_of_gc",
             static_cast<double>(read_preemptions_of_gc), "count");
  layers.Set("sched.write_hold_picks", static_cast<double>(write_hold_picks),
             "count");
  layers.Set("qos.media_dispatch_share",
             host_dispatches == 0 ? 0.0
                                  : static_cast<double>(tenant0_dispatches) /
                                        static_cast<double>(host_dispatches),
             "ratio");
  layers.Set("qos.throttled", static_cast<double>(throttled), "count");
}

// --- device ageing and replicas ---------------------------------------------

AgedDevice AgeDevice(Spans* spans, const ct::ssd::SsdConfig& config,
                     std::uint32_t prefill_pct,
                     std::uint64_t prefill_chunk_bytes) {
  SIMBENCH_SPAN(spans, "campaign.age_device");
  AgedDevice aged;
  aged.config = config;
  ct::ssd::Ssd ssd(config);
  const std::uint64_t bytes = ssd.LogicalBytes() * prefill_pct / 100;
  aged.logical_bytes = ssd.LogicalBytes();
  aged.prefill_bytes = bytes;
  ct::Us clock = 0;
  {
    SIMBENCH_SPAN(spans, "ssd.prefill");
    const auto start = Clock::now();
    ct::ssd::ExperimentRunner prefiller(ssd);
    clock = prefiller.Prefill(bytes, prefill_chunk_bytes);
    aged.prefill_ms = SecondsSince(start) * 1e3;
  }
  {
    SIMBENCH_SPAN(spans, "campaign.snapshot");
    const auto start = Clock::now();
    aged.state = ssd.Snapshot(clock);
    aged.snapshot_ms = SecondsSince(start) * 1e3;
  }
  aged.snapshot_mib =
      static_cast<double>(aged.state.payload.size()) / (1024.0 * 1024.0);
  {
    SIMBENCH_SPAN(spans, "campaign.restore");
    const auto start = Clock::now();
    ct::ssd::Ssd copy(config);
    copy.Restore(aged.state);
    aged.restore_ms = SecondsSince(start) * 1e3;
  }
  return aged;
}

ct::host::LoadStats RunObservedReplica(
    Spans* spans, const AgedDevice& aged,
    const ct::host::HostConfig& host_config,
    std::vector<ct::trace::TraceRecord> records, double time_scale,
    HostLayerStats& stats) {
  SIMBENCH_SPAN(spans, "host.replica");
  ct::ssd::Ssd ssd(aged.config);
  {
    SIMBENCH_SPAN(spans, "campaign.restore");
    ssd.Restore(aged.state);
  }
  ct::host::HostInterface host(ssd, host_config);
  host.AdvanceTo(aged.state.clock_us);
  DepthObserver observer(host, stats);
  ct::host::OpenLoopGenerator generator(host, std::move(records), time_scale);
  ct::host::LoadStats load;
  const auto start = Clock::now();
  {
    SIMBENCH_SPAN(spans, "host.open_loop_run");
    load = generator.Run();
  }
  stats.AddRun(host, SecondsSince(start));
  return load;
}

// --- FTL twin -----------------------------------------------------------------

TwinResult RunFtlTwin(Spans* spans,
                      const std::vector<ct::trace::TraceRecord>& records,
                      std::uint64_t device_bytes, std::uint32_t prefill_pct) {
  SIMBENCH_SPAN(spans, "ftl.twin");
  TwinResult twin;
  twin.requests = records.size();
  for (const ct::ssd::FtlKind kind :
       {ct::ssd::FtlKind::kConventional, ct::ssd::FtlKind::kPpb}) {
    const bool ppb = kind == ct::ssd::FtlKind::kPpb;
    const auto config =
        ct::ssd::ScaledConfig(kind, device_bytes, 16 * ct::kKiB, 2.0);
    ct::ssd::Ssd ssd(config);
    ct::ssd::ExperimentRunner runner(ssd, /*closed_loop=*/false);
    {
      SIMBENCH_SPAN(spans, "ssd.prefill");
      runner.Prefill(ssd.LogicalBytes() * prefill_pct / 100);
    }
    ct::ssd::ExperimentResult result;
    const auto start = Clock::now();
    {
      SIMBENCH_SPAN(spans, ppb ? "ftl.sync_replay.ppb"
                               : "ftl.sync_replay.conventional");
      result = runner.Replay(records, "twin");
    }
    const double ns = SecondsSince(start) * 1e9 /
                      static_cast<double>(std::max<std::size_t>(1, records.size()));
    if (ppb) {
      twin.ppb_ns_per_request = ns;
      twin.ppb_read_mean_us = result.read_latency.mean_us();
    } else {
      twin.conventional_ns_per_request = ns;
      twin.conventional_read_mean_us = result.read_latency.mean_us();
      twin.conventional_ftl = ssd.ftl().stats();
    }
  }
  return twin;
}

// --- trace ingest ---------------------------------------------------------------

void WriteCsv(const std::string& path,
              const std::vector<ct::trace::TraceRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("simbench: cannot write " + path);
  ct::trace::WriteMsrCsv(records, out);
  if (!out) throw std::runtime_error("simbench: short write to " + path);
}

std::unique_ptr<ct::replay::ReplayPlan> CsvPlan(
    const std::vector<CsvSource>& sources) {
  auto plan = std::make_unique<ct::replay::ReplayPlan>();
  for (const CsvSource& s : sources) {
    plan->AddSource(std::make_unique<ct::replay::StreamingMsrCsvSource>(s.path),
                    s.options);
  }
  return plan;
}

void ProbeTraceIngest(Spans* spans, const std::vector<CsvSource>& sources,
                      Metrics& layers) {
  // Parse-only and plan passes over the same files alternate, so both see
  // the same host conditions; medians of the per-pass times are compared.
  constexpr int kRounds = 5;
  std::uint64_t records = 0;
  std::vector<double> parse_s;
  std::vector<double> plan_s;
  for (int round = 0; round < kRounds; ++round) {
    {
      SIMBENCH_SPAN(spans, "trace.parse_probe");
      const auto start = Clock::now();
      records = 0;
      for (const CsvSource& s : sources) {
        ct::replay::StreamingMsrCsvSource source(s.path);
        while (auto record = source.Next()) {
          g_sink += record->offset_bytes;
          records++;
        }
      }
      parse_s.push_back(SecondsSince(start));
    }
    {
      SIMBENCH_SPAN(spans, "replay.plan_probe");
      const auto start = Clock::now();
      const auto plan = CsvPlan(sources);
      while (auto tagged = plan->Next()) g_sink += tagged->record.offset_bytes;
      plan_s.push_back(SecondsSince(start));
    }
  }
  const double per = 1e9 / static_cast<double>(std::max<std::uint64_t>(1, records));
  layers.Set("trace.parse_ns_per_record", Median(parse_s) * per, "ns");
  layers.Set("replay.plan_ns_per_record",
             (Median(plan_s) - Median(parse_s)) * per, "ns");
  layers.Set("trace.records", static_cast<double>(records), "count");
}

void ProbeSynthetic(Spans* spans,
                    const std::vector<ct::trace::SyntheticWorkloadConfig>& configs,
                    Metrics& layers) {
  SIMBENCH_SPAN(spans, "trace.synth_probe");
  std::vector<double> ns;
  for (const auto& config : configs) {
    ct::trace::SyntheticTraceGenerator generator(config);
    ns.push_back(NsPerIteration([&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) g_sink += generator.Next().offset_bytes;
    }));
  }
  double sum = 0.0;
  for (const double v : ns) sum += v;
  layers.Set("trace.synth_ns_per_record",
             ns.empty() ? 0.0 : sum / static_cast<double>(ns.size()), "ns");
}

// --- utilities and the event queue ----------------------------------------------

void ProbeZipf(Spans* spans, std::uint64_t n, double theta, Metrics& layers) {
  double build_ms = 0.0;
  {
    SIMBENCH_SPAN(spans, "util.zipf_build_probe");
    std::vector<double> samples;
    const auto deadline = Clock::now() + std::chrono::milliseconds(100);
    do {
      const auto start = Clock::now();
      const ct::util::ZipfSampler table(n, theta);
      samples.push_back(SecondsSince(start) * 1e3);
      g_sink += table.n();
    } while (samples.size() < 3 || Clock::now() < deadline);
    build_ms = Median(samples);
  }
  SIMBENCH_SPAN(spans, "util.zipf_sample_probe");
  const ct::util::ZipfSampler table(n, theta);
  ct::util::Xoshiro256StarStar rng(2);
  const double sample_ns = NsPerIteration([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) g_sink += table.Sample(rng);
  });
  layers.Set("util.zipf_build_ms", build_ms, "ms");
  layers.Set("util.zipf_sample_ns", sample_ns, "ns");
}

void ProbeEventQueue(Spans* spans, std::uint64_t depth, Metrics& layers) {
  SIMBENCH_SPAN(spans, "sim.event_probe");
  depth = std::max<std::uint64_t>(1, depth);
  const double ns = NsPerIteration([&](std::uint64_t events) {
    ct::sim::EventQueue queue;
    std::uint64_t fired = 0;
    std::function<void(ct::Us)> chain = [&](ct::Us) {
      if (++fired + depth <= events) queue.ScheduleAfter(1 + fired % 7, chain);
    };
    for (std::uint64_t i = 0; i < depth; ++i) queue.ScheduleAfter(1 + i % 7, chain);
    queue.RunToCompletion();
    g_sink += fired;
  });
  layers.Set("sim.ns_per_event", ns, "ns");
  layers.Set("sim.probe_depth", static_cast<double>(depth), "events");
}

// --- ported component loops ---------------------------------------------------------

void ProbeComponents(Spans* spans, Metrics& layers) {
  {
    SIMBENCH_SPAN(spans, "cluster.router_probe");
    ct::cluster::RouterConfig config;
    config.num_devices = 8;
    config.spare_devices = 1;
    config.num_shards = 128;
    config.replicas = 2;
    config.vnodes = 64;
    const ct::cluster::ShardRouter router(config);
    ct::util::Xoshiro256StarStar rng(9);
    layers.Set("cluster.router_lookup_ns",
               NsPerIteration([&](std::uint64_t n) {
                 for (std::uint64_t i = 0; i < n; ++i) {
                   g_sink += router.DeviceOfUser(rng.UniformBelow(1'000'000));
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "nand.latency_probe");
    ct::nand::NandGeometry g;
    ct::nand::NandTiming t;
    t.speed_ratio = 3.0;
    const ct::nand::LatencyModel model(g, t);
    layers.Set("nand.latency_read_ns",
               NsPerIteration([&](std::uint64_t n) {
                 std::uint32_t page = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                   g_sink += static_cast<std::uint64_t>(model.ReadUs(page));
                   page = (page + 7) % g.pages_per_block;
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "ftl.map_probe");
    layers.Set("ftl.map_update_ns",
               NsPerIteration([&](std::uint64_t n) {
                 ct::ftl::MappingTable map(1 << 16, 1 << 17);
                 ct::util::Xoshiro256StarStar rng(3);
                 ct::Ppn next = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                   const ct::Lpn lpn = rng.UniformBelow(1 << 16);
                   const ct::Ppn old = map.Update(lpn, next);
                   if (old != ct::kInvalidPpn) map.ReleasePpn(old);
                   g_sink += old;
                   next = (next + 1) % (1 << 17);
                   while (map.LpnOf(next) != ct::kInvalidLpn) {
                     next = (next + 1) % (1 << 17);
                   }
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "core.lru_probe");
    // Writes and promoting reads alternate, as PPB's classifier sees them.
    layers.Set("core.lru_ns_per_op",
               NsPerIteration([&](std::uint64_t n) {
                 ct::core::TwoLevelLru lru(8192, 4096);
                 ct::util::Xoshiro256StarStar rng(4);
                 for (std::uint64_t i = 0; i < n; ++i) {
                   const ct::Lpn lpn = rng.UniformBelow(1 << 14);
                   const auto outcome =
                       i % 2 == 0 ? lru.OnWrite(lpn) : lru.OnRead(lpn);
                   g_sink += static_cast<std::uint64_t>(outcome.tier) +
                             outcome.demoted_to_cold.value_or(0);
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "core.vb_alloc_probe");
    layers.Set("core.vb_alloc_ns",
               NsPerIteration([&](std::uint64_t n) {
                 ct::util::Xoshiro256StarStar rng(7);
                 std::uint64_t done = 0;
                 while (done < n) {
                   // A fresh pool per fill; construction is amortized over
                   // the ~6M pages one pool holds.
                   ct::ftl::BlockManager bm(1 << 14, 384);
                   ct::core::VirtualBlockManager vbm(bm, 384, 2);
                   while (done < n) {
                     const auto level =
                         static_cast<ct::core::HotnessLevel>(rng.UniformBelow(4));
                     auto a = vbm.AllocatePage(ct::core::AreaOf(level), level);
                     if (!a) break;
                     g_sink += a->ppn;
                     done++;
                   }
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "nand.read_service_probe");
    ct::nand::NandGeometry g;
    g.blocks_per_plane = 4;
    ct::ftl::FlashTarget target(g, ct::nand::NandTiming{});
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      target.ProgramPage(g.PpnOf(0, p), 0);
    }
    layers.Set("nand.read_service_ns",
               NsPerIteration([&](std::uint64_t n) {
                 std::uint32_t page = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                   g_sink += static_cast<std::uint64_t>(
                       target.ReadPage(g.PpnOf(0, page), 0));
                   page = (page + 13) % g.pages_per_block;
                 }
               }),
               "ns");
  }
  {
    SIMBENCH_SPAN(spans, "nand.error_probe");
    ct::nand::NandGeometry g;
    const ct::nand::LayerErrorModel model(g, ct::nand::ErrorModelConfig{});
    ct::util::Xoshiro256StarStar rng(8);
    layers.Set("nand.error_sample_ns",
               NsPerIteration([&](std::uint64_t n) {
                 std::uint32_t page = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                   g_sink += model.SampleBitErrors(page, 1000, rng);
                   page = (page + 31) % g.pages_per_block;
                 }
               }),
               "ns");
  }
}

void ProbeParallelCapacity(Spans* spans, std::uint32_t workers,
                           Metrics& layers) {
  SIMBENCH_SPAN(spans, "env.parallel_probe");
  constexpr std::uint64_t kSpin = 40'000'000;
  const auto spin = [](std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < kSpin; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::vector<double> one;
  std::vector<double> many;
  std::atomic<std::uint64_t> sink{0};
  for (int round = 0; round < 3; ++round) {
    auto start = Clock::now();
    sink += spin(round);
    one.push_back(SecondsSince(start));
    start = Clock::now();
    std::vector<std::thread> pool;
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] { sink += spin(w + round); });
    }
    for (std::thread& t : pool) t.join();
    many.push_back(SecondsSince(start));
  }
  g_sink += sink.load();
  const double capacity =
      static_cast<double>(workers) * Median(one) / Median(many);
  layers.Set("env.parallel_capacity", capacity, "x");
  layers.Set("env.workers", static_cast<double>(workers), "count");
}

}  // namespace simbench
