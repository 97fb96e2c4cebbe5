// Seed-parity lock-in for the multi-tenant QoS layer.
//
// A default HostConfig — no tenants configured, `write_aging_limit = 0` —
// must reproduce the pre-QoS host dispatch path bit-for-bit: identical
// dispatch order, identical latency totals and identical GC activity, for
// both GC routings and both FTL variants.  The golden fingerprints below
// were captured from the host interface before `src/qos/` existed; if this
// test fails, the QoS layer leaked into the default single-tenant path and
// silently changed every host-driven bench.
//
// The second set of goldens locks in the scheduler paths the default
// configuration never takes: two-tenant weighted DRR with a min-share
// floor, write aging under a read flood, scheduled GC driven into urgency,
// the FIFO policy, and an attached observer reading the write-held flag.
// They were captured from the linear-scan ready set, so any reimplementation
// of the ready set must reproduce its exact pick order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "qos/tenant.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

namespace ctflash {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV-1a
  }
  return h;
}

std::uint64_t Fold(std::uint64_t h, double v) {
  return Fold(h, std::bit_cast<std::uint64_t>(v));
}

struct Fingerprint {
  std::uint64_t dispatch = 0;  ///< every transaction in dispatch order
  std::uint64_t stats = 0;     ///< run aggregates + FTL counters
};

/// 85 % prefill, then a mixed closed-loop burst (QD 16, 50 % reads) through
/// a default-configured host interface; folds the full dispatch stream and
/// all replay-visible aggregates.
Fingerprint RunScenario(ssd::FtlKind kind, ftl::GcRouting routing) {
  auto cfg = ssd::ScaledConfig(kind, 128ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = routing;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner runner(ssd);
  const Us prefill_end = runner.Prefill(ssd.LogicalBytes() / 100 * 85);
  ssd.ftl().ResetStats();

  host::HostConfig host_cfg;  // the compatibility setting under test
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);

  Fingerprint fp;
  sched::DispatchObserver tap([&fp](const host::FlashTransaction& txn) {
    fp.dispatch = Fold(fp.dispatch, static_cast<std::uint64_t>(txn.source));
    fp.dispatch = Fold(fp.dispatch, txn.seq);
    fp.dispatch = Fold(fp.dispatch, txn.lpn);
    fp.dispatch = Fold(fp.dispatch, txn.offset_bytes);
  });
  host.scheduler().AttachObserver(&tap);

  host::ClosedLoopGenerator::Config gen;
  gen.queue_depth = 16;
  gen.total_requests = 30'000;
  gen.read_fraction = 0.5;
  gen.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  gen.seed = 77;
  const host::LoadStats load = host::ClosedLoopGenerator(host, gen).Run();

  // The burst must be GC-heavy, otherwise the dispatch stream cannot tell
  // the routings (or a QoS leak into the GC arbitration) apart.
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u)
      << ssd::FtlKindName(kind) << "/" << ftl::GcRoutingName(routing);

  std::uint64_t h = 0;
  h = Fold(h, load.requests);
  h = Fold(h, static_cast<std::uint64_t>(load.end_us));
  h = Fold(h, load.read_latency.total_us());
  h = Fold(h, load.write_latency.total_us());
  h = Fold(h, load.read_latency.p99_us());
  h = Fold(h, load.write_latency.p99_us());
  h = Fold(h, host.TxnsDispatched());
  const auto& s = ssd.ftl().stats();
  h = Fold(h, s.host_read_pages);
  h = Fold(h, s.host_write_pages);
  h = Fold(h, s.gc_page_copies);
  h = Fold(h, s.gc_erases);
  h = Fold(h, s.gc_stale_copies);
  fp.stats = h;
  return fp;
}

// Golden fingerprints captured from the pre-qos host dispatch path.
struct Golden {
  ssd::FtlKind kind;
  ftl::GcRouting routing;
  std::uint64_t dispatch;
  std::uint64_t stats;
};

constexpr Golden kGoldens[] = {
    {ssd::FtlKind::kConventional, ftl::GcRouting::kInline,
     0xb609a8930e2ba90aull, 0x7d16ad52aef82027ull},
    {ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled,
     0x3080e7caff105c60ull, 0x8e3c3ad82017e7d4ull},
    {ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled, 0x6f54ca1b698f7267ull,
     0x0da16ff388026607ull},
};

TEST(HostQosParity, DefaultConfigMatchesPreQosDispatchPath) {
  for (const auto& golden : kGoldens) {
    const auto fp = RunScenario(golden.kind, golden.routing);
    EXPECT_EQ(fp.dispatch, golden.dispatch)
        << ssd::FtlKindName(golden.kind) << "/"
        << ftl::GcRoutingName(golden.routing) << " dispatch fingerprint: 0x"
        << std::hex << fp.dispatch;
    EXPECT_EQ(fp.stats, golden.stats)
        << ssd::FtlKindName(golden.kind) << "/"
        << ftl::GcRoutingName(golden.routing) << " stats fingerprint: 0x"
        << std::hex << fp.stats;
  }
}

// --- scheduler-path goldens --------------------------------------------------

enum class Path { kDrrMinShare, kWriteAging, kGcUrgency, kFifo, kWriteHeld };

const char* PathName(Path path) {
  switch (path) {
    case Path::kDrrMinShare:
      return "drr_min_share";
    case Path::kWriteAging:
      return "write_aging";
    case Path::kGcUrgency:
      return "gc_urgency";
    case Path::kFifo:
      return "fifo";
    case Path::kWriteHeld:
      return "write_held";
  }
  return "?";
}

/// Folds every dispatch (source, seq, lpn, tenant) into `dispatch`, and the
/// scheduler state visible at each dispatch (ready counts, hold picks, the
/// resolved context) into `state`.
class FoldingObserver final : public sched::SchedulerObserver {
 public:
  FoldingObserver(const host::IoScheduler& sched, const ftl::FtlBase& ftl)
      : sched_(sched), ftl_(ftl) {}

  void OnDispatch(const host::FlashTransaction& txn,
                  const sched::DispatchContext& ctx) override {
    dispatch = Fold(dispatch, static_cast<std::uint64_t>(txn.source));
    dispatch = Fold(dispatch, txn.seq);
    dispatch = Fold(dispatch, txn.lpn);
    dispatch = Fold(dispatch, static_cast<std::uint64_t>(txn.tenant));
    state = Fold(state, static_cast<std::uint64_t>(sched_.ReadyCount()));
    state = Fold(state, static_cast<std::uint64_t>(sched_.GcReadyCount()));
    state = Fold(state, sched_.WriteHoldPicks());
    state = Fold(state, static_cast<std::uint64_t>(ctx.enqueue_us));
    state = Fold(state, static_cast<std::uint64_t>(ctx.die));
    state = Fold(state, static_cast<std::uint64_t>(ctx.die_free_at));
    state = Fold(state, static_cast<std::uint64_t>(ctx.write_held));
    if (ctx.write_held) ++held_dispatches;
    if (ftl_.GcUrgent()) ++urgent_dispatches;
  }
  void OnTxnExecuted(const host::FlashTransaction& txn, Us dispatch_us,
                     Us completion_us) override {
    state = Fold(state, txn.seq);
    state = Fold(state, static_cast<std::uint64_t>(dispatch_us));
    state = Fold(state, static_cast<std::uint64_t>(completion_us));
  }

  std::uint64_t dispatch = 0;
  std::uint64_t state = 0;
  std::uint64_t held_dispatches = 0;
  std::uint64_t urgent_dispatches = 0;

 private:
  const host::IoScheduler& sched_;
  const ftl::FtlBase& ftl_;
};

struct PathFingerprint {
  std::uint64_t dispatch = 0;
  std::uint64_t state = 0;
};

/// Runs one scheduler-path scenario on a 128 MiB scheduled-GC device and
/// checks the scenario actually exercised its path.
PathFingerprint RunPath(Path path) {
  const ssd::FtlKind kind = path == Path::kGcUrgency || path == Path::kFifo
                                ? ssd::FtlKind::kConventional
                                : ssd::FtlKind::kPpb;
  auto cfg = ssd::ScaledConfig(kind, 128ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  // Four write frontiers consume the pool fast enough that the admission
  // guard alone cannot keep it above the GC trigger: GC turns urgent.
  if (path == Path::kGcUrgency) cfg.ftl.write_frontiers = 4;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner runner(ssd);
  const Us prefill_end = runner.Prefill(ssd.LogicalBytes() / 100 * 90);
  ssd.ftl().ResetStats();

  host::HostConfig host_cfg;
  if (path == Path::kDrrMinShare) {
    host_cfg.device_slots = 8;
    host_cfg.qos.tenants.resize(2);
    host_cfg.qos.tenants[0].name = "a";
    host_cfg.qos.tenants[0].weight = 3;
    host_cfg.qos.tenants[0].queues = {0, 1};
    host_cfg.qos.tenants[1].name = "b";
    host_cfg.qos.tenants[1].weight = 1;
    host_cfg.qos.tenants[1].queues = {2, 3};
    host_cfg.qos.tenants[1].min_share = 0.4;
    host_cfg.write_aging_limit = 24;
  } else if (path == Path::kWriteAging) {
    host_cfg.device_slots = 4;
    host_cfg.write_aging_limit = 8;
  } else if (path == Path::kGcUrgency) {
    host_cfg.gc_aging_limit = 16;
  } else if (path == Path::kFifo) {
    host_cfg.policy = host::SchedPolicy::kFifo;
  }
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);
  FoldingObserver tap(host.scheduler(), ssd.ftl());
  host.scheduler().AttachObserver(&tap);

  const std::uint64_t footprint = ssd.LogicalBytes() / 100 * 60;
  const std::uint32_t page = ssd.config().geometry.page_size_bytes;
  switch (path) {
    case Path::kDrrMinShare: {
      host::TenantWorkload base;
      base.queue_depth = 16;
      base.total_requests = 8'000;
      base.read_fraction = 0.6;
      base.footprint_bytes = footprint;
      std::vector<host::TenantWorkload> workloads(2, base);
      workloads[0].tenant = 0;
      workloads[0].seed = 91;
      workloads[1].tenant = 1;
      workloads[1].read_fraction = 0.3;
      workloads[1].seed = 92;
      host::MultiTenantGenerator(host, workloads).Run();
      break;
    }
    case Path::kWriteAging: {
      // Open-loop read flood far past service rate, with writes sprinkled
      // in: the ready set stays read-saturated and writes must age out.
      const Us t0 = host.queue().Now();
      for (std::uint64_t i = 0; i < 16'000; ++i) {
        const std::uint64_t offset = (i * 37 * page) % footprint;
        host.SubmitAt(t0 + static_cast<Us>(i) * 4, trace::OpType::kRead,
                      offset, page);
        if (i % 4 == 1) {
          host.SubmitAt(t0 + static_cast<Us>(i) * 4 + 1,
                        trace::OpType::kWrite,
                        ((i * 53 + 11) * page) % footprint, page);
        }
      }
      host.Run();
      break;
    }
    case Path::kGcUrgency:
    case Path::kFifo:
    case Path::kWriteHeld: {
      host::ClosedLoopGenerator::Config gen;
      gen.queue_depth = path == Path::kGcUrgency ? 32 : 16;
      gen.total_requests = path == Path::kGcUrgency ? 20'000 : 16'000;
      gen.read_fraction = path == Path::kGcUrgency ? 0.2 : 0.4;
      gen.footprint_bytes = footprint;
      gen.seed = path == Path::kFifo ? 93 : 94;
      host::ClosedLoopGenerator(host, gen).Run();
      break;
    }
  }
  host.scheduler().DetachObserver(&tap);

  const auto& sched = host.scheduler();
  const std::string name = PathName(path);
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u) << name;
  EXPECT_EQ(sched.ReadyCount(), 0u) << name;
  switch (path) {
    case Path::kDrrMinShare:
      EXPECT_GT(host.tenants()->StatsOf(1).write_dispatches, 0u) << name;
      break;
    case Path::kWriteAging:
      EXPECT_GT(sched.AgedWriteDispatches(), 0u) << name;
      break;
    case Path::kGcUrgency:
      EXPECT_GT(tap.urgent_dispatches, 0u) << name;
      EXPECT_GT(sched.WriteHoldPicks(), 0u) << name;
      break;
    case Path::kFifo:
      break;
    case Path::kWriteHeld:
      EXPECT_GT(tap.held_dispatches, 0u) << name;
      break;
  }

  PathFingerprint fp{tap.dispatch, tap.state};
  fp.state = Fold(fp.state, sched.DispatchedCount());
  fp.state = Fold(fp.state, static_cast<std::uint64_t>(sched.PeakInFlight()));
  fp.state = Fold(fp.state, sched.GcDispatchedCount());
  fp.state = Fold(fp.state, sched.GcCompletedCount());
  fp.state = Fold(fp.state, sched.ReadPreemptionsOfGc());
  fp.state = Fold(fp.state, sched.WriteHoldPicks());
  fp.state = Fold(fp.state, sched.AgedWriteDispatches());
  fp.state = Fold(fp.state, tap.held_dispatches);
  fp.state = Fold(fp.state, tap.urgent_dispatches);
  return fp;
}

// Golden fingerprints captured from the linear-scan ready set.
struct PathGolden {
  Path path;
  std::uint64_t dispatch;
  std::uint64_t state;
};

constexpr PathGolden kPathGoldens[] = {
    {Path::kDrrMinShare, 0x27bc7879fae94980ull, 0x9759a3799db6b705ull},
    {Path::kWriteAging, 0xd5c87cee570e040eull, 0xd2fe3036859a4f23ull},
    {Path::kGcUrgency, 0x73e0881a602f5c40ull, 0x79d95c0e31828d1bull},
    {Path::kFifo, 0x53173a0c959a236full, 0x2ca222e0f224c3a3ull},
    {Path::kWriteHeld, 0x42a3ac829b46ef29ull, 0xfdf0d9fc4cdd4cf5ull},
};

TEST(HostQosParity, SchedulerPathsMatchLinearScanGoldens) {
  for (const auto& golden : kPathGoldens) {
    const auto fp = RunPath(golden.path);
    EXPECT_EQ(fp.dispatch, golden.dispatch)
        << PathName(golden.path) << " dispatch fingerprint: 0x" << std::hex
        << fp.dispatch;
    EXPECT_EQ(fp.state, golden.state)
        << PathName(golden.path) << " state fingerprint: 0x" << std::hex
        << fp.state;
  }
}

}  // namespace
}  // namespace ctflash
