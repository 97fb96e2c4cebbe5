#include "workloads.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "cluster/cluster_sim.h"
#include "cluster/spec.h"
#include "host/host_interface.h"
#include "obs/tracer.h"
#include "probes.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/random.h"

namespace simbench {

namespace ct = ctflash;
using ct::campaign::JsonArray;
using ct::trace::TraceRecord;

namespace {

void AddLatency(Fnv& fnv, const ct::util::LatencyStats& s) {
  fnv.Add(s.count());
  fnv.Add(s.mean_us());
  fnv.Add(s.p50_us());
  fnv.Add(s.p99_us());
  fnv.Add(s.max_us());
}

void AddFtl(Fnv& fnv, const ct::ftl::FtlStats& s) {
  fnv.Add(s.host_read_pages);
  fnv.Add(s.host_write_pages);
  fnv.Add(s.gc_page_copies);
  fnv.Add(s.gc_erases);
  fnv.Add(s.gc_stale_copies);
}

void SetFtlLayerMetrics(std::uint64_t copies, std::uint64_t erases,
                        std::uint64_t stale, Metrics& layers) {
  layers.Set("ftl.gc_page_copies", static_cast<double>(copies), "count");
  layers.Set("ftl.gc_erases", static_cast<double>(erases), "count");
  layers.Set("ftl.gc_stale_copies", static_cast<double>(stale), "count");
}

void SetTwinLayerMetrics(const TwinResult& twin, Metrics& layers) {
  layers.Set("ftl.sync_ns_per_request.conventional",
             twin.conventional_ns_per_request, "ns");
  layers.Set("ftl.sync_ns_per_request.ppb", twin.ppb_ns_per_request, "ns");
}

void SetAgedLayerMetrics(const AgedDevice& aged, Metrics& layers) {
  layers.Set("campaign.prefill_ms", aged.prefill_ms, "ms");
  layers.Set("campaign.snapshot_ms", aged.snapshot_ms, "ms");
  layers.Set("campaign.restore_ms", aged.restore_ms, "ms");
  layers.Set("campaign.snapshot_mib", aged.snapshot_mib, "MiB");
}

/// splitmix64 finalizer.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// (t_on - t_off) / t_off in percent.
double OverheadPct(double on_s, double off_s) {
  return off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
}

// --- replay_mixed --------------------------------------------------------------

/// Media (tenant 0, weight 8, 1k IOPS, lower half) and web (tenant 1,
/// weight 1, warped to 30k IOPS, hash-scattered into the upper half) MSR
/// CSV traces streamed through the host-mode replay engine.
class ReplayMixed final : public Workload {
 public:
  explicit ReplayMixed(const Options& o)
      : o_(o),
        web_requests_(o.tiny ? 4'000 : 30'000),
        media_requests_(o.tiny ? 500 : 5'000),
        media_path_(o.work_dir + "/replay_mixed-media.csv"),
        web_path_(o.work_dir + "/replay_mixed-web.csv") {}

  Repeat RunOnce(Spans* spans, Metrics* traced_layers) override {
    SIMBENCH_SPAN(spans, "repeat");
    Repeat r;
    const auto setup_start = Clock::now();
    {
      SIMBENCH_SPAN(spans, "setup");
      {
        SIMBENCH_SPAN(spans, "trace.generate");
        media_ = ct::trace::SyntheticTraceGenerator(MediaConfig()).Generate();
        web_ = ct::trace::SyntheticTraceGenerator(WebConfig()).Generate();
      }
      {
        SIMBENCH_SPAN(spans, "trace.write_csv");
        WriteCsv(media_path_, media_);
        WriteCsv(web_path_, web_);
      }
      host_.reset();
      AgedHost(spans, ssd_, host_);
      plan_ = CsvPlan(Sources());
    }
    r.setup_s = SecondsSince(setup_start);
    r.attempted = media_.size() + web_.size();

    HostLayerStats host_stats;
    std::optional<DepthObserver> observer;
    if (traced_layers != nullptr) observer.emplace(*host_, host_stats);
    ct::replay::ReplayEngine engine(*host_, ct::replay::ReplayEngineConfig{});
    const auto call_start = Clock::now();
    {
      SIMBENCH_SPAN(spans, "replay.engine_run");
      result_ = engine.Run(*plan_);
    }
    r.call_s = SecondsSince(call_start);
    if (observer) {
      observer.reset();
      host_stats.AddRun(*host_, r.call_s);
      host_stats.SetMetrics(*traced_layers);
    }

    std::uint64_t emitted = 0;
    for (const auto& c : result_.sources) emitted += c.emitted;
    r.completed = result_.completed;
    if (result_.pulled != r.attempted || result_.submitted != r.attempted ||
        result_.completed != r.attempted || emitted != r.attempted ||
        host_->Outstanding() != 0) {
      std::ostringstream os;
      os << "replay_mixed conservation: generated " << r.attempted
         << ", emitted " << emitted << ", pulled " << result_.pulled
         << ", submitted " << result_.submitted << ", completed "
         << result_.completed << ", outstanding " << host_->Outstanding();
      r.violations.push_back(os.str());
    }
    r.sim_device_s = static_cast<double>(result_.MakespanUs()) / 1e6;

    Fnv fnv;
    fnv.Add(result_.pulled);
    fnv.Add(result_.completed);
    fnv.Add(static_cast<std::uint64_t>(result_.MakespanUs()));
    fnv.Add(static_cast<std::uint64_t>(result_.max_completion_us));
    AddLatency(fnv, result_.read_latency);
    AddLatency(fnv, result_.write_latency);
    for (const auto& t : result_.tenants) {
      fnv.Add(t.completed);
      fnv.Add(t.throttled);
      AddLatency(fnv, t.read_latency);
      AddLatency(fnv, t.write_latency);
    }
    AddFtl(fnv, ssd_->ftl().stats());
    fnv.Add(host_->TxnsDispatched());
    r.digest = fnv.Hex();
    return r;
  }

  SimSummary Summarize(Spans* spans) override {
    SimSummary s;
    s.read_p50_us = result_.read_latency.p50_us();
    s.read_p99_us = result_.read_latency.p99_us();
    s.write_p99_us = result_.write_latency.p99_us();
    s.waf = ssd_->ftl().stats().Waf();
    s.ppb_read_gain = Twin(spans).PpbReadGain();
    return s;
  }

  void LayerMetrics(Spans* spans, double untraced_call_s, Metrics& layers,
                    std::vector<std::string>& /*violations*/) override {
    const ct::ftl::FtlStats& f = ssd_->ftl().stats();
    SetFtlLayerMetrics(f.gc_page_copies, f.gc_erases, f.gc_stale_copies, layers);
    SetTwinLayerMetrics(Twin(spans), layers);
    SetAgedLayerMetrics(AgeDevice(spans, DeviceConfig(), 80), layers);
    layers.Set("campaign.restores", 0.0, "count");
    ProbeTraceIngest(spans, Sources(), layers);
    ProbeSynthetic(spans, {MediaConfig(), WebConfig()}, layers);
    const auto web = WebConfig();
    ProbeZipf(spans, web.footprint_bytes / web.region_bytes,
              web.read_zipf_theta, layers);
    layers.Set("cluster.speedup", 0.0, "x");  // no parallel stage
    layers.Set("obs.phase_tracer_overhead_pct",
               OverheadPct(PhaseTracedCallS(spans), untraced_call_s), "%");
  }

 private:
  /// A fresh 80 %-aged device and its host interface, advanced past the
  /// prefill.
  static void AgedHost(Spans* spans, std::unique_ptr<ct::ssd::Ssd>& ssd,
                       std::unique_ptr<ct::host::HostInterface>& host) {
    ssd = std::make_unique<ct::ssd::Ssd>(DeviceConfig());
    ct::Us prefill_end = 0;
    {
      SIMBENCH_SPAN(spans, "ssd.prefill");
      ct::ssd::ExperimentRunner prefiller(*ssd);
      prefill_end = prefiller.Prefill(ssd->LogicalBytes() / 100 * 80);
    }
    host = std::make_unique<ct::host::HostInterface>(*ssd, HostConfig());
    host->AdvanceTo(prefill_end);
  }

  ct::trace::SyntheticWorkloadConfig MediaConfig() const {
    return ct::trace::MediaServerWorkload(4ull << 30, media_requests_,
                                          StreamSeed(o_.seed, 1));
  }
  ct::trace::SyntheticWorkloadConfig WebConfig() const {
    return ct::trace::WebServerWorkload(4ull << 30, web_requests_,
                                        StreamSeed(o_.seed, 2));
  }

  static ct::ssd::SsdConfig DeviceConfig() {
    auto cfg = ct::ssd::ScaledConfig(ct::ssd::FtlKind::kConventional,
                                     256ull << 20, 16 * ct::kKiB, 2.0);
    cfg.timing_mode = ct::ftl::TimingMode::kQueued;
    cfg.ftl.gc_routing = ct::ftl::GcRouting::kScheduled;
    return cfg;
  }

  static ct::host::HostConfig HostConfig() {
    ct::host::HostConfig cfg;
    cfg.device_slots = 4;
    cfg.qos.tenants.resize(2);
    cfg.qos.tenants[0].name = "media";
    cfg.qos.tenants[0].weight = 8;
    cfg.qos.tenants[0].queues = {0, 1};
    cfg.qos.tenants[1].name = "web";
    cfg.qos.tenants[1].weight = 1;
    cfg.qos.tenants[1].queues = {2, 3};
    return cfg;
  }

  /// Plan sources over the generated CSV files, rate targets resolved from
  /// the generated records' native rates.
  std::vector<CsvSource> Sources() const {
    const std::uint64_t logical = ssd_->LogicalBytes();
    const auto resolve = [](ct::replay::TimeWarpConfig& warp,
                            const std::vector<TraceRecord>& records) {
      const ct::Us first = records.empty() ? 0 : records.front().timestamp_us;
      ct::Us last = 0;
      for (const TraceRecord& rec : records) {
        last = std::max(last, rec.timestamp_us - first);
      }
      warp.ResolveRateTarget(records.size(), last);
    };
    CsvSource media{media_path_, {}};
    media.options.name = "media";
    media.options.tenant = 0;
    media.options.remap.policy = ct::replay::RemapPolicy::kWrap;
    media.options.remap.footprint_bytes = logical / 2;
    media.options.warp.target_iops = 1'000.0;
    resolve(media.options.warp, media_);
    CsvSource web{web_path_, {}};
    web.options.name = "web";
    web.options.tenant = 1;
    web.options.remap.policy = ct::replay::RemapPolicy::kHashScatter;
    web.options.remap.footprint_bytes = logical / 2;
    web.options.remap.base_bytes = logical / 2;
    web.options.warp.target_iops = 30'000.0;
    resolve(web.options.warp, web_);
    return {media, web};
  }

  /// Twin input: the merged, remapped, warped stream the engine replayed.
  const TwinResult& Twin(Spans* spans) {
    if (!twin_) {
      const auto plan = CsvPlan(Sources());
      std::vector<TraceRecord> merged;
      while (auto tagged = plan->Next()) merged.push_back(tagged->record);
      twin_ = RunFtlTwin(spans, merged, 256ull << 20, 80);
    }
    return *twin_;
  }

  /// One more measured call with the aggregate phase tracer attached.
  double PhaseTracedCallS(Spans* spans) {
    SIMBENCH_SPAN(spans, "obs.phase_tracer_run");
    std::unique_ptr<ct::ssd::Ssd> ssd;
    std::unique_ptr<ct::host::HostInterface> host;
    AgedHost(spans, ssd, host);
    ct::obs::TracerConfig tc;
    tc.record_spans = false;
    tc.epoch_base_us = host->queue().Now();
    ct::obs::Tracer tracer(tc);
    host->AttachTracer(&tracer);
    const auto plan = CsvPlan(Sources());
    ct::replay::ReplayEngine engine(*host, ct::replay::ReplayEngineConfig{});
    const auto start = Clock::now();
    engine.Run(*plan);
    const double s = SecondsSince(start);
    host->AttachTracer(nullptr);
    return s;
  }

  Options o_;
  std::uint64_t web_requests_;
  std::uint64_t media_requests_;
  std::string media_path_;
  std::string web_path_;
  std::vector<TraceRecord> media_;
  std::vector<TraceRecord> web_;
  // Last repeat's state (host borrows ssd; destroyed first).
  std::unique_ptr<ct::ssd::Ssd> ssd_;
  std::unique_ptr<ct::host::HostInterface> host_;
  std::unique_ptr<ct::replay::ReplayPlan> plan_;
  ct::replay::ReplayResult result_;
  std::optional<TwinResult> twin_;
};

// --- campaign_paper ------------------------------------------------------------

/// The paper's comparison as a campaign grid: ftl x preset, one trace seed
/// shared by both FTLs, below the device's knee (time_scale 5).
class CampaignPaper final : public Workload {
 public:
  explicit CampaignPaper(const Options& o)
      : o_(o), requests_(o.tiny ? 2'000 : 60'000) {}

  Repeat RunOnce(Spans* spans, Metrics* /*traced_layers*/) override {
    SIMBENCH_SPAN(spans, "repeat");
    Repeat r;
    // Set-up is a spec parse only (the runner prefills inside Run), so it
    // is repeated and the median kept, to steady a sub-millisecond time.
    std::vector<double> setups;
    std::optional<ct::campaign::CampaignRunner> runner;
    {
      SIMBENCH_SPAN(spans, "setup");
      for (int i = 0; i < kSetupReps; ++i) {
        const auto start = Clock::now();
        SIMBENCH_SPAN(spans, "campaign.spec_parse");
        runner.emplace(ct::campaign::CampaignSpec::Parse(SpecJson(false)));
        setups.push_back(SecondsSince(start));
      }
    }
    r.setup_s = Median(setups);
    r.attempted = requests_ * runner->spec().arms.size();

    const auto call_start = Clock::now();
    {
      SIMBENCH_SPAN(spans, "campaign.run");
      result_ = runner->Run(1);
    }
    r.call_s = SecondsSince(call_start);

    for (const ct::campaign::ArmResult& arm : result_.arms) {
      if (!arm.ok) {
        r.violations.push_back("campaign_paper arm \"" + arm.name +
                               "\" failed: " + arm.error);
        continue;
      }
      const std::uint64_t done = arm.metrics.GetUintOr("requests", 0);
      r.completed += done;
      r.sim_device_s +=
          static_cast<double>(arm.metrics.GetUintOr("makespan_us", 0)) / 1e6;
      if (done != requests_) {
        r.violations.push_back("campaign_paper arm \"" + arm.name +
                               "\" completed " + std::to_string(done) + " of " +
                               std::to_string(requests_));
      }
    }
    Fnv fnv;
    fnv.Add(result_.DeterministicJson().Dump());
    r.digest = fnv.Hex();
    return r;
  }

  /// Percentiles are the arms' own, averaged weighted by each arm's
  /// sample count (the runner reports per-arm summaries, not histograms);
  /// the gain pools mean read latency per FTL over both presets.
  SimSummary Summarize(Spans* /*spans*/) override {
    SimSummary s;
    std::uint64_t host_writes = 0;
    std::uint64_t gc_copies = 0;
    double reads = 0.0;
    double writes = 0.0;
    double read_sum[2] = {0.0, 0.0};
    double read_count[2] = {0.0, 0.0};
    for (const ct::campaign::ArmResult& arm : result_.arms) {
      if (!arm.ok) continue;
      const ct::campaign::Json& m = arm.metrics;
      const ct::campaign::Json& read = *m.Get("read_latency");
      const ct::campaign::Json& write = *m.Get("write_latency");
      const double nr = read.GetDoubleOr("count", 0);
      const double nw = write.GetDoubleOr("count", 0);
      s.read_p50_us += read.GetDoubleOr("p50_us", 0) * nr;
      s.read_p99_us += read.GetDoubleOr("p99_us", 0) * nr;
      s.write_p99_us += write.GetDoubleOr("p99_us", 0) * nw;
      reads += nr;
      writes += nw;
      const ct::campaign::Json& dev = *m.Get("device");
      host_writes += dev.GetUintOr("host_write_pages", 0);
      gc_copies += dev.GetUintOr("gc_page_copies", 0);
      const int ppb = arm.config.GetStringOr("ftl", "") == "ppb" ? 1 : 0;
      read_sum[ppb] += read.GetDoubleOr("mean_us", 0) * nr;
      read_count[ppb] += nr;
    }
    if (reads > 0) {
      s.read_p50_us /= reads;
      s.read_p99_us /= reads;
    }
    if (writes > 0) s.write_p99_us /= writes;
    s.waf = host_writes == 0 ? 1.0
                             : static_cast<double>(host_writes + gc_copies) /
                                   static_cast<double>(host_writes);
    const double conv = read_count[0] > 0 ? read_sum[0] / read_count[0] : 0.0;
    const double ppb = read_count[1] > 0 ? read_sum[1] / read_count[1] : 0.0;
    s.ppb_read_gain = ppb > 0.0 ? conv / ppb : 0.0;
    return s;
  }

  void LayerMetrics(Spans* spans, double untraced_call_s, Metrics& layers,
                    std::vector<std::string>& violations) override {
    std::uint64_t copies = 0, erases = 0, stale = 0;
    for (const ct::campaign::ArmResult& arm : result_.arms) {
      if (!arm.ok) continue;
      const ct::campaign::Json& dev = *arm.metrics.Get("device");
      copies += dev.GetUintOr("gc_page_copies", 0);
      erases += dev.GetUintOr("gc_erases", 0);
      stale += dev.GetUintOr("gc_stale_copies", 0);
    }
    SetFtlLayerMetrics(copies, erases, stale, layers);
    layers.Set("campaign.restores",
               static_cast<double>(result_.prefill_restores), "count");

    // Replicas of the arms: the same device, restored snapshot, host
    // configuration and trace, through the benchmark's own HostInterface
    // with the scheduler observer attached.  Their simulated results must
    // match the runner's arms exactly.
    const ct::campaign::CampaignSpec spec =
        ct::campaign::CampaignSpec::Parse(SpecJson(false));
    std::vector<AgedDevice> groups;
    AgedDevice total;
    std::vector<TraceRecord> arm0_records;
    std::uint64_t arm0_footprint = 0;
    HostLayerStats host_stats;
    for (std::size_t i = 0; i < spec.arms.size(); ++i) {
      const ct::campaign::ArmSpec& arm = spec.arms[i];
      const std::string key = ct::campaign::SnapshotShapeKey(arm.device);
      auto group = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
        return ct::campaign::SnapshotShapeKey(g.config) == key;
      });
      if (group == groups.end()) {
        groups.push_back(AgeDevice(spans, arm.device, arm.prefill_pct,
                                   arm.prefill_chunk_bytes));
        group = groups.end() - 1;
        total.prefill_ms += group->prefill_ms;
        total.snapshot_ms += group->snapshot_ms;
        total.restore_ms += group->restore_ms;
        total.snapshot_mib += group->snapshot_mib;
      }
      const ct::campaign::Json& w = *arm.merged.Get("workload");
      const std::uint64_t footprint =
          ct::ssd::Ssd(arm.device).LogicalBytes() * arm.prefill_pct / 100;
      std::vector<TraceRecord> records;
      {
        SIMBENCH_SPAN(spans, "trace.generate");
        records = ct::trace::SyntheticTraceGenerator(
                      PresetConfig(w.GetStringOr("preset", "web"), footprint,
                                   arm.seed))
                      .Generate();
      }
      if (i == 0) {
        arm0_records = records;
        arm0_footprint = footprint;
      }
      const ct::host::LoadStats stats =
          RunObservedReplica(spans, *group, arm.host, std::move(records),
                             w.GetDoubleOr("time_scale", 1.0), host_stats);
      const ct::campaign::Json& m = result_.arms[i].metrics;
      const ct::campaign::Json* read = m.Get("read_latency");
      if (read == nullptr ||
          read->GetDoubleOr("p99_us", -1) != stats.read_latency.p99_us() ||
          m.GetUintOr("requests", 0) != stats.requests) {
        violations.push_back("campaign_paper: the replica of arm \"" +
                             arm.name + "\" disagrees with the runner's arm");
      }
    }
    host_stats.SetMetrics(layers);
    SetAgedLayerMetrics(total, layers);

    const std::string csv = o_.work_dir + "/campaign_paper-arm0.csv";
    WriteCsv(csv, arm0_records);
    CsvSource source{csv, {}};
    source.options.name = "arm0";
    ProbeTraceIngest(spans, {source}, layers);
    const auto web = PresetConfig("web", arm0_footprint, 1);
    ProbeSynthetic(spans, {web, PresetConfig("media", arm0_footprint, 2)},
                   layers);
    ProbeZipf(spans, web.footprint_bytes / web.region_bytes,
              web.read_zipf_theta, layers);
    SetTwinLayerMetrics(RunFtlTwin(spans, arm0_records, 128ull << 20, 90),
                        layers);

    // Arm sharding speedup (1 worker vs N) and the phase tracer's cost.
    {
      SIMBENCH_SPAN(spans, "campaign.run_parallel");
      ct::campaign::CampaignRunner runner(
          ct::campaign::CampaignSpec::Parse(SpecJson(false)));
      const auto start = Clock::now();
      runner.Run(o_.workers);
      layers.Set("cluster.speedup", untraced_call_s / SecondsSince(start), "x");
    }
    {
      SIMBENCH_SPAN(spans, "obs.phase_tracer_run");
      ct::campaign::CampaignRunner runner(
          ct::campaign::CampaignSpec::Parse(SpecJson(true)));
      const auto start = Clock::now();
      runner.Run(1);
      layers.Set("obs.phase_tracer_overhead_pct",
                 OverheadPct(SecondsSince(start), untraced_call_s), "%");
    }
  }

 private:
  static constexpr int kSetupReps = 15;
  static constexpr std::uint64_t kTraceSeeds = 4;

  /// The runner's synthetic workload for one arm (campaign/runner.cc).
  ct::trace::SyntheticWorkloadConfig PresetConfig(const std::string& preset,
                                                  std::uint64_t footprint,
                                                  std::uint64_t seed) const {
    return preset == "media"
               ? ct::trace::MediaServerWorkload(footprint, requests_, seed)
               : ct::trace::WebServerWorkload(footprint, requests_, seed);
  }

  std::string SpecJson(bool phases) const {
    ct::campaign::Json spec;
    spec["campaign"] = "campaign_paper";
    spec["workers"] = std::uint64_t{1};
    ct::campaign::Json defaults;
    defaults["device_bytes"] = "128MiB";
    defaults["prefill_pct"] = std::uint64_t{90};
    ct::campaign::Json workload;
    workload["kind"] = "synthetic";
    workload["requests"] = requests_;
    workload["time_scale"] = 5.0;
    defaults["workload"] = workload;
    if (phases) {
      ct::campaign::Json obs;
      obs["phases"] = true;
      defaults["observability"] = obs;
    }
    spec["defaults"] = defaults;
    ct::campaign::Json grid;
    grid["ftl"] = ct::campaign::Json(JsonArray{"conventional", "ppb"});
    grid["workload.preset"] = ct::campaign::Json(JsonArray{"web", "media"});
    // kTraceSeeds trace seeds, each shared by both FTLs: every preset's
    // traces replay on both devices, and pooling several seeds steadies
    // the simulated metrics, which one short trace leaves seed-dependent.
    JsonArray seeds;
    for (std::uint64_t j = 0; j < kTraceSeeds; ++j) {
      seeds.emplace_back(StreamSeed(StreamSeed(o_.seed, 3), j) >> 12);
    }
    grid["seed"] = ct::campaign::Json(std::move(seeds));
    spec["grid"] = grid;
    return spec.Dump();
  }

  Options o_;
  std::uint64_t requests_;
  ct::campaign::CampaignResult result_;
};

// --- cluster_zipf --------------------------------------------------------------

/// A healthy 8 + 1 fleet under 1M Zipf users, no faults.
class ClusterZipf final : public Workload {
 public:
  explicit ClusterZipf(const Options& o)
      : o_(o), epochs_(o.tiny ? 4 : 80), users_(o.tiny ? 10'000 : 1'000'000) {}

  std::uint32_t Threads() const override { return o_.workers; }

  Repeat RunOnce(Spans* spans, Metrics* /*traced_layers*/) override {
    SIMBENCH_SPAN(spans, "repeat");
    Repeat r;
    const auto setup_start = Clock::now();
    std::optional<ct::cluster::ClusterSim> sim;
    {
      SIMBENCH_SPAN(spans, "setup");
      ct::cluster::ClusterSpec spec;
      {
        SIMBENCH_SPAN(spans, "cluster.spec_parse");
        spec = ct::cluster::ClusterSpec::Parse(SpecJson(false));
      }
      SIMBENCH_SPAN(spans, "cluster.construct");
      sim.emplace(std::move(spec));
    }
    r.setup_s = SecondsSince(setup_start);

    const auto call_start = Clock::now();
    {
      SIMBENCH_SPAN(spans, "cluster.run");
      result_ = sim->Run(o_.workers);
    }
    r.call_s = SecondsSince(call_start);
    call_times_.push_back(r.call_s);
    Check(result_, r);
    digest_ = r.digest;
    return r;
  }

  SimSummary Summarize(Spans* spans) override {
    ct::util::LatencyStats read;
    ct::util::LatencyStats write;
    for (const auto& e : result_.epochs) {
      read.Merge(e.read);
      write.Merge(e.write);
    }
    SimSummary s;
    s.read_p50_us = read.p50_us();
    s.read_p99_us = read.p99_us();
    s.write_p99_us = write.p99_us();
    s.waf = fleet_host_writes_ == 0
                ? 1.0
                : static_cast<double>(fleet_host_writes_ + fleet_gc_copies_) /
                      static_cast<double>(fleet_host_writes_);
    s.ppb_read_gain = Twin(spans).PpbReadGain();
    return s;
  }

  void CheckOnce(Spans* spans, std::vector<std::string>& violations) override {
    {
      // The deterministic report may not depend on the worker count.
      SIMBENCH_SPAN(spans, "cluster.run_one_worker");
      ct::cluster::ClusterSim sim(
          ct::cluster::ClusterSpec::Parse(SpecJson(false)));
      const auto start = Clock::now();
      const ct::cluster::ClusterResult one = sim.Run(1);
      one_worker_s_ = SecondsSince(start);
      Repeat r;
      Check(one, r);
      for (std::string& v : r.violations) violations.push_back("1 worker: " + v);
      if (r.digest != digest_) {
        violations.push_back("cluster_zipf digest differs between 1 and " +
                             std::to_string(o_.workers) + " workers");
      }
    }
    ReplicateFleet(spans, violations);
  }

  void LayerMetrics(Spans* spans, double untraced_call_s, Metrics& layers,
                    std::vector<std::string>& /*violations*/) override {
    SetTwinLayerMetrics(Twin(spans), layers);
    SetFtlLayerMetrics(fleet_gc_copies_, fleet_gc_erases_, fleet_gc_stale_,
                       layers);
    SetAgedLayerMetrics(aged_, layers);
    // ClusterSim restores its fleet from one snapshot inside Run but does
    // not report how many restores it made; not measured here.
    layers.Set("campaign.restores", 0.0, "count");
    fleet_host_.SetMetrics(layers);

    const std::string csv = o_.work_dir + "/cluster_zipf-device.csv";
    WriteCsv(csv, twin_stream_);
    CsvSource source{csv, {}};
    source.options.name = "device";
    ProbeTraceIngest(spans, {source}, layers);
    ProbeSynthetic(spans, {ct::trace::WebServerWorkload(kDeviceBytes, 1'000, 1)},
                   layers);
    ProbeZipf(spans, users_, kTheta, layers);
    layers.Set("cluster.speedup", one_worker_s_ / Median(call_times_), "x");
    {
      SIMBENCH_SPAN(spans, "obs.phase_tracer_run");
      ct::cluster::ClusterSim sim(ct::cluster::ClusterSpec::Parse(SpecJson(true)));
      const auto start = Clock::now();
      sim.Run(o_.workers);
      layers.Set("obs.phase_tracer_overhead_pct",
                 OverheadPct(SecondsSince(start), untraced_call_s), "%");
    }
  }

 private:
  static constexpr std::uint64_t kDeviceBytes = 64ull << 20;
  static constexpr std::uint32_t kDevices = 8;
  static constexpr double kRateIops = 40'000.0;
  static constexpr double kTheta = 0.9;
  static constexpr std::uint64_t kRequestBytes = 16 * ct::kKiB;
  static constexpr std::uint32_t kPrefillPct = 75;
  static constexpr double kEpochS = 0.25;
  /// The fleet device whose stream feeds the FTL twin.
  static constexpr std::uint32_t kTwinDevice = 0;

  /// One user arrival as ClusterSim routes it to a fleet device.
  struct FleetOp {
    ct::Us at = 0;
    bool is_read = true;
    std::uint64_t offset = 0;
  };

  void Check(const ct::cluster::ClusterResult& result, Repeat& r) const {
    std::uint64_t arrivals = 0, timeouts = 0, completed = 0, active = 0;
    for (const auto& e : result.epochs) {
      arrivals += e.arrivals;
      timeouts += e.timeouts;
    }
    for (const auto& d : result.devices) {
      completed += d.completed;
      if (d.completed > 0) active++;
    }
    r.attempted = arrivals;
    r.completed = completed;
    r.sim_device_s = static_cast<double>(epochs_) * kEpochS *
                     static_cast<double>(active);
    if (arrivals != completed || timeouts != 0 || result.devices_failed != 0) {
      std::ostringstream os;
      os << "cluster_zipf: arrivals " << arrivals << ", completed " << completed
         << ", timeouts " << timeouts << ", failed devices "
         << result.devices_failed;
      r.violations.push_back(os.str());
    }
    Fnv fnv;
    fnv.Add(result.DeterministicJson().Dump());
    r.digest = fnv.Hex();
  }

  /// Every fleet device's user arrivals, generated and routed the way
  /// ClusterSim's serial phase does it: evenly spaced at the cluster rate,
  /// Zipf users from the spec-seeded stream, each sent to its shard's
  /// primary and placed at the user's stable slot in the prefilled region.
  /// The salts mirror cluster_sim.cc; ReplicateFleet checks the result
  /// against the cluster's own per-device outcome.
  std::vector<std::vector<FleetOp>> FleetStreams(
      Spans* spans, const ct::cluster::ClusterSpec& spec) const {
    SIMBENCH_SPAN(spans, "cluster.fleet_streams");
    const ct::cluster::ShardRouter router(spec.router);
    ct::util::Xoshiro256StarStar rng(Mix64(spec.seed ^ 0xC105'7E2Dull));
    const ct::util::ZipfSampler zipf(spec.user_count, spec.zipf_theta);
    std::uint64_t slots = aged_.prefill_bytes / spec.request_bytes;
    if (slots == 0) {
      slots = std::max<std::uint64_t>(1, aged_.logical_bytes / spec.request_bytes);
    }
    const ct::Us run_start = aged_.state.clock_us;
    const double period_us = 1e6 / spec.rate_iops;
    const auto count = static_cast<std::uint64_t>(
        static_cast<double>(spec.epoch_us) / period_us);
    std::vector<std::vector<FleetOp>> out(spec.router.TotalDevices());
    for (std::uint32_t e = 0; e < spec.epochs; ++e) {
      const ct::Us start = run_start + static_cast<ct::Us>(e) * spec.epoch_us;
      for (std::uint64_t i = 0; i < count; ++i) {
        FleetOp op;
        op.at = start + static_cast<ct::Us>(static_cast<double>(i) * period_us);
        const std::uint64_t user = zipf.Sample(rng);
        op.is_read = rng.Bernoulli(spec.read_fraction);
        op.offset = Mix64(spec.seed ^ 0x0FF5'E7ull ^ user) % slots *
                    spec.request_bytes;
        out[router.DeviceOfUser(user)].push_back(op);
      }
    }
    return out;
  }

  /// Replays every fleet device's share of the run through the benchmark's
  /// own Ssd + HostInterface (the fleet's are internal to ClusterSim),
  /// restored from the same aged snapshot and fed epoch by epoch as
  /// ClusterSim feeds its devices.  Each replica must reproduce its
  /// device's completed count and read latency exactly.  The replicas give
  /// sim_waf and ftl.gc_* (summed over the fleet), the twin's stream, and
  /// in traced runs the host.*/sched.*/qos.* counters.
  void ReplicateFleet(Spans* spans, std::vector<std::string>& violations) {
    SIMBENCH_SPAN(spans, "cluster.fleet_replica");
    const ct::cluster::ClusterSpec spec =
        ct::cluster::ClusterSpec::Parse(SpecJson(false));
    aged_ = AgeDevice(spans, spec.device.device, spec.device.prefill_pct,
                      spec.device.prefill_chunk_bytes);
    const ct::Us run_start = aged_.state.clock_us;
    const std::vector<std::vector<FleetOp>> streams = FleetStreams(spans, spec);
    fleet_host_ = HostLayerStats{};
    fleet_host_writes_ = fleet_gc_copies_ = fleet_gc_erases_ = fleet_gc_stale_ = 0;
    for (std::size_t d = 0; d < streams.size(); ++d) {
      SIMBENCH_SPAN(spans, "host.replica");
      ct::ssd::Ssd ssd(aged_.config);
      ssd.Restore(aged_.state);
      ct::host::HostInterface host(ssd, spec.device.host);
      host.AdvanceTo(run_start);
      std::optional<DepthObserver> observer;
      if (o_.trace) observer.emplace(host, fleet_host_);
      ct::util::LatencyStats read;
      std::uint64_t completed = 0;
      const std::vector<FleetOp>& ops = streams[d];
      const auto start = Clock::now();
      std::size_t next = 0;
      for (std::uint32_t e = 0; e < spec.epochs; ++e) {
        const ct::Us until = run_start + static_cast<ct::Us>(e + 1) * spec.epoch_us;
        for (; next < ops.size() && ops[next].at < until; ++next) {
          const FleetOp& op = ops[next];
          const bool is_read = op.is_read;
          host.SubmitAtAs(op.at, ct::cluster::kUserTenant,
                          is_read ? ct::trace::OpType::kRead
                                  : ct::trace::OpType::kWrite,
                          op.offset, spec.request_bytes,
                          [&read, &completed, is_read](
                              const ct::host::HostCompletion& c) {
                            if (is_read) read.Add(c.LatencyUs());
                            ++completed;
                          });
        }
        host.AdvanceTo(until);
      }
      host.Run();
      if (observer) {
        observer.reset();
        fleet_host_.AddRun(host, SecondsSince(start));
      }
      const ct::ftl::FtlStats& f = ssd.ftl().stats();
      fleet_host_writes_ += f.host_write_pages;
      fleet_gc_copies_ += f.gc_page_copies;
      fleet_gc_erases_ += f.gc_erases;
      fleet_gc_stale_ += f.gc_stale_copies;

      const ct::cluster::DeviceSummary& want = result_.devices.at(d);
      if (completed != want.completed || read.count() != want.read.count() ||
          read.mean_us() != want.read.mean_us() ||
          read.p50_us() != want.read.p50_us() ||
          read.p99_us() != want.read.p99_us() ||
          read.max_us() != want.read.max_us()) {
        std::ostringstream os;
        os << "cluster_zipf: the replica of device " << d << " completed "
           << completed << " (read p99 " << read.p99_us() << " us), the fleet's "
           << want.completed << " (read p99 " << want.read.p99_us() << " us)";
        violations.push_back(os.str());
      }
    }
    twin_stream_.clear();
    for (const FleetOp& op : streams.at(kTwinDevice)) {
      TraceRecord rec;
      rec.timestamp_us = op.at - run_start;
      rec.op = op.is_read ? ct::trace::OpType::kRead : ct::trace::OpType::kWrite;
      rec.offset_bytes = op.offset;
      rec.size_bytes = spec.request_bytes;
      twin_stream_.push_back(rec);
    }
    if (twin_stream_.empty()) {
      violations.push_back("cluster_zipf: device " + std::to_string(kTwinDevice) +
                           " served no arrivals, so the FTL twin has no input");
    }
    twin_.reset();
  }

  const TwinResult& Twin(Spans* spans) {
    if (!twin_) twin_ = RunFtlTwin(spans, twin_stream_, kDeviceBytes, kPrefillPct);
    return *twin_;
  }

  std::string SpecJson(bool phases) const {
    ct::campaign::Json spec;
    spec["cluster"] = "cluster_zipf";
    spec["seed"] = StreamSeed(o_.seed, 6) >> 12;
    spec["workers"] = static_cast<std::uint64_t>(o_.workers);
    ct::campaign::Json fleet;
    fleet["devices"] = static_cast<std::uint64_t>(kDevices);
    fleet["spares"] = std::uint64_t{1};
    spec["fleet"] = fleet;
    ct::campaign::Json router;
    router["shards"] = std::uint64_t{128};
    router["replicas"] = std::uint64_t{2};
    router["vnodes"] = std::uint64_t{64};
    // The fleet layout is part of the system, not of the input: a fixed
    // ring seed keeps the hottest users on the same device in every run,
    // while --seed drives the arrivals and the users' data placement.
    router["seed"] = std::uint64_t{1};
    spec["router"] = router;
    ct::campaign::Json device;
    device["device_bytes"] = kDeviceBytes;
    device["prefill_pct"] = static_cast<std::uint64_t>(kPrefillPct);
    spec["device"] = device;
    ct::campaign::Json users;
    users["count"] = users_;
    users["zipf_theta"] = kTheta;
    spec["users"] = users;
    ct::campaign::Json workload;
    workload["rate_iops"] = kRateIops;
    workload["read_fraction"] = 0.9;
    workload["request_bytes"] = kRequestBytes;
    workload["epochs"] = static_cast<std::uint64_t>(epochs_);
    workload["epoch_us"] = static_cast<std::uint64_t>(kEpochS * 1e6);
    workload["timeout_us"] = std::uint64_t{1'000'000};
    spec["workload"] = workload;
    if (phases) {
      ct::campaign::Json obs;
      obs["phases"] = true;
      spec["observability"] = obs;
    }
    return spec.Dump();
  }

  Options o_;
  std::uint32_t epochs_;
  std::uint64_t users_;
  ct::cluster::ClusterResult result_;
  std::string digest_;
  std::vector<double> call_times_;
  double one_worker_s_ = 0.0;
  // Fleet replica (ReplicateFleet).
  AgedDevice aged_;
  HostLayerStats fleet_host_;
  std::uint64_t fleet_host_writes_ = 0;
  std::uint64_t fleet_gc_copies_ = 0;
  std::uint64_t fleet_gc_erases_ = 0;
  std::uint64_t fleet_gc_stale_ = 0;
  /// Device kTwinDevice's arrivals, relative to the run start.
  std::vector<TraceRecord> twin_stream_;
  std::optional<TwinResult> twin_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "replay_mixed") {
    return std::make_unique<ReplayMixed>(options);
  }
  if (options.workload == "campaign_paper") {
    return std::make_unique<CampaignPaper>(options);
  }
  if (options.workload == "cluster_zipf") {
    return std::make_unique<ClusterZipf>(options);
  }
  return nullptr;
}

}  // namespace simbench
