// simbench: one workload, one mode, one result line.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--tiny] [--work-dir <dir>] [--commit <id>]
//            [--source-digest <hex>]
//
// Untraced (--trace 0): one warm-up, then setup + measured call repeated
// until --seconds have passed (at least kMinRepeats times); checks every
// repeat's outputs and prints every end-to-end metric as the median over
// the measured repeats.  Traced (--trace 1): a few untraced
// repeats as the overhead baseline, one traced repeat, then the per-layer
// probes; prints every per-layer metric and writes the span ledger.
//
// The last line of stdout is the result:
//   {"attempted": N, "correct": bool, "failed": N, "metrics": {...}}
// A violated correctness check prints it with "correct": false and exits 1.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace {

using simbench::Json;
using simbench::Options;

/// Default worker threads: min(kMaxWorkers, nproc).  Two, not four: on a
/// shared 4-vCPU host, four workers tie every measurement to the other
/// load on the machine (see README.md, "Steadiness").
constexpr std::uint32_t kMaxWorkers = 2;
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 500;
/// Untraced repeats a traced run takes as its overhead baseline.
constexpr int kTracedBaselineRepeats = 2;

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(next());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--work-dir") {
      o.work_dir = next();
    } else if (arg == "--commit") {
      o.commit = next();
    } else if (arg == "--source-digest") {
      o.source_digest = next();
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  o.workers = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxWorkers);
  return o;
}

/// Pins the calling thread (and the threads it starts later) to the `n`
/// lowest-numbered CPUs of `allowed`, the process's mask at start.  On a
/// shared host, a measured call that spreads over every CPU competes with
/// whatever else runs there; a fixed subset leaves the rest to other load
/// and steadies the timings.
void PinToCpus(const cpu_set_t& allowed, std::uint32_t n) {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::uint32_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      taken++;
    }
  }
  if (taken > 0) sched_setaffinity(0, sizeof pinned, &pinned);
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

Json Provenance(const Options& o, std::size_t repeats) {
  Json p;
  p["commit"] = o.commit;
  p["source_digest"] = o.source_digest;
  p["build_type"] = SIMBENCH_BUILD_TYPE;
  p["compiler"] = SIMBENCH_COMPILER;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  p["sanitizer"] = true;
#else
  p["sanitizer"] = false;
#endif
  p["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  p["workers"] = static_cast<std::uint64_t>(o.workers);
  p["repeats"] = static_cast<std::uint64_t>(repeats);
  p["seed"] = o.seed;
  p["workload"] = o.workload;
  p["traced"] = o.trace;
  p["tiny"] = o.tiny;
  p["date"] = UtcNow();
  return p;
}

struct Tally {
  std::vector<simbench::Repeat> repeats;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(simbench::Repeat r) {
    attempted += r.attempted;
    if (!repeats.empty() && r.digest != repeats.front().digest) {
      r.violations.push_back("digest " + r.digest + " differs from repeat 0's " +
                             repeats.front().digest);
    }
    // A repeat that violates a check counts all its requests as failed.
    failed += r.violations.empty() ? r.attempted - std::min(r.attempted, r.completed)
                                   : r.attempted;
    for (const std::string& v : r.violations) violations.push_back(v);
    repeats.push_back(std::move(r));
  }

  /// A run-level check (one made once per run, not per repeat) that added
  /// violations since `before` fails the run's whole load.
  void FailRunIfViolated(std::size_t before) {
    if (violations.size() > before) failed = attempted;
  }

  /// `f` over the measured repeats: all but the first, a warm-up that is
  /// checked like the others but kept out of the timings (it pays the
  /// process's first-touch page faults and cold caches).
  std::vector<double> Collect(double (*f)(const simbench::Repeat&)) const {
    std::vector<double> out;
    for (std::size_t i = 1; i < repeats.size(); ++i) out.push_back(f(repeats[i]));
    return out;
  }
};

/// Host times are reported at a nominal host speed: each repeat's time is
/// scaled by kReferenceNominalS / (the reference loop's time right before
/// it).  A shared host can drift by 1.6x over minutes (other tenants,
/// clock changes); the reference, which runs none of the library's code,
/// drifts with it, so the scaled times follow the code.  The units say so:
/// ns_per_request is in `ns_nominal`, wall_ms_per_sim_s in `ms_nominal`.
/// setup_s keeps the unit `s` the benchmark contract fixes for it but is
/// scaled the same way.  Raw medians stay in the report and on stdout.
constexpr double kReferenceNominalS = 0.05;

double HostScale(const simbench::Repeat& r) {
  return r.reference_s > 0.0 ? kReferenceNominalS / r.reference_s : 1.0;
}

double NsPerRequest(const simbench::Repeat& r) {
  return r.call_s * 1e9 * HostScale(r) /
         static_cast<double>(std::max<std::uint64_t>(1, r.completed));
}

/// One setup + measured call, with the host reference taken right before.
simbench::Repeat Measure(simbench::Workload& workload, simbench::Spans* spans,
                         simbench::Metrics* traced_layers) {
  const double reference_s = simbench::ReferenceSeconds(workload.Threads());
  simbench::Repeat r = workload.RunOnce(spans, traced_layers);
  r.reference_s = reference_s;
  return r;
}

int Run(const Options& o) {
  std::filesystem::create_directories(o.work_dir);
  auto workload = simbench::MakeWorkload(o);
  if (!workload) {
    std::cerr << "simbench: unknown workload \"" << o.workload << "\"\n";
    return 2;
  }
  simbench::Spans spans(o.trace);
  simbench::Metrics metrics;
  Tally tally;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool can_pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  if (can_pin) PinToCpus(allowed, workload->Threads());
  const auto start = simbench::Clock::now();

  if (!o.trace) {
    while (tally.repeats.size() < kMinRepeats + 1 ||
           (simbench::SecondsSince(start) < o.seconds &&
            tally.repeats.size() < kMaxRepeats)) {
      tally.Add(Measure(*workload, nullptr, nullptr));
    }
    const std::size_t before = tally.violations.size();
    workload->CheckOnce(nullptr, tally.violations);
    tally.FailRunIfViolated(before);
    const simbench::SimSummary sim = workload->Summarize(nullptr);
    metrics.Set("setup_s",
                simbench::Median(tally.Collect([](const simbench::Repeat& r) {
                  return r.setup_s * HostScale(r);
                })),
                "s");
    metrics.Set("ns_per_request", simbench::Median(tally.Collect(NsPerRequest)),
                "ns_nominal");
    metrics.Set("wall_ms_per_sim_s",
                simbench::Median(tally.Collect([](const simbench::Repeat& r) {
                  return r.call_s * 1e3 * HostScale(r) / std::max(1e-9, r.sim_device_s);
                })),
                "ms_nominal");
    metrics.Set("peak_rss_mib", simbench::PeakRssMib(), "MiB");
    metrics.Set("sim_read_p50_us", sim.read_p50_us, "us");
    metrics.Set("sim_read_p99_us", sim.read_p99_us, "us");
    metrics.Set("sim_write_p99_us", sim.write_p99_us, "us");
    metrics.Set("sim_waf", sim.waf, "ratio");
    metrics.Set("sim_ppb_read_gain", sim.ppb_read_gain, "ratio");
  } else {
    for (int i = 0; i < kTracedBaselineRepeats + 1; ++i) {
      tally.Add(Measure(*workload, nullptr, nullptr));
    }
    const double untraced_ns = simbench::Median(tally.Collect(NsPerRequest));
    const double untraced_call_s = simbench::Median(
        tally.Collect([](const simbench::Repeat& r) { return r.call_s; }));
    {
      SIMBENCH_SPAN(&spans, "traced_run");
      tally.Add(Measure(*workload, &spans, &metrics));
      // The probes below include parallel ones (worker speedup, parallel
      // capacity): give them every worker's CPU.
      if (can_pin) PinToCpus(allowed, o.workers);
      const std::size_t before = tally.violations.size();
      workload->CheckOnce(&spans, tally.violations);
      workload->LayerMetrics(&spans, untraced_call_s, metrics, tally.violations);
      tally.FailRunIfViolated(before);
      // Event-queue probe at the pending depth the workload's own host
      // queue ran at (one chain per pending event).
      simbench::ProbeEventQueue(
          &spans,
          static_cast<std::uint64_t>(metrics.Value("host.pending_events_mean") + 0.5),
          metrics);
      simbench::ProbeComponents(&spans, metrics);
      simbench::ProbeParallelCapacity(&spans, o.workers, metrics);
      metrics.Set("env.reference_loop_ms",
                  simbench::Median(tally.Collect([](const simbench::Repeat& r) {
                    return r.reference_s * 1e3;
                  })),
                  "ms");
    }
    metrics.Set("bench.trace_overhead_pct",
                (NsPerRequest(tally.repeats.back()) - untraced_ns) / untraced_ns * 100.0,
                "%");
    const double attempted = static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
    metrics.Set("bench.failed_frac", static_cast<double>(tally.failed) / attempted,
                "ratio");
  }

  const bool correct = tally.violations.empty();
  for (const std::string& v : tally.violations) {
    std::cerr << "simbench: CHECK FAILED: " << v << "\n";
  }

  ctflash::campaign::JsonArray repeats;
  for (const simbench::Repeat& r : tally.repeats) {
    Json row;
    row["digest"] = r.digest;
    row["setup_s"] = r.setup_s;
    row["call_s"] = r.call_s;
    row["attempted"] = r.attempted;
    row["completed"] = r.completed;
    row["sim_device_s"] = r.sim_device_s;
    row["reference_s"] = r.reference_s;
    repeats.push_back(std::move(row));
  }
  Json report;
  report["provenance"] = Provenance(o, tally.repeats.size());
  report["provenance"]["reference_nominal_s"] = kReferenceNominalS;
  const double raw_ns = simbench::Median(tally.Collect([](const simbench::Repeat& r) {
    return NsPerRequest(r) / HostScale(r);
  }));
  const double reference_ms = simbench::Median(
      tally.Collect([](const simbench::Repeat& r) { return r.reference_s * 1e3; }));
  const double raw_setup_s = simbench::Median(
      tally.Collect([](const simbench::Repeat& r) { return r.setup_s; }));
  report["raw_ns_per_request"] = raw_ns;
  report["raw_setup_s"] = raw_setup_s;
  report["reference_ms"] = reference_ms;
  report["repeats"] = Json(std::move(repeats));
  report["violations"] = Json(ctflash::campaign::JsonArray(tally.violations.begin(),
                                                          tally.violations.end()));
  report["failed_frac"] =
      static_cast<double>(tally.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
  report["metrics"] = metrics.ToJson();
  const std::string run_name = o.workload + "-seed" + std::to_string(o.seed);
  if (o.trace) {
    const std::string spans_path = o.work_dir + "/spans-" + run_name + ".json";
    std::ofstream out(spans_path);
    out << spans.ToJson().Dump(1) << "\n";
    if (!out) throw std::runtime_error("simbench: cannot write " + spans_path);
    report["spans_path"] = spans_path;
    std::cout << "self time by layer (ms):\n";
    for (const auto& [name, ms] : spans.SelfMsByName()) {
      std::cout << "  " << name << " " << ms << "\n";
    }
  }
  const std::string report_path =
      o.work_dir + "/report-" + run_name + (o.trace ? "-traced" : "") + ".json";
  {
    std::ofstream out(report_path);
    out << report.Dump(1) << "\n";
    if (!out) throw std::runtime_error("simbench: cannot write " + report_path);
  }
  std::cout << "provenance: " << report["provenance"].Dump() << "\n"
            << "digest: " << (tally.repeats.empty() ? "" : tally.repeats.front().digest)
            << "\nrepeats: " << tally.repeats.size()
            << "\nfailed_frac: " << report["failed_frac"].Dump()
            << "\nraw ns_per_request: " << raw_ns << ", raw setup_s: " << raw_setup_s
            << " (reference loop " << reference_ms
            << " ms, nominal " << kReferenceNominalS * 1e3 << " ms)"
            << "\nreport: " << report_path << "\n";

  Json result;
  result["correct"] = correct;
  result["attempted"] = tally.attempted;
  result["failed"] = tally.failed;
  result["metrics"] = metrics.ToJson();
  std::cout << result.Dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "simbench: " << e.what() << "\n";
    return 2;
  }
}
