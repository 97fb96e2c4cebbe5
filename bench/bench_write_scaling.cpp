// Write-path scaling — the die-striped write-frontier bench.
//
// Closed-loop random 16 KiB WRITES through the multi-queue host interface
// at increasing queue depth, comparing:
//   * 4-channel device, write_frontiers = 1  (the seed single-active-block
//     baseline: IOPS pinned near single-die program throughput);
//   * 4-channel device, striped frontiers    (consecutive pages overlap
//     their program times across dies);
//   * 1-channel device, striped frontiers    (fewer dies -> lower ceiling:
//     the scaling really comes from die count, not from the knob).
//
// Asserted shape (std::runtime_error on violation, the bench error idiom):
//   * each series is monotone in QD up to a small tolerance;
//   * the striped 4-channel device sustains >= 2x the baseline write IOPS
//     at every QD >= 8;
//   * at saturation the striped 4-channel device beats the striped
//     1-channel device (die-count scaling).
//
// The three devices are explicit campaign arms crossed with a
// workload.queue_depth grid (see bench::QdCampaignSpec), run by
// campaign::CampaignRunner.  Results are also written as JSON (default
// BENCH_write_scaling.json, override with --json) so the numbers are
// diffable across PRs.
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

struct Series {
  std::string label;
  std::uint32_t channels = 0;
  std::uint32_t write_frontiers = 0;
  std::vector<ctflash::bench::QdRow> points;

  double IopsAtQd(std::uint32_t qd) const {
    for (const auto& p : points) {
      if (p.queue_depth == qd) return p.iops;
    }
    throw std::runtime_error("no sweep point at QD " + std::to_string(qd));
  }
};

void CheckMonotone(const Series& s) {
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    if (s.points[i].iops < s.points[i - 1].iops * 0.98) {
      std::ostringstream os;
      os << s.label << ": write IOPS regressed at QD "
         << s.points[i].queue_depth << " (" << s.points[i].iops << " < "
         << s.points[i - 1].iops << ")";
      throw std::runtime_error(os.str());
    }
  }
}

void WriteJson(const std::string& path, std::uint64_t device_bytes,
               std::uint64_t requests, const std::vector<Series>& series,
               double scaling_at_qd8) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n"
      << "  \"bench\": \"write_scaling\",\n"
      << "  \"workload\": \"closed-loop random 16KiB writes, 80% prefill\",\n"
      << "  \"device_bytes\": " << device_bytes << ",\n"
      << "  \"requests_per_point\": " << requests << ",\n"
      << "  \"striped_over_baseline_qd8\": " << scaling_at_qd8 << ",\n"
      << "  \"series\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    out << "    {\"label\": \"" << s.label << "\", \"channels\": " << s.channels
        << ", \"write_frontiers\": " << s.write_frontiers
        << ", \"points\": [\n";
    for (std::size_t j = 0; j < s.points.size(); ++j) {
      const auto& p = s.points[j];
      out << "      {\"qd\": " << p.queue_depth << ", \"iops\": " << p.iops
          << ", \"mean_us\": " << p.mean_us << ", \"p99_us\": " << p.p99_us
          << ", \"die_util\": " << p.die_utilization
          << ", \"channel_util\": " << p.channel_utilization << "}"
          << (j + 1 < s.points.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < series.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ctflash;
  auto options = bench::BenchOptions::FromArgs(argc, argv);
  // Write sweeps churn GC; the default 64-deep list adds little beyond 32.
  if (options.qd_list == std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64}) {
    options.qd_list = {1, 2, 4, 8, 16, 32};
  }
  bench::PrintHeader("Write-Path Scaling (die-striped frontiers, closed loop)",
                     "ROADMAP write-path parallelism; Table 1 device",
                     options);

  std::vector<Series> series = {
      {"4ch-baseline", 4, 1, {}},
      {"4ch-striped", 4, options.write_frontiers, {}},
      {"1ch-striped", 1, options.write_frontiers, {}},
  };
  // Write-only: the path the seed serialized.
  campaign::Json spec =
      bench::QdCampaignSpec("write_scaling", options, /*read_fraction=*/0.0);
  campaign::JsonArray arms;
  for (const Series& s : series) {
    campaign::Json arm;
    arm["name"] = s.label;
    arm["channels"] = static_cast<std::uint64_t>(s.channels);
    arm["write_frontiers"] = static_cast<std::uint64_t>(s.write_frontiers);
    arm["seed"] = 1;
    arms.push_back(std::move(arm));
  }
  spec["arms"] = campaign::Json(std::move(arms));
  const campaign::CampaignResult result = bench::RunQdCampaign(spec);

  // Expansion order: queue depth slowest, then the arms in series order.
  for (std::size_t d = 0; d < options.qd_list.size(); ++d) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      series[i].points.push_back(bench::QdRow::Of(
          result.arms[d * series.size() + i], "write_latency"));
    }
  }
  for (const Series& s : series) {
    bench::PrintQdSweep(s.label + ": " + std::to_string(s.channels) +
                            "-channel device, write_frontiers=" +
                            std::to_string(s.write_frontiers) + ", " +
                            std::to_string(options.qd_requests) +
                            " random 16 KiB writes per point",
                        s.points);
    CheckMonotone(s);
  }

  // Acceptance shape: striping must at least double write IOPS wherever the
  // queue is deep enough to expose die parallelism.
  double scaling_at_qd8 = 0.0;
  for (const auto& p : series[1].points) {
    if (p.queue_depth < 8) continue;
    const double base = series[0].IopsAtQd(p.queue_depth);
    const double scale = base > 0 ? p.iops / base : 0.0;
    if (p.queue_depth == 8) scaling_at_qd8 = scale;
    if (scale < 2.0) {
      std::ostringstream os;
      os << "striped 4-channel write IOPS only " << scale << "x baseline at QD "
         << p.queue_depth << " (expected >= 2x)";
      throw std::runtime_error(os.str());
    }
  }
  const std::uint32_t sat_qd = options.qd_list.back();
  if (series[1].IopsAtQd(sat_qd) <= series[2].IopsAtQd(sat_qd)) {
    throw std::runtime_error(
        "4-channel striped device failed to out-throughput 1-channel at "
        "saturation — die-count scaling is broken");
  }

  const std::string json_path = options.json_path.empty()
                                    ? "BENCH_write_scaling.json"
                                    : options.json_path;
  WriteJson(json_path, options.device_bytes, options.qd_requests, series,
            scaling_at_qd8);

  std::cout << "Striped/baseline write IOPS at QD 8: x" << scaling_at_qd8
            << "  (>= 2x required)\n"
            << "Results written to " << json_path << "\n"
            << "Expected shape: baseline flat near single-die program\n"
               "throughput; striped series scale with die count to "
               "saturation.\n";
  return 0;
}
