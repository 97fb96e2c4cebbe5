// Queue-depth scaling — the host-interface bench.
//
// Closed-loop random page reads through the multi-queue host interface at
// increasing queue depth, on a 1-channel and a 4-channel device with
// identical capacity, block shape and timing.  Expected shape:
//   * IOPS grows monotonically with QD until the device saturates (die or
//     channel utilization approaching 100 %), then flattens;
//   * the 4-channel device sustains measurably higher saturated throughput
//     than the 1-channel device at QD >= 8 (the whole point of dispatching
//     page transactions out-of-order across channels/chips/dies);
//   * runs are bit-for-bit deterministic (seeded generator + event queue).
//
// The sweep is a campaign grid (channels x workload.queue_depth, see
// bench::QdCampaignSpec) run by campaign::CampaignRunner.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace ctflash;
  const auto options = bench::BenchOptions::FromArgs(argc, argv);
  bench::PrintHeader("Queue-Depth Scaling (host interface, closed loop)",
                     "Section 5 setup, Table 1 device", options);

  campaign::Json spec =
      bench::QdCampaignSpec("qd_scaling", options, /*read_fraction=*/1.0);
  const std::vector<std::uint32_t> channel_counts = {1, 4};
  campaign::JsonArray channels_axis;
  for (const std::uint32_t c : channel_counts) {
    channels_axis.emplace_back(static_cast<std::uint64_t>(c));
  }
  spec["grid"]["channels"] = campaign::Json(std::move(channels_axis));
  const campaign::CampaignResult result = bench::RunQdCampaign(spec);

  // "channels" sorts before "workload.queue_depth": channels vary slowest.
  const std::size_t depths = options.qd_list.size();
  double one_ch_peak = 0.0;
  double four_ch_peak = 0.0;
  for (std::size_t c = 0; c < channel_counts.size(); ++c) {
    const std::uint32_t channels = channel_counts[c];
    std::vector<bench::QdRow> rows;
    for (std::size_t d = 0; d < depths; ++d) {
      rows.push_back(
          bench::QdRow::Of(result.arms[c * depths + d], "read_latency"));
    }
    bench::PrintQdSweep(std::to_string(channels) + "-channel device, " +
                            std::to_string(options.qd_requests) +
                            " random 16 KiB reads per point",
                        rows);
    double peak = 0.0;
    for (const auto& p : rows) {
      if (p.iops > peak) peak = p.iops;
    }
    (channels == 1 ? one_ch_peak : four_ch_peak) = peak;
  }

  std::cout << "Peak IOPS: 1-channel=" << static_cast<std::uint64_t>(one_ch_peak)
            << "  4-channel=" << static_cast<std::uint64_t>(four_ch_peak)
            << "  (x" << (one_ch_peak > 0 ? four_ch_peak / one_ch_peak : 0.0)
            << ")\n";
  std::cout << "Expected shape: IOPS rises with QD to saturation; 4-channel\n"
               "device clearly out-throughputs 1-channel at QD >= 8.\n";
  return 0;
}
