// Figure 7b: delivery delay vs system size, 5% broadcast rate, global and
// logical clocks. Paper: 100 / 500 / 1,000 / 5,000 / 10,000 processes;
// the delay grows logarithmically with n (two orders of magnitude in n
// less than doubles the delay).
//
// Default scale stops at 1,000 processes; --paper-scale names the
// published sizes, which need far more memory than one 16 GiB host has
// at n=10,000 (EXPERIMENTS.md, "Deviations & scale caps").
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace epto;
  auto args = bench::parseArgs(argc, argv);
  bench::printHeader("Figure 7b",
                     "delivery delay CDF vs system size (5% broadcast rate)", args);

  const std::vector<std::size_t> sizes =
      args.paperScale ? std::vector<std::size_t>{100, 500, 1000, 5000, 10000}
                      : std::vector<std::size_t>{100, 250, 500, 1000};

  std::vector<bench::SweepItem> items;
  for (const ClockMode mode : {ClockMode::Global, ClockMode::Logical}) {
    const char* clockName = mode == ClockMode::Global ? "global" : "logical";
    for (const std::size_t n : sizes) {
      workload::ExperimentConfig config;
      config.systemSize = n;
      config.clockMode = mode;
      config.broadcastProbability = 0.05;
      config.broadcastRounds = args.paperScale ? 20 : 10;
      config.seed = args.seed;
      items.push_back({std::to_string(n) + "proc_" + clockName, config});
    }
  }
  bench::runSweep(std::move(items), args);
  return 0;
}
