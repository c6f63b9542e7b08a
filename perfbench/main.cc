// perfbench: the host-measured benchmark program.
//
//   perfbench --workload codec_scan|ssb_serve|ingest_mixed --seed N
//             --seconds S --trace 0|1 [--trace-out spans.json]
//
// Prints progress and the layer summary, then one JSON result line.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "harness.h"

int main(int argc, char** argv) {
  tilecomp::Flags flags(argc, argv);
  perfbench::RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10.0);
  config.trace = flags.GetInt("trace", 0) != 0;
  config.trace_out = flags.GetString("trace-out", "");
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return perfbench::RunBenchmark(config);
}
