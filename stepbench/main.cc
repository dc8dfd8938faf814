// Runs one named workload of the training-step benchmark and prints every
// metric by name with its unit; the last stdout line is the JSON result.
// Exits 1 when a correctness check fails, 2 on a usage or setup error.
//
//   step_bench --workload cifarnet-dense-2t --seed 1 --seconds 45 --trace 0

#include <malloc.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "stepbench/step_bench.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adr::stepbench;
  // Fixed allocator settings, so peak_rss_mb follows the program's
  // allocations and not glibc's adaptive mmap threshold, which moves with
  // the order of frees. The values are the ceilings the adaptive threshold
  // rises to on 64-bit glibc; one arena keeps worker-thread allocations in
  // the same heap as the main thread's.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  mallopt(M_ARENA_MAX, 1);
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string trace_out;
  adr::FlagSet flags;
  flags.AddString("workload", &workload,
                  "workload name (cifarnet-dense-2t | cifarnet-reuse-2t | "
                  "alexnet-cr-1t)");
  flags.AddInt64("seed", &seed, "workload seed: data, init, shuffle, LSH");
  flags.AddDouble("seconds", &seconds,
                  "the run's intended length; each workload is a fixed "
                  "number of steps sized to about 45 s, so it is checked "
                  "for being positive and otherwise not used");
  flags.AddInt64("trace", &trace,
                 "0: end-to-end metrics; 1: traced run, per-layer metrics");
  flags.AddString("trace-out", &trace_out,
                  "Chrome/Perfetto trace file of a traced run (default "
                  ".bench_build/traces/<workload>-seed<seed>.json)");
  const adr::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || (trace != 0 && trace != 1) || !(seconds > 0)) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  adr::Result<Workload> w =
      MakeWorkload(workload, static_cast<uint64_t>(seed));
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  RunOptions options;
  options.trace = trace == 1;
  if (options.trace && trace_out.empty()) {
    std::filesystem::create_directories(".bench_build/traces");
    trace_out = ".bench_build/traces/" + workload + "-seed" +
                std::to_string(seed) + ".json";
  }
  options.trace_path = trace_out;
  adr::Result<RunResult> result = RunWorkload(*w, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
  if (!result->self_time_table.empty()) {
    std::fprintf(stderr, "self time per traced step:\n%s",
                 result->self_time_table.c_str());
  }
  for (const std::string& error : result->errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const Metric& m : result->metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(*result).c_str());
  return result->correct ? 0 : 1;
}
