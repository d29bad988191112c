// rhw_perf: the repo benchmark program. Runs one named workload against the
// rhw library, checks its outputs, prints every metric by name and unit, and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//   rhw_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: attack_sweep, serve_open_loop, train. --trace 0 measures the
// end-to-end metrics (setup_s, latency_ms, throughput_per_s, peak_rss_mb) with
// no instrumentation installed; --trace 1 is the separate traced run that
// reports the per-layer metrics and its own overhead. Also prints the share
// of host CPU time the hypervisor stole during the run. Exits 1 when an
// output check fails, 2 on a usage error or an exception (with no result
// line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rhw_perf: %s\nusage: rhw_perf --workload <attack_sweep|"
               "serve_open_loop|train> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rhw::perf;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  std::printf("fingerprint %s\n",
              to_json(host_fingerprint(bench_lanes())).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  const CpuTimes cpu_start = read_cpu_times();
  const std::string selftest = selftest_percentiles();
  report.ops("percentile self-test", 1, selftest.empty() ? 0 : 1, selftest);
  try {
    if (opts.workload == "attack_sweep") {
      run_attack_sweep(opts, report);
    } else if (opts.workload == "serve_open_loop") {
      run_serve(opts, report);
    } else if (opts.workload == "train") {
      run_train(opts, report);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rhw_perf: %s\n", e.what());
    return 2;
  }
  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // Not a metric: the hypervisor's share of host CPU time during the run,
  // which run.py saves with the record.
  report.detail("host.steal_pct", steal_pct(cpu_start, read_cpu_times()),
                "%");
  report.print_result();
  return report.correct() ? 0 : 1;
}
