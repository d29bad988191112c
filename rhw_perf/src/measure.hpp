// Measurement plumbing shared by every rhw_perf workload: monotonic timing,
// exact nearest-rank percentiles, the host fingerprint, and the Report that
// prints each metric by name and unit and ends the run with the one-line JSON
// result (correct / attempted / failed / metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rhw::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank percentile of an exact sample: the value at rank
// ceil(p/100 * n) of the sorted sample, so it is always one of the observed
// values and never exceeds the maximum. `beyond` counts the samples ranked
// above it — the support for a tail percentile (a p99 needs >= 10 beyond).
struct Percentile {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;
};
Percentile nearest_rank(std::vector<double> sample, double p);
double median(std::vector<double> sample);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// What a result was measured on. Results whose fingerprints differ are not
// comparable (run.py --compare refuses them).
struct Fingerprint {
  std::string cpu;
  unsigned nproc = 0;
  bool simd_fast_path = false;
  std::string engine;  // canonical spec of the active core::Engine
  std::string compiler;
  std::string build_type;
  unsigned lanes = 0;
};
Fingerprint host_fingerprint(unsigned lanes);
std::string to_json(const Fingerprint& fp);

// Collects one run's metrics and output-check tallies, prints every metric
// as it is added ("metric <name> = <value> <unit>"), and finishes with the
// result line the benchmark contract reads.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A printed figure that is not one of the result line's metrics (the
  // workload-specific names the generic metrics stand for).
  void detail(const std::string& name, double value, const std::string& unit);
  // Counts `attempted` operations of one kind, `failed` of which did not
  // pass their output check, and names the first failure on stderr.
  void ops(const std::string& kind, uint64_t attempted, uint64_t failed,
           const std::string& first_failure = "");
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  // The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Cumulative CPU time of the whole host, from the first line of /proc/stat
// (USER_HZ ticks). The benchmark prints the share of it that the hypervisor
// stole during the run, so runs measured on an oversubscribed virtual
// machine can be told apart (run.py --compare refuses them).
struct CpuTimes {
  bool valid = false;
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes read_cpu_times();
// Stolen share of host CPU time between two readings, in percent; -1 when
// either reading is unavailable.
double steal_pct(const CpuTimes& from, const CpuTimes& to);

// The stolen share of host CPU time while one unit of work ran: construct
// before the unit, read pct() after it.
class StealMeter {
 public:
  StealMeter() : start_(read_cpu_times()) {}
  double pct() const { return steal_pct(start_, read_cpu_times()); }

 private:
  CpuTimes start_;
};

// One unit of work's measured value and the steal while it ran.
struct Sample {
  double value = 0.0;
  double steal_pct = 0.0;
};

// The values of the units whose stolen share is at most kQuietStealPct or
// the median share of `units`, whichever is larger: all of them on a quiet
// host, the quieter half or more on a busy one. On a shared virtual machine
// the hypervisor takes CPUs away in bursts of seconds to minutes, and
// threads that meet at a barrier wait for the one whose CPU was taken, so a
// unit slows by several times the stolen share. Every timed metric is taken
// over these units; a detail line gives the figure over all units too.
inline constexpr double kQuietStealPct = 1.0;
std::vector<double> least_stolen(const std::vector<Sample>& units);
std::vector<double> values(const std::vector<Sample>& units);

// Benchmark self-test: nearest_rank on known distributions (p <= max, exact
// ranks, beyond-counts). Returns an empty string on success, else the
// first violated expectation.
std::string selftest_percentiles();

}  // namespace rhw::perf
