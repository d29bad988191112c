#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/engine_registry.hpp"
#include "core/gemm_simd.hpp"
#include "exp/sweep_stats.hpp"

#ifndef RHW_PERF_BUILD_TYPE
#define RHW_PERF_BUILD_TYPE "unknown"
#endif

namespace rhw::perf {

Percentile nearest_rank(std::vector<double> sample, double p) {
  Percentile out;
  out.n = sample.size();
  if (sample.empty()) return out;
  std::sort(sample.begin(), sample.end());
  const double exact = p / 100.0 * static_cast<double>(sample.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sample.size());
  out.value = sample[rank - 1];
  out.beyond = sample.size() - rank;
  return out;
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid]
                                : 0.5 * (sample[mid - 1] + sample[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

Fingerprint host_fingerprint(unsigned lanes) {
  Fingerprint fp;
  fp.cpu = cpu_brand();
  fp.nproc = std::thread::hardware_concurrency();
  fp.simd_fast_path = core::SimdEngine::fast_path();
  fp.engine = core::active_engine().spec();
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = "gcc " __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = RHW_PERF_BUILD_TYPE;
  fp.lanes = lanes;
  return fp;
}

std::string to_json(const Fingerprint& fp) {
  std::ostringstream os;
  exp::JsonWriter w(os);
  w.begin_object();
  w.field("cpu", fp.cpu);
  w.field("nproc", static_cast<int64_t>(fp.nproc));
  w.field("simd_fast_path", fp.simd_fast_path);
  w.field("engine", fp.engine);
  w.field("compiler", fp.compiler);
  w.field("build_type", fp.build_type);
  w.field("lanes", static_cast<int64_t>(fp.lanes));
  w.end_object();
  return os.str();
}

CpuTimes read_cpu_times() {
  CpuTimes out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  uint64_t field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    out.total += field;
    if (i == 7) {
      out.steal = field;
      out.valid = true;
    }
  }
  return out;
}

double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  if (!from.valid || !to.valid || to.total <= from.total) return -1.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::vector<double> least_stolen(const std::vector<Sample>& units) {
  std::vector<double> steal;
  for (const Sample& u : units) steal.push_back(u.steal_pct);
  const double limit = std::max(kQuietStealPct, median(steal));
  std::vector<double> out;
  for (const Sample& u : units) {
    if (u.steal_pct <= limit) out.push_back(u.value);
  }
  return out;
}

std::vector<double> values(const std::vector<Sample>& units) {
  std::vector<double> out;
  for (const Sample& u : units) out.push_back(u.value);
  return out;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("metric %-36s = %.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
  if (!std::isfinite(value)) {
    ops("metric " + name, 1, 1, "non-finite value");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("detail %-36s = %.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::ops(const std::string& kind, uint64_t attempted, uint64_t failed,
                 const std::string& first_failure) {
  attempted_ += attempted;
  failed_ += failed;
  std::printf("check  %-36s : %llu attempted, %llu failed\n", kind.c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::fflush(stdout);
  if (failed > 0 && !first_failure.empty()) {
    std::fprintf(stderr, "rhw_perf: %s check failed: %s\n", kind.c_str(),
                 first_failure.c_str());
  }
}

void Report::print_result() const {
  std::ostringstream os;
  exp::JsonWriter w(os);
  w.begin_object();
  w.field("correct", correct());
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::string selftest_percentiles() {
  // 1..1000: every nearest rank is known exactly.
  std::vector<double> uniform;
  for (int i = 1; i <= 1000; ++i) uniform.push_back(i);
  const Percentile p50 = nearest_rank(uniform, 50.0);
  const Percentile p99 = nearest_rank(uniform, 99.0);
  const Percentile p100 = nearest_rank(uniform, 100.0);
  if (p50.value != 500.0 || p50.beyond != 500) return "p50 of 1..1000";
  if (p99.value != 990.0 || p99.beyond != 10) return "p99 of 1..1000";
  if (p100.value != 1000.0 || p100.beyond != 0) return "p100 of 1..1000";
  // A heavy tail whose top values sit inside one log bucket of a bucketed
  // histogram: an exact percentile must still be an observed value <= max.
  std::vector<double> tail(990, 100.0);
  for (int i = 0; i < 10; ++i) tail.push_back(2190.0 + i);
  const Percentile t99 = nearest_rank(tail, 99.0);
  const Percentile t999 = nearest_rank(tail, 99.9);
  if (t99.value != 100.0 || t99.beyond != 10) return "p99 of heavy tail";
  if (t999.value != 2198.0 || t999.value > 2199.0) return "p99.9 <= max";
  if (nearest_rank({}, 99.0).n != 0) return "empty sample";
  if (nearest_rank({7.0}, 99.0).value != 7.0) return "single sample";
  return "";
}

}  // namespace rhw::perf
