// Environment block of every report: what two reports must share before
// the benchmark compares them (perfbench/run.py --compare).
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "bench.hpp"
#include "common/build_info.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// A fixed amount of integer work the optimizer cannot fold away.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_spin_sink{0};

double time_spin(std::size_t threads, std::uint64_t iterations) {
  const std::int64_t start = now_ns();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([iterations] {
      g_spin_sink.fetch_add(spin(iterations), std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : pool) thread.join();
  return seconds_between(start, now_ns());
}

/// How many cores N concurrent spinners really get: N times the one-
/// thread time over the N-thread wall time, each the median of five
/// tries, after calibrating the work to ~20 ms on one thread.
double effective_parallelism(std::size_t threads) {
  std::uint64_t iterations = 1u << 16;
  while (time_spin(1, iterations) < 0.02 && iterations < (1ULL << 34)) {
    iterations *= 2;
  }
  std::vector<double> one, many;
  for (int trial = 0; trial < 5; ++trial) {
    one.push_back(time_spin(1, iterations));
    many.push_back(time_spin(threads, iterations));
  }
  return static_cast<double>(threads) * median(one) / median(many);
}

}  // namespace

Value environment_block() {
  const rrf::common::BuildInfo& build = rrf::common::build_info();
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  rrf::json::Object env;
  env.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  env.emplace_back("cxx_flags", PERFBENCH_CXX_FLAGS);
  env.emplace_back("profiler_on", rrf::obs::profiling_enabled());
  env.emplace_back("tracer_on", rrf::obs::tracing_enabled());
  env.emplace_back("nproc", nproc);
  env.emplace_back("effective_parallelism", effective_parallelism(nproc));
  env.emplace_back("git", build.git);
  env.emplace_back("compiler", build.compiler);
  env.emplace_back("library_build_type", build.build_type);
  env.emplace_back("contracts", build.contracts);
  return Value(std::move(env));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
