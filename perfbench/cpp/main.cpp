// rrf_perfbench: runs one workload of the repository benchmark in this
// process and writes its report (perfbench/README.md).
//
// Usage:
//   rrf_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--report PATH] [--spans PATH] [--work-dir DIR]
//                 [--expect-digest HEX]
//   rrf_perfbench --list
//   rrf_perfbench --self-test
//
// perfbench/run.py builds this binary and is the command to use; it turns
// the report into the printed metrics.  Exit status: 0 with a report
// (which says whether every output check passed), 1 on an error, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "rrf_perfbench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: rrf_perfbench --workload NAME --seed N [--seconds S]"
               " [--trace 0|1]\n"
               "                     [--report PATH] [--spans PATH]"
               " [--work-dir DIR] [--expect-digest HEX]\n"
               "       rrf_perfbench --list | --self-test\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value,
                        int base = 10) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used, base);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    usage_error("bad value for " + flag + ": " + value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, report_path, work_dir = ".";
  RunOptions options;
  std::optional<std::uint64_t> seed;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--list") {
      for (const WorkloadSpec& spec : workloads()) {
        std::printf("%s\n", spec.name.c_str());
      }
      return 0;
    } else if (arg == "--self-test") {
      return checker_self_test() ? 0 : 1;
    } else if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      seed = parse_u64(arg, next());
    } else if (arg == "--seconds") {
      const std::string value = next();
      try {
        options.seconds = std::stod(value);
      } catch (const std::exception&) {
        usage_error("bad value for --seconds: " + value);
      }
      if (!(options.seconds > 0.0)) usage_error("--seconds must be > 0");
    } else if (arg == "--trace") {
      const std::string value = next();
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      trace = value == "1";
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--spans") {
      options.spans_path = next();
    } else if (arg == "--work-dir") {
      work_dir = next();
    } else if (arg == "--expect-digest") {
      options.expect_digest = parse_u64(arg, next(), 16);
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) usage_error("unknown or missing --workload");
  if (!seed) usage_error("missing --seed");
  options.seed = *seed;
  options.work_dir = work_dir;

  try {
    std::filesystem::create_directories(work_dir);
    const std::int64_t start = now_ns();
    const RunReport run =
        trace ? run_traced(*spec, options) : run_timed(*spec, options);
    const double elapsed = seconds_between(start, now_ns());

    rrf::json::Object report;
    report.emplace_back("schema", "rrf-perfbench");
    report.emplace_back("version", 1);
    report.emplace_back("workload", spec->name);
    report.emplace_back("seed", static_cast<std::size_t>(options.seed));
    report.emplace_back("seconds", options.seconds);
    report.emplace_back("trace", trace);
    report.emplace_back("environment", environment_block());
    report.emplace_back("correct", run.failed == 0 && run.attempted > 0);
    report.emplace_back("attempted", run.attempted);
    report.emplace_back("failed", run.failed);
    report.emplace_back("metrics", run.metrics);
    report.emplace_back("details", run.details);
    report.emplace_back("elapsed_s", elapsed);
    const std::string text = Value(std::move(report)).dump(2) + "\n";
    if (report_path.empty()) {
      std::cout << text;
    } else {
      std::ofstream out(report_path);
      out << text;
      if (!out) {
        std::fprintf(stderr, "rrf_perfbench: cannot write %s\n",
                     report_path.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrf_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
