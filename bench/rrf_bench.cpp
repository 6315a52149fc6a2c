// rrf_bench: deterministic macro-benchmark of the allocation hot path.
//
// Sweeps node count x VMs-per-node x tenant count across sharing policies
// on synthetic scenarios (fixed seeds), with warmup + repeated trials, and
// emits the machine-readable BENCH_rrf.json performance trajectory
// (schema: docs/BENCHMARKING.md; gated in CI by scripts/bench_compare.py).
//
// Usage:
//   rrf_bench [--quick | --full | --scale] [--out PATH]
//             [--policies rrf,drf,...] [--sweep NxVxT ...]
//             [--trials N] [--warmup N] [--windows N] [--seed N]
//             [--actuators] [--parallel] [--shards a,b,...]
//             [--profile] [--quiet]
//
// --scale selects the 1024-node / 100k-VM tier (docs/BENCHMARKING.md):
// one RRF cell measured serially and across a shard-count sweep, so the
// serial-vs-sharded throughput ratio reads directly off the report.
// --shards takes a comma list of shard counts (0 = serial baseline) and
// implies --parallel.
//
// --profile attaches the hierarchical profiler (obs/profiler) to the
// measured trials: the report gains schema-v2 "profile" blocks and a
// collapsed-stack flamegraph is written next to --out (.folded suffix).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "harness.hpp"

namespace {

using namespace rrf;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "rrf_bench: %s\n", message.c_str());
  std::fprintf(
      stderr,
      "usage: rrf_bench [--quick|--full|--scale] [--out PATH]\n"
      "                 [--policies a,b,c] [--sweep NxVxT]... [--trials N]\n"
      "                 [--warmup N] [--windows N] [--seed N] [--actuators]\n"
      "                 [--parallel] [--shards a,b,...] [--profile]\n"
      "                 [--quiet]\n");
  std::exit(2);
}

/// Reads a count flag with tools::parse_number's rules: the whole token
/// is an unsigned number in range ("-1", "3abc" and "1e3" are refused).
/// A bad value exits 2 naming the flag.
template <typename T = std::size_t>
T parse_count(const std::string& flag, const std::string& value) {
  try {
    return tools::parse_number<T>(flag, value);
  } catch (const DomainError& e) {
    usage_error(e.what());
  }
}

/// A count that must be at least 1 (--trials, --windows).
std::size_t parse_positive(const std::string& flag, const std::string& value) {
  const std::size_t n = parse_count(flag, value);
  if (n == 0) usage_error(flag + ": must be at least 1: '" + value + "'");
  return n;
}

std::vector<sim::PolicyKind> parse_policies(const std::string& csv) {
  std::vector<sim::PolicyKind> policies;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string name =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) {
      try {
        policies.push_back(sim::policy_from_string(name));
      } catch (const std::exception&) {
        usage_error("unknown policy in --policies: " + name);
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (policies.empty()) usage_error("empty --policies list");
  return policies;
}

std::vector<std::size_t> parse_shards(const std::string& csv) {
  std::vector<std::size_t> shards;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string cell =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!cell.empty()) shards.push_back(parse_count("--shards", cell));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (shards.empty()) usage_error("empty --shards list");
  return shards;
}

bench::SweepPoint parse_sweep(const std::string& spec) {
  bench::SweepPoint point{};
  const std::size_t x1 = spec.find('x');
  const std::size_t x2 = x1 == std::string::npos ? std::string::npos
                                                 : spec.find('x', x1 + 1);
  if (x1 == std::string::npos || x2 == std::string::npos) {
    usage_error("bad --sweep spec (want NxVxT): " + spec);
  }
  point.nodes = parse_count("--sweep", spec.substr(0, x1));
  point.vms_per_node = parse_count("--sweep", spec.substr(x1 + 1, x2 - x1 - 1));
  point.tenants = parse_count("--sweep", spec.substr(x2 + 1));
  // The synthetic builder's cell: every count >= 1, and no more tenants
  // than the N*V VMs.
  const bool vms_fit =
      point.nodes > 0 && point.vms_per_node > 0 &&
      point.vms_per_node <= std::numeric_limits<std::size_t>::max() /
                                point.nodes;
  if (!vms_fit || point.tenants == 0 ||
      point.tenants > point.nodes * point.vms_per_node) {
    usage_error("--sweep: a cell needs N, V >= 1 and 1 <= T <= N*V: '" +
                spec + "'");
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessConfig config = bench::quick_config();
  std::string out_path = "BENCH_rrf.json";
  std::vector<bench::SweepPoint> custom_sweep;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--quick") {
      config = bench::quick_config();
    } else if (arg == "--full") {
      config = bench::full_config();
    } else if (arg == "--scale") {
      config = bench::scale_config();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--policies") {
      config.policies = parse_policies(next());
    } else if (arg == "--sweep") {
      custom_sweep.push_back(parse_sweep(next()));
    } else if (arg == "--trials") {
      config.trials = parse_positive(arg, next());
    } else if (arg == "--warmup") {
      config.warmup = parse_count(arg, next());
    } else if (arg == "--windows") {
      config.windows = parse_positive(arg, next());
    } else if (arg == "--seed") {
      config.seed = parse_count<std::uint64_t>(arg, next());
    } else if (arg == "--actuators") {
      config.use_actuators = true;
    } else if (arg == "--parallel") {
      config.parallel_nodes = true;
    } else if (arg == "--shards") {
      config.shard_counts = parse_shards(next());
      config.parallel_nodes = true;
    } else if (arg == "--profile") {
      config.profile = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else {
      usage_error("unknown flag: " + arg);
    }
  }
  if (!custom_sweep.empty()) {
    config.sweep = custom_sweep;
    config.label = "custom";
  }

  try {
    const bench::Report report =
        bench::run_harness(config, quiet ? nullptr : &std::cerr);
    const json::Value doc = bench::report_to_json(report);
    bench::validate_report_json(doc);  // self-check before writing
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "rrf_bench: cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << doc.dump(2);
    std::cout << bench::report_summary(report);
    std::cout << "wrote " << out_path << "\n";
    if (config.profile) {
      const std::size_t dot = out_path.rfind('.');
      const std::string folded_path =
          (dot == std::string::npos ? out_path : out_path.substr(0, dot)) +
          ".folded";
      std::ofstream folded(folded_path);
      if (!folded) {
        std::fprintf(stderr, "rrf_bench: cannot open %s\n",
                     folded_path.c_str());
        return 1;
      }
      bench::write_collapsed_profile(folded, report.profile);
      std::cout << "wrote " << folded_path << "\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrf_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
