// rrf_verify — property-based verifier for the allocation stack.
//
// Drives fixed-seed randomized scenario sweeps (sim/synthetic and the
// alloc/properties generators) through every sharing policy with
// audit-mode contracts armed, and checks:
//
//  * determinism — every allocator produces bit-identical results when
//    called twice on the same inputs, IRT's binary and linear boundary
//    searches agree bit-for-bit, and a full engine run recorded through
//    the flight recorder produces byte-identical JSONL across two runs;
//  * fairness predicates — the paper's Table III properties that each
//    policy is supposed to satisfy (sharing incentive, gain-as-you-
//    contribute, strategy-proofness, capacity safety) hold over the sweep;
//  * contracts — no paper-derived invariant (common/contract.hpp sites)
//    fires anywhere in the sweep.  Contract audit requires a build with
//    contracts compiled in (Debug or -DRRF_CONTRACTS=ON); the report says
//    whether they were.
//
// Emits a schema-checked JSON report ("rrf-verify" v1) to --out (default
// stdout) and exits nonzero on any violation.  Everything is seeded from
// --seed-base, so CI failures reproduce locally with the same flags.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/irt.hpp"
#include "alloc/policy.hpp"
#include "alloc/properties.hpp"
#include "cli_util.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/contract_bridge.hpp"
#include "obs/flightrec.hpp"
#include "sim/engine.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

namespace {

using namespace rrf;

struct Options {
  std::size_t seeds = 5;
  std::uint64_t seed_base = 1;
  std::vector<std::string> policies;  // empty = all
  double duration = 60.0;
  std::string out_path;  // empty = stdout
  bool quiet = false;
};

struct CheckResult {
  std::string name;    ///< e.g. "engine.determinism"
  std::string policy;  ///< policy under test
  bool pass{true};
  std::string detail;  ///< first failure example / stats
};

[[noreturn]] void usage(int exit_code) {
  std::cerr <<
      "usage: rrf_verify [options]\n"
      "  --seeds N        scenario sweep width per check (default 5)\n"
      "  --seed-base S    base seed; seed i of the sweep is S + i\n"
      "  --policies CSV   restrict to these policies (default: all of\n"
      "                   " << alloc::join_policy_names(",") << ")\n"
      "  --duration SEC   simulated seconds per engine run (default 60)\n"
      "  --out PATH       write the JSON report here (default stdout)\n"
      "  --quiet          suppress the progress log on stderr\n";
  std::exit(exit_code);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "rrf_verify: " << argv[i] << " needs a value\n";
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds") {
      opt.seeds = tools::parse_number<std::size_t>(arg, need_value(i));
    } else if (arg == "--seed-base") {
      opt.seed_base = tools::parse_number<std::uint64_t>(arg, need_value(i));
    } else if (arg == "--policies") {
      std::stringstream ss(need_value(i));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (tok.empty()) continue;
        tools::policy_or_exit("rrf_verify", tok);
        opt.policies.push_back(tok);
      }
    } else if (arg == "--duration") {
      opt.duration = tools::parse_number<double>(arg, need_value(i));
    } else if (arg == "--out") {
      opt.out_path = need_value(i);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "rrf_verify: unknown option " << arg << "\n";
      usage(2);
    }
  }
  if (opt.seeds == 0) {
    std::cerr << "rrf_verify: --seeds must be positive\n";
    usage(2);
  }
  return opt;
}

bool wants(const Options& opt, std::string_view policy) {
  if (opt.policies.empty()) return true;
  for (const std::string& p : opt.policies) {
    if (p == policy) return true;
  }
  return false;
}

// ---- allocator-level sweeps -------------------------------------------

bool bit_identical(const alloc::AllocationResult& a,
                   const alloc::AllocationResult& b) {
  if (a.allocations.size() != b.allocations.size()) return false;
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    for (std::size_t k = 0; k < a.allocations[i].size(); ++k) {
      if (a.allocations[i][k] != b.allocations[i][k]) return false;
    }
  }
  for (std::size_t k = 0; k < a.unallocated.size(); ++k) {
    if (a.unallocated[k] != b.unallocated[k]) return false;
  }
  return true;
}

/// Same scenario allocated twice must give bit-identical results.
CheckResult check_allocator_determinism(const alloc::Policy& policy,
                                        const Options& opt) {
  CheckResult r{"alloc.determinism", std::string(policy.name), true, ""};
  const alloc::Allocator* allocator = policy.allocator;
  for (std::size_t s = 0; s < opt.seeds; ++s) {
    Rng rng(opt.seed_base + s);
    for (int trial = 0; trial < 8; ++trial) {
      ResourceVector capacity;
      const std::vector<alloc::AllocationEntity> entities =
          alloc::random_scenario(rng, {}, &capacity);
      const alloc::AllocationResult first =
          allocator->allocate(capacity, entities);
      const alloc::AllocationResult second =
          allocator->allocate(capacity, entities);
      if (!bit_identical(first, second)) {
        r.pass = false;
        r.detail = "seed " + std::to_string(opt.seed_base + s) + " trial " +
                   std::to_string(trial) + ": repeat call differed";
        return r;
      }
    }
  }
  r.detail = std::to_string(opt.seeds * 8) + " double-calls bit-identical";
  return r;
}

/// IRT's binary boundary search must agree bit-for-bit with the linear
/// scan it replaced (the monotonicity argument, checked end to end).
CheckResult check_irt_search_equivalence(const Options& opt) {
  CheckResult r{"irt.binary_equals_linear", "irt", true, ""};
  alloc::IrtOptions linear;
  linear.search = alloc::IrtOptions::Search::kLinear;
  const alloc::IrtAllocator binary_alloc{};
  const alloc::IrtAllocator linear_alloc{linear};
  for (std::size_t s = 0; s < opt.seeds; ++s) {
    Rng rng(opt.seed_base + s);
    for (int trial = 0; trial < 8; ++trial) {
      ResourceVector capacity;
      const std::vector<alloc::AllocationEntity> entities =
          alloc::random_scenario(rng, {}, &capacity);
      const alloc::AllocationResult b =
          binary_alloc.allocate(capacity, entities);
      const alloc::AllocationResult l =
          linear_alloc.allocate(capacity, entities);
      if (!bit_identical(b, l)) {
        r.pass = false;
        r.detail = "seed " + std::to_string(opt.seed_base + s) + " trial " +
                   std::to_string(trial) + ": binary and linear differ";
        return r;
      }
    }
  }
  r.detail = std::to_string(opt.seeds * 8) + " scenarios agree";
  return r;
}

CheckResult from_report(const std::string& name, const std::string& policy,
                        const alloc::PropertyReport& report) {
  CheckResult r{name, policy, true, ""};
  r.pass = report.holds();
  if (!r.pass) {
    r.detail = std::to_string(report.violations) + "/" +
               std::to_string(report.trials) + " violations; first: " +
               report.first_example;
  } else {
    r.detail = std::to_string(report.trials) + " trials clean";
  }
  return r;
}

/// Paper Table III: the fairness predicates each policy must satisfy.
void run_property_sweeps(const Options& opt, std::vector<CheckResult>& out) {
  using enum alloc::PolicyKind;
  const std::size_t trials = opt.seeds * 10;
  for (const alloc::Policy& row : alloc::policies()) {
    if (!wants(opt, row.name)) continue;
    const std::string name(row.name);
    const alloc::Allocator& policy = *row.allocator;
    const alloc::PolicyKind kind = row.kind;
    Rng rng(opt.seed_base);
    out.push_back(from_report(
        "alloc.capacity_safety", name,
        alloc::check_capacity_safety(policy, rng.fork(1), trials)));
    // Sharing incentive holds for every scheme except canonical DRF
    // (frozen users on exhausted resources can fall below their static
    // partition) and the paper's sequential-DRF arithmetic.
    if (kind != kDrf && kind != kDrfSeq) {
      out.push_back(from_report(
          "alloc.sharing_incentive", name,
          alloc::check_sharing_incentive(policy, rng.fork(2), trials)));
    }
    // Gain-as-you-contribute is RRF's defining property (WMMF/DRF fail
    // it by design; the sp variant's budget caps trade it away).  Flat
    // rrf-lt is plain RRF on a zero bank.
    const bool plain_irt = kind == kIrt || kind == kRrf || kind == kRrfLt;
    if (plain_irt) {
      out.push_back(from_report(
          "alloc.gain_as_you_contribute", name,
          alloc::check_gain_as_you_contribute(policy, rng.fork(3), trials)));
    }
    // Strategy-proofness: full for the static partition, IWA alone (each
    // entity keeps at most its own share) and the sp variant; plain RRF
    // resists over-reporting only (Theorem 3).
    if (kind == kTshirt || kind == kIwaOnly || kind == kRrfSp) {
      out.push_back(from_report(
          "alloc.strategy_proofness", name,
          alloc::check_strategy_proofness(policy, rng.fork(4), trials)));
    } else if (plain_irt) {
      out.push_back(from_report(
          "alloc.strategy_proofness_overreport", name,
          alloc::check_strategy_proofness(policy, rng.fork(4), trials, {},
                                          alloc::Manipulation::kOverReport)));
    }
    out.push_back(check_allocator_determinism(row, opt));
  }
  if (wants(opt, "irt")) out.push_back(check_irt_search_equivalence(opt));
}

// ---- engine-level determinism -----------------------------------------

std::string record_engine_run(const sim::Scenario& scenario,
                              sim::EngineConfig config) {
  std::ostringstream bytes;
  obs::FlightRecorder recorder(bytes);
  recorder.write_header(sim::make_flight_header(scenario, config));
  config.flight = &recorder;
  sim::run_simulation(scenario, config);
  recorder.finish();
  return bytes.str();
}

/// Two engine runs on the same scenario must serialize byte-identical
/// flight recordings (every demand, forecast, entitlement and actuator
/// target, in shortest-round-trip double form).
void run_engine_determinism(const Options& opt,
                            std::vector<CheckResult>& out) {
  // Two cluster shapes; sweeping seeds varies the demand phases.  The
  // second sells 2.5x each host's capacity: every policy must still stay
  // inside the host (the engine.node_capacity_safe contract).
  struct Cell {
    std::size_t nodes, vms_per_node, tenants;
    double overcommit;
  };
  const Cell cells[] = {{3, 6, 3, 1.0}, {4, 8, 4, 2.5}};
  for (const alloc::Policy& policy : alloc::policies()) {
    if (!wants(opt, policy.name)) continue;
    CheckResult r{"engine.determinism", std::string(policy.name), true, ""};
    std::size_t runs = 0;
    for (std::size_t s = 0; s < opt.seeds && r.pass; ++s) {
      for (const Cell& cell : cells) {
        sim::SyntheticConfig syn;
        syn.nodes = cell.nodes;
        syn.vms_per_node = cell.vms_per_node;
        syn.tenants = cell.tenants;
        syn.overcommit = cell.overcommit;
        syn.seed = opt.seed_base + s;
        const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

        sim::EngineConfig config;
        config.policy = policy.kind;
        config.duration = opt.duration;
        config.parallel_nodes = true;
        const std::string first = record_engine_run(scenario, config);
        const std::string second = record_engine_run(scenario, config);
        ++runs;
        if (first != second) {
          r.pass = false;
          r.detail = "seed " + std::to_string(syn.seed) + ", overcommit " +
                     json::Value(cell.overcommit).dump() +
                     ": flight recordings of " +
                     std::to_string(first.size()) +
                     " bytes differ between runs";
          break;
        }
      }
    }
    if (r.pass) {
      r.detail = std::to_string(runs) + " double-runs byte-identical";
    }
    out.push_back(r);
  }
}

/// The round lines of a JSONL recording: everything between the header
/// line and the trailer line.  Both legitimately differ across execution
/// modes — the header embeds parallel_nodes and the shard count, and the
/// trailer's byte tally includes the header's length — while the rounds
/// carry every allocation-relevant value and must be byte-identical.
std::string_view recording_rounds(const std::string& recording) {
  std::string_view v(recording);
  const std::size_t header_end = v.find('\n');
  if (header_end != std::string_view::npos) v.remove_prefix(header_end + 1);
  if (v.size() >= 2) {
    const std::size_t trailer = v.rfind('\n', v.size() - 2);
    if (trailer != std::string_view::npos) v = v.substr(0, trailer + 1);
  }
  return v;
}

/// The sharded round must be invisible in results: for every shard count
/// (including counts that do not divide the node count and counts larger
/// than it, which leave tail shards empty) the recorded rounds must be
/// byte-identical to the serial run's.
void run_shard_determinism(const Options& opt,
                           std::vector<CheckResult>& out) {
  const std::size_t shard_counts[] = {1, 2, 3, 7, 16};
  for (const alloc::Policy& policy : alloc::policies()) {
    if (!wants(opt, policy.name)) continue;
    CheckResult r{"engine.shard_determinism", std::string(policy.name), true,
                  ""};
    std::size_t runs = 0;
    for (std::size_t s = 0; s < opt.seeds && r.pass; ++s) {
      sim::SyntheticConfig syn;
      syn.nodes = 13;  // prime: exercises uneven and empty-shard splits
      syn.vms_per_node = 4;
      syn.tenants = 3;
      syn.seed = opt.seed_base + s;
      const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

      sim::EngineConfig config;
      config.policy = policy.kind;
      config.duration = opt.duration;
      config.parallel_nodes = false;
      const std::string serial = record_engine_run(scenario, config);
      config.parallel_nodes = true;
      for (const std::size_t shards : shard_counts) {
        config.shards = shards;
        const std::string sharded = record_engine_run(scenario, config);
        ++runs;
        if (recording_rounds(sharded) != recording_rounds(serial)) {
          r.pass = false;
          r.detail = "seed " + std::to_string(syn.seed) + ", shards " +
                     std::to_string(shards) +
                     ": recording diverges from the serial run";
          break;
        }
      }
    }
    if (r.pass) {
      r.detail = std::to_string(runs) + " sharded runs match serial";
    }
    out.push_back(r);
  }
}

// ---- report -----------------------------------------------------------

json::Value build_report(const Options& opt,
                         const std::vector<CheckResult>& checks) {
  json::Array check_values;
  std::size_t failures = 0;
  for (const CheckResult& c : checks) {
    if (!c.pass) ++failures;
    check_values.push_back(json::Value(json::Object{
        {"name", json::Value(c.name)},
        {"policy", json::Value(c.policy)},
        {"status", json::Value(c.pass ? "pass" : "fail")},
        {"detail", json::Value(c.detail)},
    }));
  }
  json::Array sites;
  for (const auto& [site, count] : contract::violation_counts()) {
    sites.push_back(json::Value(json::Object{
        {"site", json::Value(site)},
        {"count", json::Value(static_cast<double>(count))},
    }));
  }
  return json::Value(json::Object{
      {"schema", json::Value("rrf-verify")},
      {"version", json::Value(1)},
      {"seed_base", json::Value(static_cast<double>(opt.seed_base))},
      {"seeds", json::Value(opt.seeds)},
      {"duration", json::Value(opt.duration)},
      {"contracts_compiled_in", json::Value(contract::kCompiledIn)},
      {"checks", json::Value(std::move(check_values))},
      {"contract_violations", json::Value(std::move(sites))},
      {"total_contract_violations",
       json::Value(static_cast<double>(contract::total_violations()))},
      {"failures", json::Value(failures)},
  });
}

/// Schema self-check: the report we emit must parse back and carry every
/// required field with the right type (catches writer regressions).
void validate_report(const std::string& text) {
  const json::Value doc = json::Value::parse(text);
  RRF_REQUIRE(doc.is_object(), "report is not an object");
  const json::Value* schema = doc.find("schema");
  RRF_REQUIRE(schema && schema->is_string() &&
                  schema->as_string() == "rrf-verify",
              "report schema tag missing or wrong");
  const json::Value* version = doc.find("version");
  RRF_REQUIRE(version && version->is_number() && version->as_number() == 1,
              "report version missing or wrong");
  for (const char* key : {"seed_base", "seeds", "duration",
                          "total_contract_violations", "failures"}) {
    const json::Value* v = doc.find(key);
    RRF_REQUIRE(v && v->is_number(),
                std::string("report field missing: ") + key);
  }
  const json::Value* compiled = doc.find("contracts_compiled_in");
  RRF_REQUIRE(compiled && compiled->is_bool(),
              "report field missing: contracts_compiled_in");
  for (const char* key : {"checks", "contract_violations"}) {
    const json::Value* v = doc.find(key);
    RRF_REQUIRE(v && v->is_array(),
                std::string("report field missing: ") + key);
  }
  for (const json::Value& c : doc.find("checks")->as_array()) {
    for (const char* key : {"name", "policy", "status", "detail"}) {
      const json::Value* v = c.find(key);
      RRF_REQUIRE(v && v->is_string(),
                  std::string("check field missing: ") + key);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const DomainError& e) {
    std::cerr << "rrf_verify: " << e.what() << "\n";
    return 2;
  }

  // Audit mode: a contract violation is tallied (and, via the bridge,
  // counted in the metrics registry) instead of aborting, so one bad
  // scenario cannot hide the rest of the sweep.
  contract::set_mode(contract::Mode::kAudit);
  contract::reset_violations();
  obs::install_contract_audit_recorder();

  std::vector<CheckResult> checks;
  try {
    if (!opt.quiet) std::cerr << "rrf_verify: property sweeps...\n";
    run_property_sweeps(opt, checks);
    if (!opt.quiet) std::cerr << "rrf_verify: engine determinism...\n";
    run_engine_determinism(opt, checks);
    if (!opt.quiet) std::cerr << "rrf_verify: shard determinism...\n";
    run_shard_determinism(opt, checks);
  } catch (const std::exception& e) {
    // A throw mid-sweep is itself a verification failure: report it
    // rather than dying without a report.
    checks.push_back(
        CheckResult{"verify.exception", "-", false, e.what()});
  }

  // Contracts fired anywhere during the sweep => failure (only possible
  // when the build compiled them in).
  const std::uint64_t contract_hits = contract::total_violations();
  checks.push_back(CheckResult{
      "contracts.audit", "-", contract_hits == 0,
      contract::kCompiledIn
          ? std::to_string(contract_hits) + " violations recorded"
          : "contracts compiled out in this build (see --help)"});

  const json::Value report = build_report(opt, checks);
  const std::string text = report.dump(2);
  validate_report(text);

  if (opt.out_path.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(opt.out_path);
    if (!out) {
      std::cerr << "rrf_verify: cannot write " << opt.out_path << "\n";
      return 2;
    }
    out << text << "\n";
  }

  std::size_t failures = 0;
  for (const CheckResult& c : checks) {
    if (!c.pass) {
      ++failures;
      std::cerr << "FAIL " << c.name << " [" << c.policy << "] "
                << c.detail << "\n";
    }
  }
  if (!opt.quiet) {
    std::cerr << "rrf_verify: " << checks.size() - failures << "/"
              << checks.size() << " checks passed\n";
  }
  return failures == 0 ? 0 : 1;
}
