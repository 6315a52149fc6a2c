// rrf_alloc_cli — run a single allocation round on entities from a CSV.
//
//   rrf_alloc_cli --policy rrf --capacity 2000,2000 entities.csv
//   cat entities.csv | rrf_alloc_cli --policy wmmf --capacity 2000,2000 -
//
// CSV format: name,share_0,...,demand_0,...  (see alloc/entity_io.hpp).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "alloc/entity_io.hpp"
#include "alloc/flight_capture.hpp"
#include "cli_util.hpp"
#include "obs/flightrec.hpp"

namespace {

using namespace rrf;

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_alloc_cli — one-shot multi-resource allocation (RRF, SC'14)\n\n"
      "  rrf_alloc_cli [--policy <name>] --capacity <v0,v1,...> <csv|- >\n\n"
      "  --policy    " << alloc::join_policy_names("|") << " (default rrf)\n"
      "  --capacity  pool capacity per resource type, comma separated\n"
      "              (same arity as the CSV's share/demand columns)\n"
      "  --record <path>   capture a schema-v1 flight recording (JSONL) of\n"
      "                    the round, including the IRT Algorithm-1 trace;\n"
      "                    replay/explain it with rrf_inspect\n"
      "  --trace <path>    record allocation events; Chrome trace JSON, or\n"
      "                    JSONL if the path ends in .jsonl\n"
      "  --metrics <path>  write a metrics snapshot; JSON, or CSV/.prom by\n"
      "                    extension (Prometheus text format for .prom)\n"
      "  --profile <path>  attach the hierarchical profiler to the round;\n"
      "                    Chrome trace JSON if the path ends in .json,\n"
      "                    collapsed-stack flamegraph text otherwise\n"
      "  <csv>       entity file, or '-' for stdin\n";
  std::exit(code);
}

/// `--capacity v0,v1,...`: one finite number per resource type, at most
/// ResourceVector::kInlineCapacity of them; throws DomainError naming
/// the flag otherwise.
ResourceVector parse_capacity(const std::string& text) {
  std::vector<double> values;
  std::stringstream ss(text);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    values.push_back(tools::parse_number<double>("--capacity", cell));
  }
  if (values.empty()) usage(2);
  if (values.size() > ResourceVector::kInlineCapacity) {
    throw DomainError("--capacity: " + std::to_string(values.size()) +
                      " resource types exceed the limit of " +
                      std::to_string(ResourceVector::kInlineCapacity));
  }
  return ResourceVector(std::span<const double>(values));
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_name = "rrf";
  std::string capacity_text;
  std::string input_path;
  std::string record_path;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(2);
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--policy") policy_name = next();
      else if (arg == "--capacity") capacity_text = next();
      else if (arg == "--record") record_path = next();
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--metrics") metrics_path = next();
      else if (arg == "--profile") profile_path = next();
      else if (input_path.empty()) {
        input_path = arg;
      } else {
        usage(2);
      }
    }
  } catch (const DomainError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (capacity_text.empty() || input_path.empty()) usage(2);
  const alloc::Policy& policy = tools::policy_or_exit("rrf_alloc_cli",
                                                      policy_name);

  // Bad input (capacity, entity CSV, non-finite or negative values) exits
  // 2 before anything runs.
  ResourceVector capacity;
  std::vector<alloc::AllocationEntity> entities;
  try {
    capacity = parse_capacity(capacity_text);
    if (input_path == "-") {
      entities = alloc::read_entities_csv(std::cin);
    } else {
      std::ifstream in(input_path);
      if (!in) throw DomainError("cannot open " + input_path);
      entities = alloc::read_entities_csv(in);
    }
    alloc::validate_entities(capacity, entities);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    // Opened before the round: an unwritable path exits 2 at once.
    tools::ObservabilityOutputs outputs(trace_path, profile_path,
                                        metrics_path);
    tools::enable_observability(!trace_path.empty(), !metrics_path.empty(),
                                !profile_path.empty());
    const alloc::AllocationResult result =
        policy.allocator->allocate(capacity, entities);
    std::cout << "policy: " << policy_name << ", capacity "
              << capacity.to_exact_string() << "\n"
              << alloc::format_result(entities, result);
    if (!record_path.empty()) {
      // Re-running the (deterministic) policy under a provenance scope
      // yields the same entitlements plus the IRT Algorithm-1 breakdown.
      const obs::FlightRecording recording =
          alloc::capture_alloc_round(policy_name, capacity, entities);
      std::ofstream out = tools::open_output(record_path);
      obs::FlightRecorder recorder(out);
      recorder.write_recording(recording);
      std::cout << "wrote " << record_path << " ("
                << recorder.bytes_written() << " bytes)\n";
    }
    outputs.write();
  } catch (const std::exception& e) {
    // A failed write (full disk, unwritable path) exits 2, like any tool.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
