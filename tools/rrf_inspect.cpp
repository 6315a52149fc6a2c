// rrf_inspect — provenance tooling over flight recordings (schema v1).
//
//   rrf_inspect replay  <recording.jsonl>              # verify determinism
//   rrf_inspect diff    <a.jsonl> <b.jsonl> [--epsilon <f>]
//   rrf_inspect explain <recording.jsonl> --round <n> --tenant <name|idx>
//                       [--node <n>]
//   rrf_inspect journal <telemetry.jsonl> [--tail <n>]   # validate/summarize
//   rrf_inspect incident validate|summarize|explain <bundle-dir>
//
// `replay` re-runs the recording through the deterministic engine (or the
// one-shot allocation path for "alloc" recordings) and exits 1 if any
// allocation diverges.  `diff` compares two recordings round by round
// and reports the first divergence plus per-tenant entitlement deltas.
// `explain` prints the full decision chain for one round + tenant: demand
// → prediction → IRT contribution/gain (Algorithm 1 line references) →
// IWA flows → final entitlement and actuator targets.
//
// Exit codes: 0 ok; 1 a real mismatch (replay or diff found differing
// allocations, or `incident validate` found problems in a bundle that
// loaded); 2 bad usage or input that could not be loaded (missing,
// unreadable or malformed file, bad flag value).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "sim/flight_replay.hpp"

namespace {

using namespace rrf;

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_inspect — replay / diff / explain flight recordings (RRF)\n\n"
      "  rrf_inspect replay  <recording.jsonl>\n"
      "      re-run the recording through the engine; exit 1 if any\n"
      "      allocation differs from what was recorded\n\n"
      "  rrf_inspect diff    <a.jsonl> <b.jsonl> [--epsilon <f>]\n"
      "      compare two recordings round by round; report the first\n"
      "      divergence and per-tenant entitlement deltas (exit 1 when\n"
      "      they differ beyond the tolerance, default 0 = bit-exact)\n\n"
      "  rrf_inspect explain <recording.jsonl> --round <n>\n"
      "                      --tenant <name|index> [--node <n>]\n"
      "      print the decision chain for one round + tenant: demand,\n"
      "      prediction, IRT contribution trading (Algorithm 1 lines),\n"
      "      IWA flows, final entitlement and actuator targets\n\n"
      "  rrf_inspect journal <telemetry.jsonl> [--tail <n>]\n"
      "      validate and summarize a telemetry journal (rounds, alert\n"
      "      transitions, fairness ranges, each incident's open and resolve\n"
      "      windows and kinds, clean-shutdown state); --tail prints the\n"
      "      last <n> round records\n\n"
      "  rrf_inspect incident validate <bundle-dir>\n"
      "      check an incident bundle end to end: manifest schema, every\n"
      "      listed file present and parseable; exit 1 when a bundle that\n"
      "      loaded lists violations\n\n"
      "  rrf_inspect incident summarize <bundle-dir>\n"
      "      one-screen digest: state, severity, detector kinds,\n"
      "      implicated tenants, captured rounds and build provenance\n\n"
      "  rrf_inspect incident explain <bundle-dir>\n"
      "      per-tenant narrative from the captured evidence: which\n"
      "      detectors implicated whom, share vs demand over the\n"
      "      evidence window, reciprocity flows\n\n"
      "Every subcommand exits 2 when an input cannot be loaded (missing,\n"
      "unreadable or malformed) or a flag value is bad, so a corrupt\n"
      "artifact never looks like a mismatch.\n";
  std::exit(code);
}

std::string format_num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

void print_diff(const obs::FlightDiffResult& diff) {
  for (const std::string& note : diff.notes) {
    std::cout << "note: " << note << "\n";
  }
  if (diff.identical) {
    std::cout << "identical: " << diff.rounds_compared
              << " round(s) compared, every field bit-exact\n";
    return;
  }
  if (diff.first_divergent_round.has_value()) {
    std::cout << "first divergence at round " << *diff.first_divergent_round
              << ": " << diff.first_divergence << "\n";
  } else if (!diff.first_divergence.empty()) {
    std::cout << "divergence: " << diff.first_divergence << "\n";
  }
  if (!diff.tenant_deltas.empty()) {
    std::cout << "per-tenant entitlement deltas over "
              << diff.rounds_compared << " compared round(s):\n";
    for (const obs::FlightTenantDelta& d : diff.tenant_deltas) {
      std::cout << "  " << (d.name.empty() ? "#" + std::to_string(d.tenant)
                                           : d.name)
                << ": max |delta| " << format_num(d.max_abs)
                << " shares, total |delta| " << format_num(d.total_abs)
                << "\n";
    }
  }
}

int cmd_replay(const std::vector<std::string>& args) {
  if (args.size() != 1) usage(2);
  const obs::FlightRecording recording = obs::FlightRecording::load_file(
      args[0]);
  if (!recording.trailer.has_value()) {
    std::cout << "note: no trailer — the run was killed or is still writing";
    if (recording.truncated_tail) std::cout << " (truncated final line)";
    std::cout << "\n";
  }
  const sim::ReplayResult result = sim::replay_recording(recording);
  std::cout << "replayed " << result.rounds_replayed << " round(s) of "
            << recording.header.kind << "-kind recording (policy "
            << recording.header.policy << ")\n";
  print_diff(result.diff);
  return result.diff.identical ? 0 : 1;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  double epsilon = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--epsilon") {
      if (i + 1 >= args.size()) usage(2);
      epsilon = tools::parse_number<double>("--epsilon", args[++i]);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) usage(2);
  const obs::FlightRecording a = obs::FlightRecording::load_file(paths[0]);
  const obs::FlightRecording b = obs::FlightRecording::load_file(paths[1]);
  const obs::FlightDiffResult diff = obs::diff_recordings(a, b, epsilon);
  print_diff(diff);
  return diff.identical ? 0 : 1;
}

int cmd_explain(const std::vector<std::string>& args) {
  std::string path;
  obs::ExplainQuery query;
  bool have_round = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) usage(2);
      return args[++i];
    };
    if (args[i] == "--round") {
      query.round = tools::parse_number<std::size_t>("--round", next());
      have_round = true;
    } else if (args[i] == "--tenant") {
      query.tenant = next();
    } else if (args[i] == "--node") {
      query.node = tools::parse_number<std::size_t>("--node", next());
    } else if (path.empty()) {
      path = args[i];
    } else {
      usage(2);
    }
  }
  if (path.empty() || query.tenant.empty()) usage(2);
  if (!have_round) query.round = 0;
  const obs::FlightRecording recording =
      obs::FlightRecording::load_file(path);
  std::cout << obs::explain_decision(recording, query);
  return 0;
}

int cmd_journal(const std::vector<std::string>& args) {
  std::string path;
  std::size_t tail = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tail") {
      if (i + 1 >= args.size()) usage(2);
      tail = tools::parse_number<std::size_t>("--tail", args[++i]);
    } else if (path.empty()) {
      path = args[i];
    } else {
      usage(2);
    }
  }
  if (path.empty()) usage(2);
  const obs::JournalData journal = obs::JournalData::load_file(path);
  for (const std::string& note : journal.notes) {
    std::cout << "note: " << note << "\n";
  }
  std::cout << "telemetry journal: kind " << journal.header.kind
            << ", policy " << journal.header.policy << ", "
            << journal.header.tenants.size() << " tenant(s)\n";
  std::cout << "  rounds: " << journal.rounds.size()
            << ", alert transitions: " << journal.alerts.size()
            << ", incident transitions: " << journal.incidents.size() << "\n";
  if (!journal.rounds.empty()) {
    double jain_lo = journal.rounds.front().jain;
    double jain_hi = jain_lo;
    for (const obs::RoundSummary& round : journal.rounds) {
      jain_lo = std::min(jain_lo, round.jain);
      jain_hi = std::max(jain_hi, round.jain);
    }
    std::cout << "  windows " << journal.rounds.front().window << ".."
              << journal.rounds.back().window << ", jain "
              << format_num(jain_lo) << ".." << format_num(jain_hi) << "\n";
  }
  std::size_t raised = 0;
  for (const obs::JournalAlert& alert : journal.alerts) {
    if (alert.raised) ++raised;
  }
  if (!journal.alerts.empty()) {
    std::cout << "  alerts: " << raised << " raised, "
              << journal.alerts.size() - raised << " resolved\n";
  }
  // One line per incident: its open record, and its resolve record when
  // the run saw it resolve (the later record carries the final kinds).
  for (const obs::JournalIncident& opened : journal.incidents) {
    if (!opened.opened) continue;
    const auto resolved = std::find_if(
        journal.incidents.begin(), journal.incidents.end(),
        [&](const obs::JournalIncident& r) {
          return !r.opened && r.id == opened.id;
        });
    const bool done = resolved != journal.incidents.end();
    const obs::JournalIncident& last = done ? *resolved : opened;
    std::cout << "  incident " << opened.id << " [" << last.severity
              << "]: opened w" << opened.window;
    if (done) {
      std::cout << ", resolved w" << resolved->window;
    } else {
      std::cout << ", still open";
    }
    std::cout << ", kinds ";
    for (std::size_t k = 0; k < last.kinds.size(); ++k) {
      std::cout << (k > 0 ? "+" : "") << last.kinds[k];
    }
    std::cout << "\n";
  }
  if (journal.end.has_value()) {
    std::cout << "  clean shutdown (end record: " << journal.end->rounds
              << " rounds, " << journal.end->alerts << " alert transitions, "
              << journal.end->incidents << " incident transitions)\n";
  } else {
    std::cout << "  no end record — the run was killed or is still "
                 "writing";
    if (journal.truncated_tail) std::cout << " (truncated final line)";
    std::cout << "\n";
  }
  if (tail > 0) {
    const std::size_t begin =
        journal.rounds.size() > tail ? journal.rounds.size() - tail : 0;
    for (std::size_t i = begin; i < journal.rounds.size(); ++i) {
      std::cout << obs::round_summary_to_json(journal.rounds[i]).dump()
                << "\n";
    }
  }
  return 0;
}

// ---- incident bundles ----

std::string manifest_str(const json::Value& manifest, const char* key) {
  const json::Value* v = manifest.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "?";
}

std::string joined_kinds(const json::Value* kinds) {
  if (kinds == nullptr || !kinds->is_array()) return "?";
  std::string out;
  for (const json::Value& k : kinds->as_array()) {
    if (!k.is_string()) continue;
    if (!out.empty()) out += "+";
    out += k.as_string();
  }
  return out.empty() ? "none" : out;
}

double series_mean(const json::Value* series) {
  if (series == nullptr || !series->is_array() || series->as_array().empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const json::Value& v : series->as_array()) {
    if (v.is_number()) sum += v.as_number();
  }
  return sum / static_cast<double>(series->as_array().size());
}

double series_sum(const json::Value* series) {
  if (series == nullptr || !series->is_array()) return 0.0;
  double sum = 0.0;
  for (const json::Value& v : series->as_array()) {
    if (v.is_number()) sum += v.as_number();
  }
  return sum;
}

int cmd_incident_validate(const obs::IncidentBundle& bundle,
                          const std::string& dir) {
  if (bundle.valid()) {
    const json::Value* files = bundle.manifest.find("files");
    std::cout << "valid incident bundle " << manifest_str(bundle.manifest, "id")
              << " (" << dir << "): manifest ok, "
              << (files != nullptr && files->is_object()
                      ? files->as_object().size()
                      : 0)
              << " file(s) present and parseable, " << bundle.rounds.size()
              << " captured round(s)\n";
    return 0;
  }
  for (const std::string& problem : bundle.problems) {
    std::cout << "violation: " << problem << "\n";
  }
  std::cout << bundle.problems.size() << " violation(s)\n";
  return 1;
}

int cmd_incident_summarize(const obs::IncidentBundle& bundle) {
  const json::Value& m = bundle.manifest;
  std::cout << "incident " << manifest_str(m, "id") << " ["
            << manifest_str(m, "severity") << "] " << manifest_str(m, "state")
            << "\n";
  const json::Value* opened = m.find("opened_window");
  const json::Value* firing = m.find("firing_rounds");
  const json::Value* detections = m.find("detections");
  std::cout << "  opened at window "
            << (opened != nullptr && opened->is_number()
                    ? format_num(opened->as_number())
                    : "?")
            << ", " << (firing != nullptr && firing->is_number()
                            ? format_num(firing->as_number())
                            : "?")
            << " firing round(s), "
            << (detections != nullptr && detections->is_number()
                    ? format_num(detections->as_number())
                    : "?")
            << " detection(s)\n";
  std::cout << "  kinds: " << joined_kinds(m.find("kinds")) << "\n";
  const json::Value* tenants = m.find("tenants");
  if (tenants != nullptr && tenants->is_array() &&
      !tenants->as_array().empty()) {
    std::cout << "  implicated tenants:\n";
    for (const json::Value& t : tenants->as_array()) {
      if (!t.is_object()) continue;
      const json::Value* name = t.find("tenant");
      const json::Value* count = t.find("detections");
      std::cout << "    "
                << (name != nullptr && name->is_string() ? name->as_string()
                                                         : "?")
                << " (" << joined_kinds(t.find("kinds")) << ", "
                << (count != nullptr && count->is_number()
                        ? format_num(count->as_number())
                        : "?")
                << " detection(s))\n";
    }
  } else {
    std::cout << "  implicated tenants: none (cluster-wide signals only)\n";
  }
  if (!bundle.rounds.empty()) {
    double jain_lo = bundle.rounds.front().jain;
    double jain_hi = jain_lo;
    for (const obs::RoundSummary& round : bundle.rounds) {
      jain_lo = std::min(jain_lo, round.jain);
      jain_hi = std::max(jain_hi, round.jain);
    }
    std::cout << "  captured rounds: " << bundle.rounds.size() << " (windows "
              << bundle.rounds.front().window << ".."
              << bundle.rounds.back().window << ", jain "
              << format_num(jain_lo) << ".." << format_num(jain_hi) << ")\n";
  }
  const json::Value* build = m.find("build");
  if (build != nullptr && build->is_object()) {
    std::cout << "  build: " << manifest_str(*build, "git") << " ("
              << manifest_str(*build, "compiler") << ", "
              << manifest_str(*build, "build_type") << ", contracts "
              << manifest_str(*build, "contracts") << ")\n";
  }
  const json::Value* metadata = m.find("metadata");
  if (metadata != nullptr && metadata->is_object() &&
      !metadata->as_object().empty()) {
    std::cout << "  run:";
    for (const auto& [k, v] : metadata->as_object()) {
      if (v.is_string()) std::cout << " " << k << "=" << v.as_string();
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_incident_explain(const obs::IncidentBundle& bundle) {
  const json::Value& m = bundle.manifest;
  std::cout << "incident " << manifest_str(m, "id") << ": detectors "
            << joined_kinds(m.find("kinds")) << " fired over the captured "
            << bundle.rounds.size() << " round(s)\n\n";
  const json::Value* tenants = m.find("tenants");
  if (tenants == nullptr || !tenants->is_array() ||
      tenants->as_array().empty()) {
    std::cout << "No tenant was individually implicated: every signal was\n"
                 "cluster-wide (Jain fairness or allocator throughput).\n";
    return 0;
  }
  // Evidence series per tenant name, when evidence.json made it into the
  // bundle.
  const json::Value* evidence_tenants =
      bundle.evidence.is_object() ? bundle.evidence.find("tenants") : nullptr;
  for (const json::Value& t : tenants->as_array()) {
    if (!t.is_object()) continue;
    const std::string name = manifest_str(t, "tenant");
    std::cout << name << ":\n";
    std::cout << "  implicated by " << joined_kinds(t.find("kinds"));
    const json::Value* count = t.find("detections");
    if (count != nullptr && count->is_number()) {
      std::cout << " across " << format_num(count->as_number())
                << " detection(s)";
    }
    std::cout << "\n";
    const json::Value* value = t.find("last_value");
    const json::Value* threshold = t.find("last_threshold");
    if (value != nullptr && value->is_number() && threshold != nullptr &&
        threshold->is_number()) {
      std::cout << "  last reading " << format_num(value->as_number())
                << " against threshold " << format_num(threshold->as_number())
                << "\n";
    }
    if (evidence_tenants != nullptr && evidence_tenants->is_array()) {
      for (const json::Value& e : evidence_tenants->as_array()) {
        if (!e.is_object() || manifest_str(e, "tenant") != name) continue;
        // "granted" (entitlement actually handed down) is the starvation
        // signal; bundles predating it carry only the ledger "share".
        const json::Value* granted = e.find("granted");
        const double share =
            series_mean(granted != nullptr ? granted : e.find("share"));
        const double demand = series_mean(e.find("demand"));
        const double contributed = series_sum(e.find("contributed"));
        const double gained = series_sum(e.find("gained"));
        std::cout << "  over the evidence window it held "
                  << format_num(share * 100.0) << "% of its entitlement while "
                  << "demanding " << format_num(demand * 100.0) << "%";
        if (demand > 1e-9 && share < demand) {
          std::cout << " — a " << format_num((demand - share) * 100.0)
                    << "-point deficit";
        }
        std::cout << "\n  reciprocity ledger: contributed "
                  << format_num(contributed) << " shares, gained back "
                  << format_num(gained) << " shares";
        if (contributed > gained) {
          std::cout << " (net contributor: its complaint is justified)";
        }
        std::cout << "\n";
        break;
      }
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_incident(const std::vector<std::string>& args) {
  if (args.size() != 2) usage(2);
  const std::string& action = args[0];
  if (action != "validate" && action != "summarize" && action != "explain") {
    usage(2);
  }
  const obs::IncidentBundle bundle = obs::IncidentBundle::load_dir(args[1]);
  if (action == "validate") return cmd_incident_validate(bundle, args[1]);
  if (action == "summarize") return cmd_incident_summarize(bundle);
  return cmd_incident_explain(bundle);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string verb = argv[1];
  if (verb == "--help" || verb == "-h") usage(0);
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (verb == "replay") return cmd_replay(args);
    if (verb == "diff") return cmd_diff(args);
    if (verb == "explain") return cmd_explain(args);
    if (verb == "journal") return cmd_journal(args);
    if (verb == "incident") return cmd_incident(args);
  } catch (const std::exception& e) {
    // Every load error and bad flag value lands here: exit 2, never the
    // mismatch code 1.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "unknown subcommand: " << verb << "\n";
  usage(2);
}
