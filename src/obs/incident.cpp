#include "obs/incident.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/build_info.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace rrf::obs {

namespace {

constexpr const char* kIncidentSchema = "rrf-incident";
constexpr const char* kIncidentsSchema = "rrf-incidents";
constexpr const char* kEvidenceSchema = "rrf-incident-evidence";
constexpr int kIncidentVersion = 1;

std::string incident_id(std::size_t ordinal) {
  std::ostringstream os;
  os << "inc-";
  os.width(4);
  os.fill('0');
  os << ordinal;
  return os.str();
}

json::Array strings_json(const std::vector<std::string>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const std::string& v : values) out.push_back(v);
  return out;
}

void add_kind(std::vector<std::string>& kinds, const char* kind) {
  if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
    kinds.emplace_back(kind);
  }
}

}  // namespace

const char* to_string(IncidentSeverity severity) {
  switch (severity) {
    case IncidentSeverity::kMinor: return "minor";
    case IncidentSeverity::kMajor: return "major";
    case IncidentSeverity::kCritical: return "critical";
  }
  return "minor";
}

IncidentManager::IncidentManager(IncidentConfig config)
    : config_(std::move(config)) {
  RRF_REQUIRE(config_.ring_capacity > 0,
              "incident: the round ring must hold at least one round");
}

void IncidentManager::set_metadata(std::string key, std::string value) {
  MutexLock lock(mu_);
  for (auto& [k, v] : metadata_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  metadata_.emplace_back(std::move(key), std::move(value));
}

void IncidentManager::set_extra_provider(
    std::string filename, std::function<std::string()> provider) {
  MutexLock lock(mu_);
  for (auto& [name, fn] : extras_) {
    if (name == filename) {
      fn = std::move(provider);
      return;
    }
  }
  extras_.emplace_back(std::move(filename), std::move(provider));
}

void IncidentManager::clear_providers() {
  MutexLock lock(mu_);
  extras_.clear();
}

void IncidentManager::ingest_detections(
    Incident& incident, const std::vector<Detection>& detections) {
  for (const Detection& d : detections) {
    ++incident.detections;
    add_kind(incident.kinds, to_string(d.kind));
    if (d.tenant < 0) continue;
    IncidentTenant* entry = nullptr;
    for (IncidentTenant& t : incident.tenants) {
      if (t.name == d.tenant_name) {
        entry = &t;
        break;
      }
    }
    if (entry == nullptr) {
      incident.tenants.emplace_back();
      entry = &incident.tenants.back();
      entry->name = d.tenant_name;
    }
    add_kind(entry->kinds, to_string(d.kind));
    ++entry->detections;
    entry->last_value = d.value;
    entry->last_threshold = d.threshold;
  }
}

IncidentSeverity IncidentManager::severity_of(const Incident& incident) const {
  if (incident.kinds.size() >= 3 || incident.firing_rounds >= 100) {
    return IncidentSeverity::kCritical;
  }
  if (incident.kinds.size() >= 2 || incident.firing_rounds >= 25) {
    return IncidentSeverity::kMajor;
  }
  return IncidentSeverity::kMinor;
}

void IncidentManager::push_event(const Incident& incident, bool opened) {
  events_.push_back(IncidentEvent{
      incident.id, opened,
      opened ? incident.opened_window : incident.resolved_window,
      incident.severity, incident.kinds, incident.dir});
}

void IncidentManager::observe_round(const DetectorBank& bank) {
  MutexLock lock(mu_);
  const RoundSummary& summary = bank.summary();
  round_ring_.push_back(summary);
  while (round_ring_.size() > config_.ring_capacity) round_ring_.pop_front();
  const std::vector<Detection>& detections = bank.detections();
  const bool alerting = bank.active_alerts() > 0;

  if (!incidents_.empty() && incidents_.back().open) {
    Incident& open = incidents_.back();
    if (!alerting) {  // the book's last alert resolved: so does the incident
      open.open = false;
      open.resolved_window = summary.window;
      rewrite_manifest(open);
      push_event(open, /*opened=*/false);
      return;
    }
    if (detections.empty()) return;
    ++open.firing_rounds;
    const IncidentSeverity before = open.severity;
    ingest_detections(open, detections);
    open.severity = severity_of(open);
    if (open.severity != before) rewrite_manifest(open);
    return;
  }
  // The runaway guard: past max_incidents an alert episode opens nothing.
  if (!alerting || incidents_.size() >= config_.max_incidents) return;

  Incident incident;
  incident.id = incident_id(incidents_.size() + 1);
  incident.opened_window = summary.window;
  incident.firing_rounds = 1;
  ingest_detections(incident, detections);
  incident.severity = severity_of(incident);
  if (!config_.dir.empty()) write_bundle(incident, bank);
  push_event(incident, /*opened=*/true);
  log_warn("incident ", incident.id, " opened at window ", summary.window,
           " (", to_string(incident.severity), ")",
           incident.dir.empty() ? "" : " bundle=" + incident.dir);
  incidents_.push_back(std::move(incident));
}

void IncidentManager::finalize() {
  MutexLock lock(mu_);
  if (!incidents_.empty() && incidents_.back().open) {
    rewrite_manifest(incidents_.back());
  }
}

json::Value IncidentManager::incident_to_json(const Incident& incident) const {
  json::Array tenants;
  tenants.reserve(incident.tenants.size());
  for (const IncidentTenant& t : incident.tenants) {
    tenants.push_back(json::Object{
        {"tenant", t.name},
        {"kinds", strings_json(t.kinds)},
        {"detections", t.detections},
        {"last_value", t.last_value},
        {"last_threshold", t.last_threshold},
    });
  }
  json::Object metadata;
  for (const auto& [k, v] : metadata_) metadata.emplace_back(k, v);
  json::Object files;
  for (const auto& [logical, filename] : incident.files) {
    files.emplace_back(logical, filename);
  }
  return json::Object{
      {"schema", kIncidentSchema},
      {"version", kIncidentVersion},
      {"id", incident.id},
      {"state", incident.open ? "open" : "resolved"},
      {"severity", to_string(incident.severity)},
      {"opened_window", incident.opened_window},
      {"resolved_window", incident.resolved_window},
      {"firing_rounds", incident.firing_rounds},
      {"detections", incident.detections},
      {"kinds", strings_json(incident.kinds)},
      {"tenants", std::move(tenants)},
      {"dir", incident.dir},
      {"build", common::build_info_json()},
      {"metadata", std::move(metadata)},
      {"files", std::move(files)},
  };
}

json::Value IncidentManager::evidence_json(const DetectorBank& bank) const {
  // Each tenant's series over the round ring, oldest round first.
  const std::deque<RoundSummary>& ring = round_ring_;
  const auto series = [&ring](std::size_t i, double TenantRoundStat::*field) {
    json::Array out;
    out.reserve(ring.size());
    for (const RoundSummary& round : ring) {
      if (i < round.tenants.size()) out.push_back(round.tenants[i].*field);
    }
    return out;
  };
  json::Array tenants;
  const std::size_t n = ring.empty() ? 0 : ring.front().tenants.size();
  tenants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tenants.push_back(json::Object{
        {"tenant", ring.front().tenants[i].name},
        {"share", series(i, &TenantRoundStat::share)},
        {"granted", series(i, &TenantRoundStat::granted)},
        {"demand", series(i, &TenantRoundStat::demand)},
        {"contributed", series(i, &TenantRoundStat::contributed)},
        {"gained", series(i, &TenantRoundStat::gained)},
    });
  }
  return json::Object{
      {"schema", kEvidenceSchema},
      {"version", kIncidentVersion},
      {"detectors", bank.state_json()},
      {"tenants", std::move(tenants)},
  };
}

void IncidentManager::write_bundle(Incident& incident,
                                   const DetectorBank& bank) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(config_.dir) / incident.id;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    log_warn("incident ", incident.id, ": cannot create bundle dir ",
             dir.string(), ": ", ec.message());
    return;
  }
  incident.dir = dir.string();

  const auto write_file = [&](const std::string& logical,
                              const std::string& filename,
                              const std::string& content) {
    std::ofstream out(dir / filename, std::ios::trunc);
    if (!out) {
      log_warn("incident ", incident.id, ": cannot write ", filename);
      return;
    }
    out << content;
    incident.files.emplace_back(logical, filename);
  };

  std::string rounds;
  for (const RoundSummary& round : round_ring_) {
    rounds += round_summary_to_json(round).dump();
    rounds += '\n';
  }
  write_file("rounds", "rounds.jsonl", rounds);
  write_file("evidence", "evidence.json",
             evidence_json(bank).dump(2) + "\n");
  write_file("alerts", "alerts.json", bank.alerts_document().dump(2) + "\n");

  json::Array sites;
  for (const auto& [site, count] : contract::violation_counts()) {
    sites.push_back(json::Object{{"site", site}, {"count", count}});
  }
  const json::Value contracts = json::Object{
      {"total", contract::total_violations()},
      {"sites", std::move(sites)},
  };
  write_file("contracts", "contracts.json", contracts.dump(2) + "\n");

  if (profiling_enabled()) {
    std::ostringstream folded;
    write_collapsed(folded, profile_snapshot());
    write_file("profile", "profile.folded", folded.str());
  }
  for (const auto& [filename, provider] : extras_) {
    write_file(filename, filename, provider());
  }
  // The manifest goes last so `files` only names what actually exists.
  rewrite_manifest(incident);
}

void IncidentManager::rewrite_manifest(const Incident& incident) const {
  if (incident.dir.empty()) return;
  const std::filesystem::path path =
      std::filesystem::path(incident.dir) / "incident.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("incident ", incident.id, ": cannot write manifest ",
             path.string());
    return;
  }
  out << incident_to_json(incident).dump(2) << '\n';
}

std::string IncidentManager::incidents_json() const {
  MutexLock lock(mu_);
  json::Array list;
  std::size_t open = 0;
  for (const Incident& incident : incidents_) {
    if (incident.open) ++open;
    json::Array tenants;
    for (const IncidentTenant& t : incident.tenants) tenants.push_back(t.name);
    list.push_back(json::Object{
        {"id", incident.id},
        {"state", incident.open ? "open" : "resolved"},
        {"severity", to_string(incident.severity)},
        {"opened_window", incident.opened_window},
        {"resolved_window", incident.resolved_window},
        {"detections", incident.detections},
        {"kinds", strings_json(incident.kinds)},
        {"tenants", std::move(tenants)},
        {"dir", incident.dir},
    });
  }
  const json::Value doc = json::Object{
      {"schema", kIncidentsSchema},
      {"version", kIncidentVersion},
      {"open", open},
      {"total", incidents_.size()},
      {"incidents", std::move(list)},
  };
  return doc.dump();
}

std::optional<std::string> IncidentManager::incident_json(
    const std::string& id) const {
  MutexLock lock(mu_);
  for (const Incident& incident : incidents_) {
    if (incident.id == id) return incident_to_json(incident).dump();
  }
  return std::nullopt;
}

std::vector<IncidentEvent> IncidentManager::events_since(
    std::size_t* cursor) const {
  MutexLock lock(mu_);
  std::vector<IncidentEvent> out;
  for (std::size_t i = *cursor; i < events_.size(); ++i) {
    out.push_back(events_[i]);
  }
  *cursor = events_.size();
  return out;
}

std::size_t IncidentManager::opened_total() const {
  MutexLock lock(mu_);
  return incidents_.size();
}

std::size_t IncidentManager::open_count() const {
  MutexLock lock(mu_);
  std::size_t open = 0;
  for (const Incident& incident : incidents_) {
    if (incident.open) ++open;
  }
  return open;
}

std::vector<Incident> IncidentManager::incidents() const {
  MutexLock lock(mu_);
  return incidents_;
}

// ---------------------------------------------------------------------------
// Offline bundle loading (rrf_inspect incident)
// ---------------------------------------------------------------------------

namespace {

std::optional<std::string> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

/// Records a problem when `key` is absent or fails `ok`; returns the
/// field for further inspection (nullptr when missing).
const json::Value* checked_field(const json::Value& object, const char* key,
                                 bool (json::Value::*ok)() const,
                                 const char* type_name,
                                 std::vector<std::string>& problems) {
  const json::Value* v = object.find(key);
  if (v == nullptr) {
    problems.push_back(std::string("manifest: missing field '") + key + "'");
    return nullptr;
  }
  if (!(v->*ok)()) {
    problems.push_back(std::string("manifest: field '") + key + "' is not " +
                       type_name);
    return nullptr;
  }
  return v;
}

}  // namespace

IncidentBundle IncidentBundle::load_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path root(dir);
  const std::optional<std::string> manifest_text = slurp(root / "incident.json");
  if (!manifest_text.has_value()) {
    throw DomainError("incident: cannot read " +
                      (root / "incident.json").string());
  }
  IncidentBundle bundle;
  try {
    bundle.manifest = json::Value::parse(*manifest_text);
  } catch (const DomainError& e) {
    throw DomainError("incident: incident.json does not parse: " +
                      std::string(e.what()));
  }
  json::check_header(bundle.manifest, kIncidentSchema, kIncidentVersion,
                     [](const std::string& message) {
                       throw DomainError("incident: incident.json: " +
                                         message);
                     });

  auto& problems = bundle.problems;
  checked_field(bundle.manifest, "id", &json::Value::is_string, "a string",
                problems);
  const json::Value* state = checked_field(
      bundle.manifest, "state", &json::Value::is_string, "a string", problems);
  if (state != nullptr && state->as_string() != "open" &&
      state->as_string() != "resolved") {
    problems.push_back("manifest: state '" + state->as_string() +
                       "' is neither 'open' nor 'resolved'");
  }
  const json::Value* severity =
      checked_field(bundle.manifest, "severity", &json::Value::is_string,
                    "a string", problems);
  if (severity != nullptr) {
    const std::string& s = severity->as_string();
    if (s != "minor" && s != "major" && s != "critical") {
      problems.push_back("manifest: unknown severity '" + s + "'");
    }
  }
  checked_field(bundle.manifest, "opened_window", &json::Value::is_number,
                "a number", problems);
  checked_field(bundle.manifest, "firing_rounds", &json::Value::is_number,
                "a number", problems);
  checked_field(bundle.manifest, "detections", &json::Value::is_number,
                "a number", problems);
  checked_field(bundle.manifest, "kinds", &json::Value::is_array, "an array",
                problems);
  checked_field(bundle.manifest, "build", &json::Value::is_object, "an object",
                problems);
  checked_field(bundle.manifest, "metadata", &json::Value::is_object,
                "an object", problems);
  const json::Value* tenants =
      checked_field(bundle.manifest, "tenants", &json::Value::is_array,
                    "an array", problems);
  if (tenants != nullptr) {
    for (const json::Value& t : tenants->as_array()) {
      if (!t.is_object() || t.find("tenant") == nullptr ||
          !t.find("tenant")->is_string() || t.find("kinds") == nullptr ||
          !t.find("kinds")->is_array()) {
        problems.push_back("manifest: malformed tenant entry");
        break;
      }
    }
  }

  const json::Value* files = checked_field(
      bundle.manifest, "files", &json::Value::is_object, "an object", problems);
  if (files == nullptr) return bundle;
  for (const auto& [logical, filename] : files->as_object()) {
    if (!filename.is_string()) {
      problems.push_back("manifest: files." + logical + " is not a string");
      continue;
    }
    const fs::path path = root / filename.as_string();
    const std::optional<std::string> content = slurp(path);
    if (!content.has_value()) {
      problems.push_back("files." + logical + ": " + filename.as_string() +
                         " is listed but unreadable");
      continue;
    }
    if (logical == "rounds") {
      std::istringstream lines(*content);
      std::string line;
      std::size_t line_no = 0;
      while (std::getline(lines, line)) {
        ++line_no;
        if (line.empty()) continue;
        try {
          bundle.rounds.push_back(
              round_summary_from_json(json::Value::parse(line)));
        } catch (const DomainError& e) {
          problems.push_back("rounds.jsonl line " + std::to_string(line_no) +
                             ": " + e.what());
        }
      }
    } else if (logical == "evidence") {
      try {
        bundle.evidence = json::Value::parse(*content);
        const json::Value* evidence_schema = bundle.evidence.find("schema");
        if (evidence_schema == nullptr || !evidence_schema->is_string() ||
            evidence_schema->as_string() != kEvidenceSchema) {
          problems.push_back("evidence.json: wrong or missing schema tag");
        }
      } catch (const DomainError& e) {
        problems.push_back("evidence.json does not parse: " +
                           std::string(e.what()));
      }
    } else if (filename.as_string().ends_with(".json")) {
      try {
        json::Value::parse(*content);
      } catch (const DomainError& e) {
        problems.push_back(filename.as_string() + " does not parse: " +
                           std::string(e.what()));
      }
    }
  }
  return bundle;
}

}  // namespace rrf::obs
