#include "obs/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "obs/detect.hpp"
#include "obs/incident.hpp"

namespace rrf::obs {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw DomainError("journal: " + message);
}

std::string rotated_path(const std::string& path) { return path + ".1"; }

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value journal_header_to_json(const JournalHeader& header) {
  json::Object out;
  out.emplace_back("schema", kJournalSchemaName);
  out.emplace_back("version", header.version);
  out.emplace_back("kind", header.kind);
  out.emplace_back("policy", header.policy);
  json::Array tenants;
  tenants.reserve(header.tenants.size());
  for (const std::string& t : header.tenants) tenants.emplace_back(t);
  out.emplace_back("tenants", std::move(tenants));
  out.emplace_back("segment", header.segment);
  out.emplace_back("continued", header.continued);
  if (header.build.is_object()) out.emplace_back("build", header.build);
  return out;
}

JournalHeader journal_header_from_json(const json::Value& value) {
  JournalHeader header;
  header.build = json::check_header(value, kJournalSchemaName,
                                    kJournalSchemaVersion, fail);
  header.kind = str_field(value, "kind", fail);
  header.policy = str_field(value, "policy", fail);
  const json::Value& tenants = field(value, "tenants", fail);
  if (!tenants.is_array()) fail("field 'tenants' is not an array");
  for (const json::Value& t : tenants.as_array()) {
    if (!t.is_string()) fail("tenant name is not a string");
    header.tenants.push_back(t.as_string());
  }
  header.segment = size_field(value, "segment", fail);
  header.continued = bool_field(value, "continued", fail);
  return header;
}

json::Value journal_alert_to_json(const JournalAlert& alert) {
  json::Object out;
  out.emplace_back("t", "alert");
  out.emplace_back("state", alert.raised ? "raised" : "resolved");
  out.emplace_back("kind", alert.kind);
  out.emplace_back("tenant", alert.tenant);
  out.emplace_back("tenant_name", alert.tenant_name);
  out.emplace_back("window", alert.window);
  out.emplace_back("value", alert.value);
  out.emplace_back("threshold", alert.threshold);
  return out;
}

JournalAlert journal_alert_from_json(const json::Value& value) {
  if (!value.is_object()) fail("alert record is not an object");
  if (str_field(value, "t", fail) != "alert") fail("record tag is not 'alert'");
  JournalAlert alert;
  const std::string state = str_field(value, "state", fail);
  if (state != "raised" && state != "resolved") {
    fail("alert state '" + state + "' is neither 'raised' nor 'resolved'");
  }
  alert.raised = state == "raised";
  alert.kind = str_field(value, "kind", fail);
  alert.tenant = int_field(value, "tenant", fail);
  alert.tenant_name = str_field(value, "tenant_name", fail);
  alert.window = size_field(value, "window", fail);
  alert.value = num_field(value, "value", fail);
  alert.threshold = num_field(value, "threshold", fail);
  return alert;
}

json::Value journal_incident_to_json(const JournalIncident& incident) {
  json::Object out;
  out.emplace_back("t", "incident");
  out.emplace_back("state", incident.opened ? "opened" : "resolved");
  out.emplace_back("id", incident.id);
  out.emplace_back("window", incident.window);
  out.emplace_back("severity", incident.severity);
  json::Array kinds;
  kinds.reserve(incident.kinds.size());
  for (const std::string& k : incident.kinds) kinds.emplace_back(k);
  out.emplace_back("kinds", std::move(kinds));
  out.emplace_back("dir", incident.dir);
  return out;
}

JournalIncident journal_incident_from_json(const json::Value& value) {
  if (!value.is_object()) fail("incident record is not an object");
  if (str_field(value, "t", fail) != "incident") {
    fail("record tag is not 'incident'");
  }
  JournalIncident incident;
  const std::string state = str_field(value, "state", fail);
  if (state != "opened" && state != "resolved") {
    fail("incident state '" + state + "' is neither 'opened' nor 'resolved'");
  }
  incident.opened = state == "opened";
  incident.id = str_field(value, "id", fail);
  incident.window = size_field(value, "window", fail);
  incident.severity = str_field(value, "severity", fail);
  const json::Value& kinds = field(value, "kinds", fail);
  if (!kinds.is_array()) fail("field 'kinds' is not an array");
  for (const json::Value& k : kinds.as_array()) {
    if (!k.is_string()) fail("incident kind is not a string");
    incident.kinds.push_back(k.as_string());
  }
  incident.dir = str_field(value, "dir", fail);
  return incident;
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

namespace {

/// Parses one segment file (`notes` stays empty).
JournalData load_segment(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  JournalData seg;
  seg.truncated_tail = json::read_lines(
      in, fail,
      [&](const json::Value& header) {
        seg.header = journal_header_from_json(header);
      },
      [&](std::size_t, const json::Value& value) {
        if (!value.is_object()) fail("record is not an object");
        const std::string& tag = str_field(value, "t", fail);
        if (tag == "round") {
          seg.rounds.push_back(round_summary_from_json(value));
        } else if (tag == "alert") {
          seg.alerts.push_back(journal_alert_from_json(value));
        } else if (tag == "incident") {
          seg.incidents.push_back(journal_incident_from_json(value));
        } else if (tag == "end") {
          JournalEnd end;
          end.rounds = size_field(value, "rounds", fail);
          end.alerts = size_field(value, "alerts", fail);
          // Additive: end records written before incidents existed lack it.
          if (value.find("incidents") != nullptr) {
            end.incidents = size_field(value, "incidents", fail);
          }
          seg.end = end;
          return true;
        } else {
          fail("unknown record tag '" + tag + "'");
        }
        return false;
      });
  return seg;
}

bool readable(const std::string& path) { return std::ifstream(path).is_open(); }

/// Moves `newer` to the end of `older` and the result into `newer`.
template <typename T>
void prepend(std::vector<T>& older, std::vector<T>& newer) {
  older.insert(older.end(), std::make_move_iterator(newer.begin()),
               std::make_move_iterator(newer.end()));
  newer = std::move(older);
}

}  // namespace

JournalData JournalData::load_file(const std::string& path) {
  const std::string prev_path = rotated_path(path);
  if (!readable(path) && readable(prev_path)) {
    // SIGKILL can land inside the rotation window — after the active
    // segment was renamed to `<path>.1` but before the next one opened.
    // Only the rotated file exists then; it holds the whole surviving
    // history and is the forensic trail, not an error.
    JournalData only = load_segment(prev_path);
    only.notes.push_back(path +
                         " is missing but its rotated segment exists — "
                         "the run was killed mid-rotation");
    return only;
  }
  JournalData data = load_segment(path);
  if (!data.header.continued || data.header.segment == 0) return data;
  if (!readable(prev_path)) {
    data.notes.push_back("rotated segment " + prev_path +
                         " is missing; older records were lost");
    return data;
  }
  try {
    JournalData prev = load_segment(prev_path);
    if (prev.header.segment + 1 != data.header.segment ||
        prev.header.kind != data.header.kind ||
        prev.header.policy != data.header.policy) {
      data.notes.push_back("ignoring " + prev_path +
                           ": its header does not chain to the active "
                           "segment");
      return data;
    }
    if (prev.truncated_tail) {
      data.notes.push_back(prev_path +
                           ": rotated segment has a truncated final line");
    }
    data.header = prev.header;
    prepend(prev.rounds, data.rounds);
    prepend(prev.alerts, data.alerts);
    prepend(prev.incidents, data.incidents);
  } catch (const DomainError& e) {
    data.notes.push_back("ignoring " + prev_path + ": " + e.what());
  }
  return data;
}

// ---------------------------------------------------------------------------
// TelemetryJournal
// ---------------------------------------------------------------------------

TelemetryJournal::TelemetryJournal(Options options)
    : options_(std::move(options)), stream_(out_, fail) {
  if (options_.path.empty()) fail("journal path is empty");
  // A `.1` segment left behind by a previous run must not merge into
  // this run's history.
  std::remove(rotated_path(options_.path).c_str());
  MutexLock lock(mu_);
  open_segment();
}

TelemetryJournal::~TelemetryJournal() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a failed final flush surfaces through
    // the stream's state, which callers own.
  }
}

void TelemetryJournal::open_segment() {
  out_.open(options_.path, std::ios::trunc);
  if (!out_) fail("cannot open " + options_.path);
  segment_start_ = stream_.bytes_written();
  JournalHeader header;
  header.kind = "sim";
  header.policy = options_.policy;
  header.tenants = options_.tenants;
  header.segment = segment_;
  header.continued = segment_ > 0;
  header.build = common::build_info_json();
  stream_.write(journal_header_to_json(header));
}

void TelemetryJournal::append(const json::Value& record) {
  if (options_.max_bytes > 0 && !stream_.closed() &&
      stream_.bytes_written() - segment_start_ > options_.max_bytes / 2) {
    out_.close();
    // rename() is atomic on POSIX: a crash mid-rotation leaves either the
    // old layout or the new one, never a half file.  When it fails, the
    // active segment still holds the history; reopening it would truncate
    // that history, so stop instead.
    const std::string rotated = rotated_path(options_.path);
    if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
      fail("cannot rotate " + options_.path + " to " + rotated + ": " +
           std::strerror(errno));
    }
    ++segment_;
    open_segment();
  }
  stream_.write(record);
}

void TelemetryJournal::record_round(const RoundSummary& summary) {
  MutexLock lock(mu_);
  append(round_summary_to_json(summary));
  ++rounds_;
}

void TelemetryJournal::record_alert(const AlertTransition& transition,
                                    const std::string& tenant_name) {
  const JournalAlert alert{to_string(transition.kind), transition.raised,
                           transition.tenant,           tenant_name,
                           transition.window,           transition.value,
                           transition.threshold};
  MutexLock lock(mu_);
  append(journal_alert_to_json(alert));
  ++alerts_;
}

void TelemetryJournal::record_incident(const IncidentEvent& event) {
  const JournalIncident incident{event.id,    event.opened,
                                 event.window, to_string(event.severity),
                                 event.kinds,  event.dir};
  MutexLock lock(mu_);
  append(journal_incident_to_json(incident));
  ++incidents_;
}

void TelemetryJournal::finish() {
  MutexLock lock(mu_);
  if (stream_.closed()) return;
  stream_.close(json::Object{{"t", "end"},
                             {"rounds", rounds_},
                             {"alerts", alerts_},
                             {"incidents", incidents_}});
  out_.close();
}

std::size_t TelemetryJournal::rounds_recorded() const {
  MutexLock lock(mu_);
  return rounds_;
}

std::size_t TelemetryJournal::alerts_recorded() const {
  MutexLock lock(mu_);
  return alerts_;
}

std::size_t TelemetryJournal::incidents_recorded() const {
  MutexLock lock(mu_);
  return incidents_;
}

std::size_t TelemetryJournal::segment() const {
  MutexLock lock(mu_);
  return segment_;
}

std::uint64_t TelemetryJournal::bytes_written() const {
  MutexLock lock(mu_);
  return stream_.bytes_written();
}

}  // namespace rrf::obs
