// Durable telemetry journal: append-only, schema-versioned JSONL of
// round summaries and alert transitions (observability subsystem, see
// docs/OBSERVABILITY.md "Live ops plane").
//
// Where the flight recorder captures *allocation decisions* for
// bit-exact replay, the journal captures *operator telemetry* — the same
// RoundSummary objects the `/rounds` feed streams, plus every alert
// raise/resolve edge of the DetectorBank — so a crashed or killed run
// leaves a forensically useful trail on disk.  It is a common/json
// record stream ("rrf-telemetry" v1), framed like a flight recording:
// the header carries "kind", "policy", "tenants", "segment",
// "continued" and the build stamp; the records are {"t":"round",...}
// (obs/ops.hpp round shape), {"t":"alert","state":"raised"|"resolved",...}
// and {"t":"incident","state":"opened"|"resolved",...}, interleaved in
// emission order; the close line {"t":"end","rounds","alerts",
// "incidents"} is written on clean shutdown only, so its absence is the
// crash marker, and the loader drops a final line a SIGKILL cut.
//
// Disk use is bounded by two-segment rotation: when the active file
// exceeds max_bytes/2 it is renamed to `<path>.1` and a fresh segment
// (header `segment` + 1, "continued":true) starts, keeping at most
// ~max_bytes on disk while always retaining the most recent half of the
// history.  The loader merges `<path>.1` + `<path>` back into one stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "obs/ops.hpp"

namespace rrf::obs {

struct AlertTransition;  // obs/detect.hpp
struct IncidentEvent;    // obs/incident.hpp

/// Journal format version this build reads and writes.
inline constexpr int kJournalSchemaVersion = 1;
/// Value of the header's "schema" tag.
inline constexpr const char* kJournalSchemaName = "rrf-telemetry";

struct JournalHeader {
  int version{kJournalSchemaVersion};
  /// "sim" (this build writes only engine runs); older files may say
  /// "alloc" (one-shot round) and still load.
  std::string kind;
  std::string policy;  ///< sharing policy name
  std::vector<std::string> tenants;
  std::size_t segment{0};  ///< rotation generation (0 = first)
  bool continued{false};   ///< true when older records were rotated away
  /// Build-info stamp of the producing binary (common/build_info.hpp);
  /// null in journals written before the stamp existed.
  json::Value build;
};

/// One persisted alert raise/resolve edge (a bank AlertTransition).
struct JournalAlert {
  std::string kind;  ///< a DetectorKind wire name ("starvation", ...)
  bool raised{true};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide alerts
  std::string tenant_name;  ///< empty for cluster-wide alerts
  std::size_t window{0};
  double value{0.0};
  double threshold{0.0};
};

/// One persisted incident open/resolve edge (an IncidentEvent).
struct JournalIncident {
  std::string id;      ///< "inc-0001"
  bool opened{true};   ///< false = resolved
  std::size_t window{0};
  std::string severity;  ///< "minor" | "major" | "critical"
  std::vector<std::string> kinds;  ///< detector kinds involved
  std::string dir;  ///< forensic bundle directory (may be empty)
};

struct JournalEnd {
  std::size_t rounds{0};
  std::size_t alerts{0};
  std::size_t incidents{0};
};

// ---- serialization (shared by the writer, the loader and tests) ----
json::Value journal_header_to_json(const JournalHeader& header);
json::Value journal_alert_to_json(const JournalAlert& alert);
json::Value journal_incident_to_json(const JournalIncident& incident);
JournalHeader journal_header_from_json(const json::Value& value);
JournalAlert journal_alert_from_json(const json::Value& value);
JournalIncident journal_incident_from_json(const json::Value& value);

/// A fully loaded journal (both rotation segments merged).
struct JournalData {
  JournalHeader header;  ///< oldest loaded segment's header
  std::vector<RoundSummary> rounds;
  std::vector<JournalAlert> alerts;
  std::vector<JournalIncident> incidents;
  std::optional<JournalEnd> end;  ///< absent = the run did not shut down
                                  ///  cleanly (or is still writing)
  /// True when the final line of the newest segment was cut mid-record
  /// (the expected SIGKILL signature); the partial line is discarded.
  bool truncated_tail{false};
  /// Loader observations that are not errors (e.g. a `<path>.1` segment
  /// ignored because its header does not chain to the active one).
  std::vector<std::string> notes;

  /// Loads `<path>` and, when present and chaining, `<path>.1` before
  /// it.  Throws DomainError ("journal: ...") on schema violations —
  /// wrong schema tag/version, mistyped fields, or corruption anywhere
  /// except a truncated final line.
  static JournalData load_file(const std::string& path);
};

/// Appends telemetry records to a JSONL file with two-segment rotation.
class TelemetryJournal {
 public:
  struct Options {
    std::string path;
    /// Approximate total disk budget across both segments (0 =
    /// unbounded, no rotation).  Rotation triggers at max_bytes/2.
    std::size_t max_bytes = 0;
    std::string policy;
    std::vector<std::string> tenants;
  };

  /// Opens (truncates) the journal, deletes a stale `<path>.1` from a
  /// previous run and writes the segment-0 header.  Throws DomainError
  /// when the file cannot be opened.
  explicit TelemetryJournal(Options options);
  ~TelemetryJournal();
  TelemetryJournal(const TelemetryJournal&) = delete;
  TelemetryJournal& operator=(const TelemetryJournal&) = delete;

  /// Appends one record and flushes it to the OS.  Throws DomainError
  /// when the write fails ("write failed") or when rotation cannot rename
  /// the active segment (naming both paths; the active segment keeps its
  /// records).  The engine thread is the only steady-state producer, but
  /// the writer is mutex-guarded so a shutdown path finishing from another
  /// thread is safe — and the "journal.writer" site shows up in the mutex
  /// contention metrics if anything ever does contend.
  void record_round(const RoundSummary& summary);
  /// `tenant_name` is empty for a cluster-wide alert.
  void record_alert(const AlertTransition& transition,
                    const std::string& tenant_name);
  void record_incident(const IncidentEvent& event);

  /// Writes the end record and closes the file.  Idempotent; called by
  /// the destructor if the caller forgot.
  void finish();

  std::size_t rounds_recorded() const;
  std::size_t alerts_recorded() const;
  std::size_t incidents_recorded() const;
  std::size_t segment() const;
  std::uint64_t bytes_written() const;

 private:
  /// Rotates when the active segment is over budget, then writes.
  void append(const json::Value& record) REQUIRES(mu_);
  void open_segment() REQUIRES(mu_);

  Options options_;
  mutable InstrumentedMutex mu_{"journal.writer"};
  std::ofstream out_ GUARDED_BY(mu_);
  json::RecordWriter stream_ GUARDED_BY(mu_);
  std::size_t segment_ GUARDED_BY(mu_){0};
  /// stream_.bytes_written() when the active segment opened.
  std::uint64_t segment_start_ GUARDED_BY(mu_){0};
  std::size_t rounds_ GUARDED_BY(mu_){0};
  std::size_t alerts_ GUARDED_BY(mu_){0};
  std::size_t incidents_ GUARDED_BY(mu_){0};
};

}  // namespace rrf::obs
