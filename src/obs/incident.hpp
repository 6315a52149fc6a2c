// Incident engine: correlation and forensic bundles on top of the
// engine's detector bank (obs/detect.hpp).
//
// The DetectorBank answers "which fairness conditions hold this round"
// and keeps the run's alert book (one alert per detector and tenant);
// the IncidentManager follows that book and turns it into operator
// workflow:
//
//  * lifecycle — an incident opens on the round the book goes from no
//    active alert to at least one, and resolves on the round its last
//    active alert resolves, so `/incidents` and `/alerts` never
//    disagree about whether something is wrong;
//  * correlation — while an incident is open, each round's detections
//    of every kind join it as additional signals instead of opening
//    parallel incidents: concurrent anomalies almost always share one
//    underlying cause (an oversold cluster trips starvation, drift and
//    changepoint together), so the operator gets ONE incident naming
//    every signal and every implicated tenant, with severity escalating
//    as more detector kinds corroborate or the incident ages;
//  * forensics — at open the manager snapshots a self-contained bundle
//    directory: the recent round ring (rounds.jsonl), the detector
//    estimator state and the ring's per-tenant series (evidence.json),
//    the bank's alert book (alerts.json), contract-audit tallies, a collapsed
//    flamegraph when profiling is live, engine-provided extras (e.g.
//    per-shard stats) and a schema-versioned incident.json manifest
//    stamped with build provenance.  `rrf_inspect incident
//    validate|summarize|explain` consumes the bundle offline.
//
// Threading: observe_round(), providers and finalize() belong to the
// engine thread; incidents_json()/incident_json() are safe to call from
// HTTP handler threads concurrently (the /incidents routes).
// Allocation-neutral: the manager only reads the bank.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "obs/detect.hpp"

namespace rrf::obs {

enum class IncidentSeverity : std::uint8_t { kMinor, kMajor, kCritical };
/// Stable wire name ("minor", "major", "critical").
const char* to_string(IncidentSeverity severity);

struct IncidentConfig {
  /// Bundle root; one subdirectory per incident.  Empty = incidents are
  /// tracked in memory (endpoints, journal) but nothing hits disk.
  std::string dir;
  /// Recent rounds retained for the bundle's rounds.jsonl and the
  /// per-tenant series in evidence.json.
  std::size_t ring_capacity = 64;
  /// Runaway guard: stop opening new incidents past this many.
  std::size_t max_incidents = 32;
};

/// One tenant a detector implicated, with its corroborating kinds.
struct IncidentTenant {
  std::string name;
  std::vector<std::string> kinds;  ///< distinct detector kinds, first-seen order
  std::size_t detections{0};
  double last_value{0.0};
  double last_threshold{0.0};
};

struct Incident {
  std::string id;  ///< "inc-0001", stable across endpoints/journal/disk
  bool open{true};
  IncidentSeverity severity{IncidentSeverity::kMinor};
  std::size_t opened_window{0};
  std::size_t resolved_window{0};  ///< meaningful when !open
  std::size_t firing_rounds{0};    ///< rounds that contributed detections
  std::size_t detections{0};
  std::vector<std::string> kinds;  ///< distinct detector kinds, first-seen order
  std::vector<IncidentTenant> tenants;
  std::string dir;  ///< bundle directory (empty when not written)
  /// Logical name -> filename of every bundle file actually written.
  std::vector<std::pair<std::string, std::string>> files;
};

/// One open/resolve edge, drained by the engine into the journal.
struct IncidentEvent {
  std::string id;
  bool opened{true};  ///< false = resolved
  std::size_t window{0};
  IncidentSeverity severity{IncidentSeverity::kMinor};
  std::vector<std::string> kinds;
  std::string dir;
};

/// An offline-loaded forensic bundle (`rrf_inspect incident ...`).
///
/// load_dir() throws DomainError ("incident: ...") when the manifest is
/// missing, unparseable or carries the wrong schema tag/version — the
/// bundle is not an incident bundle at all.  Everything softer (a listed
/// file missing, a round line that does not parse, mistyped manifest
/// fields) lands in `problems`, so `validate` can report every violation
/// at once instead of stopping at the first.
struct IncidentBundle {
  json::Value manifest;
  std::vector<RoundSummary> rounds;  ///< parsed rounds.jsonl (may be empty)
  json::Value evidence;              ///< evidence.json (null when absent)
  std::vector<std::string> problems;

  bool valid() const { return problems.empty(); }
  static IncidentBundle load_dir(const std::string& dir);
};

class IncidentManager {
 public:
  explicit IncidentManager(IncidentConfig config);

  IncidentManager(const IncidentManager&) = delete;
  IncidentManager& operator=(const IncidentManager&) = delete;

  /// Advances incident state (open/escalate/resolve, bundle snapshots)
  /// on the round `bank` just observed: its summary, detections and
  /// alert book.  Engine thread.
  void observe_round(const DetectorBank& bank);

  /// Rewrites the open incident's manifest (if any) so its final state
  /// survives the run ending mid-incident.  Engine thread, at run end.
  void finalize();

  // Bundle enrichment, installed by the engine for the duration of a
  // run.  Each extra provider contributes one named bundle file.
  // Metadata key/values land in the manifest (policy, windows,
  // scenario, ...).
  void set_metadata(std::string key, std::string value);
  void set_extra_provider(std::string filename,
                          std::function<std::string()> provider);
  void clear_providers();

  /// The `/incidents` document (always well-formed, even with zero
  /// incidents).  Thread-safe.
  std::string incidents_json() const;
  /// The full manifest document for one incident id, or nullopt when
  /// the id is unknown.  Thread-safe.
  std::optional<std::string> incident_json(const std::string& id) const;

  /// Events with index >= `from` (a cursor the caller advances), for
  /// the journal.  Engine thread.
  std::vector<IncidentEvent> events_since(std::size_t* cursor) const;

  std::size_t opened_total() const;
  std::size_t open_count() const;
  std::vector<Incident> incidents() const;

 private:
  // Helpers below run with mu_ held by their public callers; REQUIRES
  // lets the analysis check both sides of that contract.
  void ingest_detections(Incident& incident,
                         const std::vector<Detection>& detections);
  IncidentSeverity severity_of(const Incident& incident) const;
  void push_event(const Incident& incident, bool opened) REQUIRES(mu_);
  json::Value incident_to_json(const Incident& incident) const
      REQUIRES(mu_);
  json::Value evidence_json(const DetectorBank& bank) const REQUIRES(mu_);
  void write_bundle(Incident& incident, const DetectorBank& bank)
      REQUIRES(mu_);
  void rewrite_manifest(const Incident& incident) const REQUIRES(mu_);

  IncidentConfig config_;
  mutable InstrumentedMutex mu_{"incident.manager"};
  /// Recent rounds kept as plain structs; serialization to JSON is
  /// deferred to bundle-write time so the per-round steady-state cost is
  /// a struct copy, not a JSON dump (the <2% overhead budget).
  std::deque<RoundSummary> round_ring_ GUARDED_BY(mu_);
  std::vector<Incident> incidents_ GUARDED_BY(mu_);
  std::vector<IncidentEvent> events_ GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::string>> metadata_ GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::function<std::string()>>> extras_
      GUARDED_BY(mu_);
};

}  // namespace rrf::obs
