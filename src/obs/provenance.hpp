// Per-decision allocation provenance (observability subsystem).
//
// The allocators and the rebalancer expose *what* they decided (the final
// share vectors); answering "why did tenant X get Y shares in round R"
// additionally needs the intermediate quantities of Algorithm 1 and 2 —
// the contribution accounting Lambda(i), the per-type boundary/psi
// redistribution, the intra-tenant IWA flows, the migration plan.  Those
// live deep inside hot-path code whose signatures must not grow per-call
// out-parameters, so capture works through a *thread-local sink*: a caller
// that wants provenance installs a ProvenanceRound via ProvenanceScope
// around the allocation call, and the instrumented sites (irt.cpp,
// iwa.cpp, rebalance.cpp) fill it in.  When no sink is installed the hooks
// are a single thread-local pointer load — the hot path stays
// allocation-free and branch-predictable.
//
// The flight recorder (obs/flightrec.hpp) is the main consumer: the
// simulation engine installs a sink per node per round and moves the
// captured records into the recording.
#pragma once

#include <cstddef>
#include <vector>

#include "common/resource_vector.hpp"

namespace rrf::obs {

/// One resource type's IRT boundary-search outcome (Algorithm 1 l.9-20).
struct ProvenanceIrtType {
  /// Entities ordered before the satisfied/unsatisfied boundary whose
  /// demand is below their share (the paper's u index, l.9-14).
  std::size_t contributors{0};
  /// Entities capped at demand (the boundary v found in l.15).
  std::size_t capped{0};
  /// Surplus psi(v) redistributed to the unsatisfied suffix in proportion
  /// to Lambda (l.16-20); 0 when the pool is overcommitted.
  double redistributed{0.0};
};

/// One IRT entity's Algorithm-1 view.  The hook writes the entity index
/// into `tenant`; the caller remaps it to a tenant id.
struct FlightIrtTenant {
  std::size_t tenant{0};
  double lambda{0.0};  ///< Lambda(i): clamped contribution + banked credit
  ResourceVector share{0.0, 0.0};   ///< S(i) the search started from
  ResourceVector demand{0.0, 0.0};  ///< D(i) it arbitrated
  ResourceVector grant{0.0, 0.0};   ///< S'(i) it produced
};

/// One tenant's IWA distribution (Algorithm 2).  The hook writes the call
/// index (the group, in RRF's call order) into `tenant`, as above.
struct FlightIwa {
  std::size_t tenant{0};
  std::vector<ResourceVector> vm_grant;  ///< per VM, in group order
  ResourceVector headroom{0.0, 0.0};     ///< undistributable per type
};

/// One planned live migration, resolved to tenant/VM identity.
struct FlightMigration {
  std::size_t tenant{0};
  std::size_t vm{0};
  std::size_t from{0};
  std::size_t to{0};
  double cost_gb{0.0};
};

/// Capture buffer for one allocation round (one node) or one rebalance
/// planning pass.  Every section is optional: the IRT fields fill only
/// when an IRT-family policy ran, the IWA list only when hierarchical
/// distribution ran, the rebalance fields only under plan_rebalance().
/// The flight recorder stores the same leaf records, moved, not copied.
struct ProvenanceRound {
  // ---- IRT (Algorithm 1), entity order of the caller ----
  bool has_irt{false};
  std::vector<FlightIrtTenant> irt;
  std::vector<ProvenanceIrtType> irt_types;

  // ---- IWA (Algorithm 2), one entry per iwa_distribute call ----
  std::vector<FlightIwa> iwa;

  // ---- rebalance planning ----
  bool has_rebalance{false};
  std::vector<double> pressure_before;
  std::vector<double> pressure_after;
  std::vector<FlightMigration> migrations;

  void clear() { *this = ProvenanceRound(); }
};

/// The sink installed on this thread, or nullptr (the common case).
ProvenanceRound* provenance_sink();

/// RAII installer: the constructor makes `round` the thread's sink (clearing
/// it first; nullptr uninstalls), the destructor restores the previous one.
/// Scopes nest; each must be destroyed on the thread that created it.
class ProvenanceScope {
 public:
  explicit ProvenanceScope(ProvenanceRound* round);
  ~ProvenanceScope();
  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

 private:
  ProvenanceRound* previous_;
};

}  // namespace rrf::obs
