// The policy table: every allocation policy this repository implements,
// in one place.
//
// The paper compares one mechanism against four baselines (Section VI-A):
// RRF (IRT across tenants, then IWA within each tenant) against T-shirt,
// WMMF, DRF and IWA alone.  The table adds the variants the benches and
// ablations use (sequential DRF, flat IRT, strategy-proof and long-term
// RRF).  A policy's name is spelled here and nowhere else: the engine, the
// CLIs, the verifier, the benches and the tests look rows up or iterate
// them.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocator.hpp"

namespace rrf::alloc {

class RrfAllocator;

enum class PolicyKind {
  kTshirt,   ///< static T-shirt model (no sharing)
  kWmmf,     ///< per-type weighted max-min over all VMs
  kDrf,      ///< canonical weighted DRF over all VMs
  kDrfSeq,   ///< the paper's sequential DRF arithmetic
  kIrt,      ///< inter-tenant trading over all VMs (no tenant level)
  kIwaOnly,  ///< intra-tenant weight adjustment only
  kRrf,      ///< IRT across tenants + IWA within tenants
  kRrfSp,    ///< RRF with the strategy-proof gain cap
  kRrfLt,    ///< long-term RRF: contributions bank across windows
};

/// How a policy arbitrates the pool of one node among the VMs placed there.
enum class PolicyLevel {
  kStatic,  ///< every VM keeps its initial share and nothing is shared
  kFlat,    ///< one Allocator over all VMs
  kTenant,  ///< a tenant level across tenants, then IWA within each tenant
};

struct Policy {
  std::string_view name;
  PolicyKind kind;
  /// One of the five schemes the paper's evaluation compares.
  bool paper;
  PolicyLevel level;
  /// The policy over flat entities: what kFlat rows run on a node's VMs,
  /// and what one-shot allocation (rrf_alloc_cli, the property checkers)
  /// runs for every row.  kTenant rows treat each entity as a single-VM
  /// tenant here.
  const Allocator* allocator;
  /// kTenant rows: non-null when the tenant level is IRT with this
  /// allocator's options (RRF); null when each tenant keeps its own
  /// shares and only IWA moves them (iwa).
  const RrfAllocator* rrf;
  /// The engine banks each tenant's net contribution across windows and
  /// feeds it to IRT (rrf-lt).
  bool banks_contribution;
};

/// Every row, in canonical comparison order.
std::span<const Policy> policies();

const Policy& policy(PolicyKind kind);

/// Throws DomainError naming the valid policies when `name` is unknown.
const Policy& policy(std::string_view name);

/// Every row's name, in table order.
std::vector<std::string> policy_names();

/// The names joined by `separator`, for help text and error messages.
std::string join_policy_names(std::string_view separator);

}  // namespace rrf::alloc
