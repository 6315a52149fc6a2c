// The multi-resource allocation policy interface.
//
// A policy takes the pool capacity Omega (in shares) plus the entities'
// (initial share, demand) pairs and produces each entity's entitlement for
// the current window.  Allocation is *oblivious* (paper Section IV): every
// round starts from initial shares with no carry-over.
//
// Every policy has one implementation, `allocate_flat`, over type-major
// columns (FlatColumns): it writes into caller-owned spans and takes its
// scratch from a caller-owned Workspace, so a caller that keeps both
// across rounds (the engine points the columns at its node arrays and
// keeps one workspace per node) allocates nothing once the buffers have
// grown to the node's size.  The entity API, `allocate_into` (and its
// by-value form `allocate`), is the one wrapper that lays AllocationEntity
// vectors out into workspace columns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc/entity.hpp"

namespace rrf::alloc {

/// The tenant level's input, type-major: for each resource type the
/// values of all VMs are contiguous, VM j's type-k value at
/// [k * vms + j].  Tenant g's VMs are members[first[g]] ..
/// members[first[g + 1] - 1], in the order IWA walks them; a tenant's VMs
/// need not be adjacent in the columns (after a live migration they are
/// not).  The engine points it at its node arrays; the entity wrappers
/// lay their AllocationEntity vectors out into Workspace columns.
struct TenantColumns {
  std::size_t types{0};
  std::size_t vms{0};
  /// s(j): each VM's (capacity-backed) initial share, types * vms.
  std::span<const double> share;
  /// d(j): each VM's forecast demand, types * vms.
  std::span<const double> demand;
  std::span<const std::size_t> members;
  /// tenants() + 1 offsets into `members`.
  std::span<const std::size_t> first;
  /// Per tenant, rrf-lt's banked credit; empty when nothing is banked.
  std::span<const double> banked;

  std::size_t tenants() const { return first.empty() ? 0 : first.size() - 1; }
};

/// The flat level's input (every entity arbitrated on its own), type-major
/// like TenantColumns: entity i's type-k value at [k * entities + i].
/// The engine points it at its node arrays, one entity per VM; the entity
/// API lays its AllocationEntity vectors out into Workspace columns; IRT's
/// tenant level passes the tenants' summed columns.
struct FlatColumns {
  std::size_t types{0};
  std::size_t entities{0};
  /// s(i): each entity's (capacity-backed) initial share, types * entities.
  std::span<const double> share;
  /// d(i): each entity's demand, types * entities.
  std::span<const double> demand;
  /// Each entity's scalar weight (AllocationEntity::effective_weight);
  /// empty where no policy reads it (IRT).
  std::span<const double> weight;
  /// Per entity, rrf-lt's banked credit; empty when nothing is banked.
  std::span<const double> banked;
};

/// Throws PreconditionError unless `in` is a valid input for `capacity`:
/// at least one entity, one type per capacity component, a finite
/// non-negative capacity, finite non-negative shares and demands, and
/// weights (when given) that are not negative or NaN.  A weight may be
/// +inf: an entity's default weight, the sum of its shares, may overflow.
void validate_columns(const ResourceVector& capacity, const FlatColumns& in);

/// One IRT sort item: the packed (contributor, key) of an entity and its
/// index.
struct OrderItem {
  std::uint64_t key;
  std::size_t index;
};

/// Scratch for the allocation-free entry points (`allocate_flat`,
/// `allocate_into`, the tenant level's `RrfAllocator::allocate_tenants`
/// and `iwa_tenants`, `allocate_hierarchical_into`).  Each call resizes
/// the buffers it uses to its input; a buffer keeps its heap block
/// between calls.  Contents between calls are unspecified, except that
/// the tenant level leaves its per-tenant results in `tenant_grant`,
/// `tenant_headroom` and `unallocated`; one workspace serves one call at
/// a time.
struct Workspace {
  // ---- one slot per entity ----
  /// IRT (strategy-proof): the trade budget left.
  std::vector<double> budget;
  /// IRT: Lambda(i) when the caller takes none.
  std::vector<double> lambda;
  /// Sequential DRF: weighted dominant share.
  std::vector<double> key;
  /// IRT: one type's allocation order.  Sequential DRF: ascending
  /// weighted dominant share.  DRF: the users still filling, ascending.
  std::vector<std::size_t> order;
  /// IRT: one type's sort items and the merge's second buffer.
  std::vector<OrderItem> items;
  std::vector<OrderItem> merge;

  // ---- one resource type's column over entities or VMs, the input
  // and output of a water-fill or of single-type IWA ----
  std::vector<double> share;
  std::vector<double> demand;
  std::vector<double> weight;
  std::vector<double> grant;
  /// weighted_max_min_into's scratch: the d/w order, or the demand bits
  /// of its single-weight path.
  std::vector<std::size_t> fill_order;

  // ---- IRT boundary-search tables, m + 1 entries ----
  std::vector<double> prefix_demand;
  std::vector<double> suffix_share;
  std::vector<double> suffix_lambda;

  // ---- the tenant level's tenants, type-major like TenantColumns: S(i),
  // D(i), the grant S'(i) and, after IWA, the headroom no VM could use;
  // the hierarchical wrapper's banked credit per tenant; the idle shares
  // per type ----
  std::vector<double> tenant_share;
  std::vector<double> tenant_demand;
  std::vector<double> tenant_grant;
  std::vector<double> tenant_headroom;
  std::vector<double> banked;
  ResourceVector unallocated;

  // ---- the entity API's columns in one block (lay_out_entities) ----
  std::vector<double> entity_columns;

  // ---- the tenant wrappers' VM columns (TenantColumns' layout) ----
  std::vector<double> vm_share;
  std::vector<double> vm_demand;
  std::vector<double> vm_grant;
  std::vector<std::size_t> members;
  std::vector<std::size_t> first;
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// The policy: writes each entity's entitlement into `grant` (laid out
  /// like in.share) and the idle shares per type into `unallocated`; a
  /// trading policy (IRT, flat RRF) writes Lambda(i) into `*lambda`,
  /// resized to the entity count, when `lambda` is not null.
  /// Implementations must:
  ///  * never allocate more than `capacity` in total per resource type
  ///    (surplus goes to `unallocated`),
  ///  * never return negative entitlements,
  ///  * be deterministic, whatever `ws` held before.
  virtual void allocate_flat(const ResourceVector& capacity,
                             const FlatColumns& in, Workspace& ws,
                             std::span<double> grant,
                             ResourceVector& unallocated,
                             std::vector<double>* lambda) const = 0;

  /// The entity API: lays the entities out into the workspace's entity
  /// columns (lay_out_entities), runs allocate_flat and writes every field
  /// of `out`.
  void allocate_into(const ResourceVector& capacity,
                     std::span<const AllocationEntity> entities,
                     Workspace& ws, AllocationResult& out) const;

  /// By-value form of allocate_into with a fresh workspace.
  AllocationResult allocate(const ResourceVector& capacity,
                            std::span<const AllocationEntity> entities) const {
    Workspace ws;
    AllocationResult out;
    allocate_into(capacity, entities, ws, out);
    return out;
  }
};

/// Lays the entities out into ws.entity_columns: their shares, demands,
/// effective weights and banked credit, which the returned columns view,
/// and a grant column of the same layout, which `grant` views.  Checks
/// what the columns cannot show (at least one entity, each vector's
/// arity, each explicit weight finite and non-negative) and leaves the
/// values to validate_columns.
FlatColumns lay_out_entities(const ResourceVector& capacity,
                             std::span<const AllocationEntity> entities,
                             Workspace& ws, std::span<double>& grant);

/// `column` (FlatColumns' layout) as one vector per entity: out[i][k] is
/// entity i's type-k value.
void gather_entities(std::span<const double> column, std::size_t types,
                     std::size_t entities, std::vector<ResourceVector>& out);

}  // namespace rrf::alloc
