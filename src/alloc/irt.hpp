// Inter-tenant Resource Trading (IRT) — Algorithm 1 of the paper.
//
// Core idea: for each resource type, tenants whose demand is below their
// initial share are capped at demand and *contribute* the difference; the
// pooled contribution is redistributed to unsatisfied tenants **in
// proportion to each tenant's own total contribution** Lambda(i) across all
// resource types (gain-as-you-contribute).  Tenants that contribute nothing
// receive nothing beyond their initial share, which is what defeats
// free-riding.
//
// Implementation notes (see DESIGN.md §5):
//  * The paper's "work backward" strategy is implemented exactly: per type,
//    entities are ordered contributors-first (ascending U = D/S), then
//    beneficiaries ascending V = (D - S) / Lambda, ties by index (one
//    branch-free merge sort on a packed key); the boundary index v is
//    located by binary search (the satisfiability predicate is monotone —
//    proven in irt.cpp) or by linear scan for the ablation bench.
//  * It runs over type-major columns (FlatColumns): the tenant level hands
//    it the tenants' summed columns, the engine's flat level its node
//    arrays, and the entity entry points lay their entities out into
//    workspace columns first.
//  * Line 20 of the paper's pseudo-code distributes Psi * Lambda(v+1)/Sum;
//    the worked example (Table II) shows each tenant i receives
//    Psi * Lambda(i)/Sum — we implement the latter.
//  * If every unsatisfied tenant has Lambda = 0, the surplus is
//    undistributable under gain-as-you-contribute; it is reported idle, or
//    optionally spread proportionally to initial shares (SurplusFallback).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "alloc/allocator.hpp"

namespace rrf::alloc {

struct IrtOptions {
  enum class Search {
    kBinary,  ///< O(m log m): sort + binary search for the boundary v
    kLinear,  ///< O(m^2) worst case: scan from u+1 (ablation baseline)
  };
  Search search = Search::kBinary;

  enum class SurplusFallback {
    kIdle,                  ///< strict gain-as-you-contribute (default)
    kProportionalToShare,   ///< spread undistributable surplus by share
  };
  SurplusFallback fallback = SurplusFallback::kIdle;

  /// Strategy-proof extension (not in the paper): cap each tenant's total
  /// gain across all resource types at her total contribution Lambda(i),
  /// i.e. force the trading exchange rate to <= 1.  Under the paper's
  /// formula a tenant can profit from *under*-reporting demand whenever the
  /// redistribution fill factor psi/SumLambda exceeds 1; with the cap,
  /// sacrificing x usable shares buys at most x shares back, so lying never
  /// strictly pays.  The price is that surplus beyond the beneficiaries'
  /// contribution budgets idles (or falls back per `fallback`).
  bool cap_gain_at_contribution = false;
};

/// Per-resource-type diagnostics of one IRT run (used by tests and the
/// Table II bench to show the sort orders the paper prints).
struct IrtTypeTrace {
  std::vector<std::size_t> order;  ///< entity indices in allocation order
  std::size_t contributor_count{0};  ///< u: number of contributors
  std::size_t capped_count{0};       ///< v: entities capped at their demand
  double redistributed{0.0};         ///< Psi_k handed to the suffix
};

class IrtAllocator final : public Allocator {
 public:
  explicit IrtAllocator(IrtOptions options = {}) : options_(options) {}

  /// allocate_columns with Lambda(i) in `*lambda`, or in ws.lambda when
  /// `lambda` is null.
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;

  /// Like allocate() but also fills per-type traces (one per resource).
  AllocationResult allocate_traced(const ResourceVector& capacity,
                                   std::span<const AllocationEntity> entities,
                                   std::vector<IrtTypeTrace>* traces) const;

  /// The one implementation: writes each entity's grant S'(i) into
  /// `grant` (laid out like in.share), the idle shares per type into
  /// `unallocated` and Lambda(i) into `lambda`, taking its scratch from
  /// `ws` (whose tenant and entity columns it neither reads nor writes).
  /// It reads no weights.  `traces` may be null.
  void allocate_columns(const ResourceVector& capacity, const FlatColumns& in,
                        Workspace& ws, std::span<double> grant,
                        ResourceVector& unallocated, std::span<double> lambda,
                        std::vector<IrtTypeTrace>* traces) const;

  /// Lambda(i): total contribution of each entity across all types,
  /// C_k(i) = max(0, S_k(i) - D_k(i)).
  static std::vector<double> total_contributions(
      std::span<const AllocationEntity> entities);

 private:
  IrtOptions options_;
};

}  // namespace rrf::alloc
