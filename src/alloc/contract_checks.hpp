// Shared post-allocation contract checks (see docs/STATIC_ANALYSIS.md).
//
// Every policy's allocate_flat() must produce a result that is
//  * non-negative,
//  * within capacity per resource type,
//  * consistent with its own unallocated report
//    (unallocated_k ~= max(0, capacity_k - sum_i alloc_ik)),
// and policies that cap at demand must never exceed it.  The checks run
// only while contracts are armed (debug / RRF_CONTRACTS builds); wrap the
// call in `if (rrf::contract::armed())` at the call site so the loop
// dead-strips in release builds.
#pragma once

#include <span>

#include "alloc/entity.hpp"

namespace rrf::alloc {

struct AllocationContractOptions {
  /// Check alloc <= demand per entity and type (sharing policies cap at
  /// demand; the T-shirt baseline does not).
  bool demand_capped = false;
};

/// Post-conditions common to every policy's result, over type-major
/// columns: entity i's type-k allocation at allocation[k * m + i] and
/// demand at demand[k * m + i].  `policy` names the policy in violation
/// messages; the contract sites are the stable "alloc.*" identifiers.
void check_column_contracts(const char* policy,
                            const ResourceVector& capacity, std::size_t m,
                            std::span<const double> demand,
                            std::span<const double> allocation,
                            const ResourceVector& unallocated,
                            const AllocationContractOptions& options = {});

}  // namespace rrf::alloc
