// CSV serialization of allocation scenarios — lets users run the
// allocation policies on hand-written or exported data without touching
// C++ (see tools/rrf_alloc_cli).
//
// Format (header required; `p` resource types => p share and p demand
// columns):
//   name,share_0,share_1,demand_0,demand_1
//   tenantA,500,500,600,300
//   tenantB,500,500,200,800
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "alloc/entity.hpp"

namespace rrf::alloc {

/// Parses entities from the CSV format above.  The number of resource
/// types is inferred from the header (columns must be name + 2p values).
/// Throws DomainError on malformed input.
std::vector<AllocationEntity> read_entities_csv(std::istream& in);

/// Writes entities in the same format (round-trips with
/// read_entities_csv).
void write_entities_csv(std::span<const AllocationEntity> entities,
                        std::ostream& out);

/// Renders an allocation result as an aligned text table (one row per
/// entity: shares, demand, allocation, gain), every number in the
/// shortest form that reads back as the same double.
std::string format_result(std::span<const AllocationEntity> entities,
                          const AllocationResult& result);

}  // namespace rrf::alloc
