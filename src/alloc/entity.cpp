#include "alloc/entity.hpp"

#include <cmath>

#include "alloc/allocator.hpp"
#include "common/error.hpp"

namespace rrf::alloc {

ResourceVector AllocationResult::total() const {
  RRF_REQUIRE(!allocations.empty(), "empty allocation result");
  ResourceVector t(allocations.front().size());
  for (const auto& a : allocations) t += a;
  return t;
}

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

bool finite_nonneg(const ResourceVector& v) {
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (!finite_nonneg(v[k])) return false;
  }
  return true;
}

}  // namespace

void validate_entities(const ResourceVector& capacity,
                       std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities to allocate to");
  RRF_REQUIRE(finite_nonneg(capacity),
              "capacity must be finite and non-negative");
  for (const auto& e : entities) {
    RRF_REQUIRE(e.initial_share.size() == capacity.size(),
                "entity share arity must match capacity");
    RRF_REQUIRE(e.demand.size() == capacity.size(),
                "entity demand arity must match capacity");
    RRF_REQUIRE(finite_nonneg(e.initial_share),
                "initial shares must be finite and non-negative");
    RRF_REQUIRE(finite_nonneg(e.demand),
                "demands must be finite and non-negative");
    RRF_REQUIRE(finite_nonneg(e.weight),
                "weights must be finite and non-negative");
  }
}

void validate_columns(const ResourceVector& capacity, const FlatColumns& in) {
  const std::size_t cells = capacity.size() * in.entities;
  RRF_REQUIRE(in.entities > 0, "no entities to allocate to");
  RRF_REQUIRE(finite_nonneg(capacity),
              "capacity must be finite and non-negative");
  RRF_REQUIRE(in.types == capacity.size() && in.share.size() == cells,
              "entity share arity must match capacity");
  RRF_REQUIRE(in.demand.size() == cells,
              "entity demand arity must match capacity");
  RRF_REQUIRE(in.weight.empty() || in.weight.size() == in.entities,
              "one weight per entity");
  bool shares_ok = true;
  bool demands_ok = true;
  bool weights_ok = true;
  for (const double v : in.share) shares_ok &= finite_nonneg(v);
  for (const double v : in.demand) demands_ok &= finite_nonneg(v);
  for (const double v : in.weight) weights_ok &= v >= 0.0;
  RRF_REQUIRE(shares_ok, "initial shares must be finite and non-negative");
  RRF_REQUIRE(demands_ok, "demands must be finite and non-negative");
  RRF_REQUIRE(weights_ok, "weights must be non-negative");
}

FlatColumns lay_out_entities(const ResourceVector& capacity,
                             std::span<const AllocationEntity> entities,
                             Workspace& ws, std::span<double>& grant) {
  RRF_REQUIRE(!entities.empty(), "no entities to allocate to");
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();
  const std::size_t cells = p * m;
  ws.entity_columns.resize(3 * cells + 2 * m);
  double* const share = ws.entity_columns.data();
  double* const demand = share + cells;
  double* const weight = demand + cells;
  double* const banked = weight + m;
  grant = std::span<double>(banked + m, cells);
  for (std::size_t i = 0; i < m; ++i) {
    const AllocationEntity& e = entities[i];
    RRF_REQUIRE(e.initial_share.size() == p,
                "entity share arity must match capacity");
    RRF_REQUIRE(e.demand.size() == p,
                "entity demand arity must match capacity");
    RRF_REQUIRE(finite_nonneg(e.weight),
                "weights must be finite and non-negative");
    for (std::size_t k = 0; k < p; ++k) {
      share[k * m + i] = e.initial_share[k];
      demand[k * m + i] = e.demand[k];
    }
    weight[i] = e.effective_weight();
    banked[i] = e.banked_contribution;
  }
  return FlatColumns{p, m, {share, cells}, {demand, cells}, {weight, m},
                     {banked, m}};
}

void gather_entities(std::span<const double> column, std::size_t types,
                     std::size_t entities, std::vector<ResourceVector>& out) {
  out.assign(entities, ResourceVector(types));
  for (std::size_t k = 0; k < types; ++k) {
    for (std::size_t i = 0; i < entities; ++i) {
      out[i][k] = column[k * entities + i];
    }
  }
}

void Allocator::allocate_into(const ResourceVector& capacity,
                              std::span<const AllocationEntity> entities,
                              Workspace& ws, AllocationResult& out) const {
  std::span<double> grant;
  const FlatColumns in = lay_out_entities(capacity, entities, ws, grant);
  out.contribution_lambda.clear();
  allocate_flat(capacity, in, ws, grant, out.unallocated,
                &out.contribution_lambda);
  gather_entities(grant, in.types, in.entities, out.allocations);
}

ResourceVector total_demand(std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities");
  ResourceVector t(entities.front().demand.size());
  for (const auto& e : entities) t += e.demand;
  return t;
}

ResourceVector total_share(std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities");
  ResourceVector t(entities.front().initial_share.size());
  for (const auto& e : entities) t += e.initial_share;
  return t;
}

}  // namespace rrf::alloc
