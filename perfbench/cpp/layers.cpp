// Layer driver of the traced run.
//
// Rebuilds every node's per-window policy input through public calls --
// Cluster::vm_shares, Scenario::host_of, DemandPredictor,
// PricingModel::shares_for and the pool capped at the host's capacity in
// shares -- exactly as the engine assembles it, then calls each layer on
// it with one span per call: the demand generators, the predictor, every
// policy kernel (RRF, IRT, IWA, DRF, WMMF), the engine's work-conserving
// surplus pass and the hypervisor actuators.  On the first windows the
// resulting entitlements are compared bit for bit with a flight recording
// of the engine, which proves the kernels saw the engine's inputs.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <set>

#include "alloc/drf.hpp"
#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/wmmf.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "hypervisor/node.hpp"
#include "sim/predictor.hpp"

namespace perfbench {

namespace {

using rrf::ResourceVector;
using rrf::kDefaultResourceCount;
using rrf::sim::PolicyKind;

struct Slot {
  std::size_t tenant;
  std::size_t vm;
  ResourceVector share;
  rrf::sim::DemandPredictor predictor;
};

struct Node {
  std::vector<Slot> slots;
  ResourceVector pool = ResourceVector(kDefaultResourceCount);
  ResourceVector capacity_shares = ResourceVector(kDefaultResourceCount);
  std::vector<rrf::alloc::AllocationEntity> flat;
  std::vector<std::size_t> tenant_ids;  ///< ascending, one group each
  std::vector<rrf::alloc::TenantGroup> groups;
  std::vector<std::pair<std::size_t, std::size_t>> slot_group;
  std::unique_ptr<rrf::hv::HypervisorNode> hv;
  std::vector<ResourceVector> actual;
  std::vector<ResourceVector> demand_shares;
  /// Per workload policy: entitlements after the surplus pass.
  std::vector<std::vector<ResourceVector>> entitlement;
  std::vector<double> residual, weights, extra;
  std::vector<std::size_t> wmm_order;
  /// IRT's per-type entity order in this node's previous round.
  std::vector<std::vector<std::size_t>> previous_order;
};

/// The engine's per-node allocation scaffolding (sim/engine.cpp's
/// refresh_alloc_cache), rebuilt from the public scenario.
void build_node(Node& node, const rrf::sim::Scenario& scenario,
                std::size_t host, const WorkloadSpec& spec) {
  const auto& cluster = scenario.cluster;
  const rrf::PricingModel& pricing = cluster.pricing();
  const std::size_t n = node.slots.size();
  for (const Slot& slot : node.slots) node.pool += slot.share;
  node.capacity_shares = pricing.shares_for(cluster.hosts()[host].capacity);
  for (std::size_t k = 0; k < node.pool.size(); ++k) {
    node.pool[k] = std::min(node.pool[k], node.capacity_shares[k]);
  }
  node.flat.assign(n, rrf::alloc::AllocationEntity());
  for (std::size_t i = 0; i < n; ++i) {
    node.flat[i].initial_share = node.slots[i].share;
    node.flat[i].weight = node.slots[i].share.sum();
  }
  for (const Slot& slot : node.slots) node.tenant_ids.push_back(slot.tenant);
  std::sort(node.tenant_ids.begin(), node.tenant_ids.end());
  node.tenant_ids.erase(
      std::unique(node.tenant_ids.begin(), node.tenant_ids.end()),
      node.tenant_ids.end());
  node.groups.assign(node.tenant_ids.size(), rrf::alloc::TenantGroup{});
  for (std::size_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::size_t>(
        std::lower_bound(node.tenant_ids.begin(), node.tenant_ids.end(),
                         node.slots[i].tenant) -
        node.tenant_ids.begin());
    rrf::alloc::AllocationEntity vm;
    vm.initial_share = node.slots[i].share;
    node.slot_group.emplace_back(g, node.groups[g].vms.size());
    node.groups[g].vms.push_back(std::move(vm));
  }

  rrf::hv::HypervisorNode::Config hv_config;
  hv_config.capacity = cluster.hosts()[host].capacity;
  hv_config.pricing = pricing;
  hv_config.memory_backend = spec.engine.memory_backend;
  hv_config.balloon_rate_gb_s = spec.engine.balloon_rate_gb_s;
  hv_config.use_sliced_scheduler = spec.engine.use_sliced_scheduler;
  node.hv = std::make_unique<rrf::hv::HypervisorNode>(hv_config);
  for (const Slot& slot : node.slots) {
    const auto& vm = cluster.tenants()[slot.tenant].vms[slot.vm];
    node.hv->add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
  }

  node.actual.assign(n, ResourceVector(kDefaultResourceCount));
  node.demand_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.entitlement.assign(spec.policies.size(),
                          std::vector<ResourceVector>(
                              n, ResourceVector(kDefaultResourceCount)));
  node.residual.assign(n, 0.0);
  node.weights.assign(n, 0.0);
  node.extra.assign(n, 0.0);
  node.wmm_order.reserve(n);
}

bool bit_equal(const ResourceVector& a, const ResourceVector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

const rrf::obs::FlightNode* find_node(const rrf::obs::FlightRound& round,
                                      std::size_t host) {
  for (const rrf::obs::FlightNode& node : round.nodes) {
    if (node.node == host) return &node;
  }
  return nullptr;
}

}  // namespace

LayerReport drive_layers(
    const WorkloadSpec& spec, const rrf::sim::Scenario& scenario,
    std::size_t windows,
    const std::vector<rrf::obs::FlightRecording>* references,
    SpanLog& spans) {
  const auto& cluster = scenario.cluster;
  const rrf::PricingModel& pricing = cluster.pricing();
  const std::size_t tenant_count = cluster.tenants().size();
  const std::size_t policy_count = spec.policies.size();
  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());
  RRF_REQUIRE(references == nullptr || references->size() == policy_count,
              "perfbench: one reference recording per policy");

  std::vector<Node> nodes(cluster.hosts().size());
  for (std::size_t t = 0; t < tenant_count; ++t) {
    for (std::size_t j = 0; j < cluster.tenants()[t].vms.size(); ++j) {
      if (unplaced.contains({t, j})) continue;
      nodes[scenario.host_of[t][j]].slots.push_back(
          Slot{t, j, cluster.vm_shares(t, j),
               rrf::sim::DemandPredictor(kDefaultResourceCount,
                                         spec.engine.predictor)});
    }
  }
  for (std::size_t h = 0; h < nodes.size(); ++h) {
    if (!nodes[h].slots.empty()) build_node(nodes[h], scenario, h, spec);
  }

  const rrf::alloc::RrfAllocator rrf_kernel;
  const rrf::alloc::IrtAllocator irt_kernel;
  LayerReport report;
  report.windows = windows;
  // Wall time of the layer calls an engine window of each policy makes.
  std::vector<std::int64_t> policy_ns(policy_count, 0);
  std::vector<std::vector<ResourceVector>> demands(tenant_count);
  std::vector<rrf::alloc::AllocationEntity> aggregates;
  std::vector<rrf::alloc::IrtTypeTrace> traces;
  std::vector<std::size_t> position;

  for (std::size_t w = 0; w < windows; ++w) {
    const double now = static_cast<double>(w) * spec.engine.window;
    const int window_span = spans.open("layers.window", -1);
    const int demand_span = spans.open("workload.demand", window_span);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      demands[t] = scenario.workloads[t]->vm_demands_at(now);
    }
    const std::int64_t demand_ns = spans.close(demand_span);
    for (std::int64_t& ns : policy_ns) ns += demand_ns;

    const bool compare = references != nullptr &&
                         w < references->front().rounds.size();
    std::vector<bool> window_mismatch(policy_count, false);

    for (std::size_t h = 0; h < nodes.size(); ++h) {
      Node& node = nodes[h];
      const std::size_t n = node.slots.size();
      if (n == 0) continue;
      const int node_span = spans.open("layers.node", window_span);

      // Predict: the engine's forecast, priced into shares.
      const int predict_span = spans.open("sim.predictor", node_span);
      for (std::size_t i = 0; i < n; ++i) {
        const Slot& slot = node.slots[i];
        node.actual[i] = demands[slot.tenant][slot.vm];
        ResourceVector forecast = node.actual[i];
        if (spec.engine.use_predictor) {
          forecast =
              slot.predictor.observations() == 0
                  ? cluster.tenants()[slot.tenant].vms[slot.vm].provisioned
                  : slot.predictor.predict();
        }
        node.demand_shares[i] = pricing.shares_for(forecast);
      }
      std::int64_t shell_ns = spans.close(predict_span);

      for (std::size_t i = 0; i < n; ++i) {
        node.flat[i].demand = node.demand_shares[i];
        const auto [g, vi] = node.slot_group[i];
        node.groups[g].vms[vi].demand = node.demand_shares[i];
      }

      // Policy kernels, each on the same node input.
      int span = spans.open("alloc.rrf", node_span);
      const rrf::alloc::HierarchicalResult rrf_result =
          rrf_kernel.allocate_hierarchical(node.pool, node.groups);
      const std::int64_t rrf_ns = spans.close(span);

      aggregates.clear();
      for (const rrf::alloc::TenantGroup& group : node.groups) {
        aggregates.push_back(group.aggregate());
      }
      span = spans.open("alloc.irt", node_span);
      const rrf::alloc::AllocationResult tenant_level =
          irt_kernel.allocate(node.pool, aggregates);
      spans.close(span);
      for (std::size_t g = 0; g < node.groups.size(); ++g) {
        span = spans.open("alloc.iwa", node_span);
        [[maybe_unused]] const rrf::alloc::IwaVectorResult iwa =
            rrf::alloc::iwa_distribute(
            tenant_level.allocations[g], node.groups[g].vms);
        spans.close(span);
      }
      span = spans.open("alloc.drf", node_span);
      const rrf::alloc::AllocationResult drf_result =
          rrf::alloc::DrfAllocator{}.allocate(node.pool, node.flat);
      const std::int64_t drf_ns = spans.close(span);
      span = spans.open("alloc.wmmf", node_span);
      const rrf::alloc::AllocationResult wmmf_result =
          rrf::alloc::WmmfAllocator{}.allocate(node.pool, node.flat);
      const std::int64_t wmmf_ns = spans.close(span);

      // Share of tenants whose place in the per-type IRT order moved
      // since this node's previous round (untimed).
      irt_kernel.allocate_traced(node.pool, aggregates, &traces);
      node.previous_order.resize(traces.size());
      for (std::size_t k = 0; k < traces.size(); ++k) {
        const std::vector<std::size_t>& order = traces[k].order;
        std::vector<std::size_t>& previous = node.previous_order[k];
        if (previous.size() == order.size()) {
          position.assign(order.size(), 0);
          for (std::size_t r = 0; r < order.size(); ++r) {
            position[order[r]] = r;
          }
          for (std::size_t r = 0; r < previous.size(); ++r) {
            if (position[previous[r]] != r) ++report.reorder_changed;
          }
          report.reorder_compared += order.size();
        }
        previous = order;
      }

      for (std::size_t p = 0; p < policy_count; ++p) {
        std::vector<ResourceVector>& entitlement = node.entitlement[p];
        std::int64_t kernel_ns = 0;
        switch (spec.policies[p]) {
          case PolicyKind::kTshirt:
            for (std::size_t i = 0; i < n; ++i) {
              entitlement[i] = node.slots[i].share;
            }
            break;
          case PolicyKind::kRrf:
            for (std::size_t i = 0; i < n; ++i) {
              const auto [g, vi] = node.slot_group[i];
              entitlement[i] = rrf_result.vm_allocations[g][vi];
            }
            kernel_ns = rrf_ns;
            break;
          case PolicyKind::kDrf:
            entitlement = drf_result.allocations;
            kernel_ns = drf_ns;
            break;
          case PolicyKind::kWmmf:
            entitlement = wmmf_result.allocations;
            kernel_ns = wmmf_ns;
            break;
          default:
            throw rrf::DomainError("perfbench: layer driver has no policy " +
                                   rrf::sim::to_string(spec.policies[p]));
        }
        if (spec.policies[p] != PolicyKind::kTshirt) {
          // The engine's work-conserving surplus pass: unsold head-room
          // flows to residual demand in proportion to shares.
          for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
            for (std::size_t i = 0; i < n; ++i) {
              node.residual[i] = std::max(
                  0.0, node.demand_shares[i][k] - entitlement[i][k]);
              node.weights[i] = node.slots[i].share[k];
            }
            const double surplus = node.capacity_shares[k] - node.pool[k];
            if (surplus <= 0.0) continue;
            span = spans.open("alloc.surplus", node_span);
            rrf::alloc::weighted_max_min_into(surplus, node.residual,
                                              node.weights, node.extra,
                                              node.wmm_order);
            kernel_ns += spans.close(span);
            for (std::size_t i = 0; i < n; ++i) {
              entitlement[i][k] += node.extra[i];
            }
          }
        }
        policy_ns[p] += kernel_ns;

        if (compare) {
          const rrf::obs::FlightNode* recorded =
              find_node((*references)[p].rounds[w], h);
          for (std::size_t i = 0; i < n; ++i) {
            const bool same =
                recorded != nullptr && i < recorded->slots.size() &&
                recorded->slots[i].tenant == node.slots[i].tenant &&
                recorded->slots[i].vm == node.slots[i].vm &&
                bit_equal(recorded->slots[i].entitlement, entitlement[i]);
            ++report.fidelity_slots;
            if (!same) {
              ++report.fidelity_mismatches;
              window_mismatch[p] = true;
            }
          }
        }
      }

      span = spans.open("hypervisor.actuate", node_span);
      node.hv->apply_shares(node.entitlement.front());
      [[maybe_unused]] const std::vector<ResourceVector> realized =
          node.hv->step(spec.engine.window, node.actual);
      const std::int64_t actuate_ns = spans.close(span);
      if (spec.engine.use_actuators) shell_ns += actuate_ns;

      span = spans.open("sim.predictor", node_span);
      for (std::size_t i = 0; i < n; ++i) {
        node.slots[i].predictor.observe(node.actual[i]);
      }
      shell_ns += spans.close(span);
      for (std::int64_t& ns : policy_ns) ns += shell_ns;

      spans.close(node_span);
      ++report.node_rounds;
      report.vm_rounds += n;
    }
    if (compare) {
      report.fidelity_windows += policy_count;
      report.fidelity_failed_windows += static_cast<std::size_t>(
          std::count(window_mismatch.begin(), window_mismatch.end(), true));
    }
    spans.close(window_span);
  }

  for (std::int64_t ns : policy_ns) {
    report.policy_window_s.push_back(static_cast<double>(ns) * 1e-9 /
                                     static_cast<double>(windows));
  }
  return report;
}

}  // namespace perfbench
