#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "common/thread_pool.hpp"
#include "hypervisor/node.hpp"
#include "obs/audit.hpp"
#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

namespace rrf::sim {

std::string to_string(PolicyKind policy) {
  return std::string(alloc::policy(policy).name);
}

PolicyKind policy_from_string(const std::string& name) {
  return alloc::policy(name).kind;
}

std::vector<PolicyKind> paper_policies() {
  std::vector<PolicyKind> out;
  for (const alloc::Policy& p : alloc::policies()) {
    if (p.paper) out.push_back(p.kind);
  }
  return out;
}

namespace {

/// One VM placed on a node, together with its slot-local state (which
/// travels with the VM when the load balancer migrates it).
struct VmSlot {
  std::size_t tenant;
  std::size_t vm;
  ResourceVector initial_share;  // in shares
  DemandPredictor predictor;
  /// Smoothed demand estimate (capacity units) the rebalancer plans on.
  ResourceVector demand_ema{0.0, 0.0};
  /// Remaining windows of post-migration degradation.
  std::size_t migration_penalty{0};
};

/// Per-node simulation state.
///
/// Besides the slot list and the hypervisor facade this carries the
/// node's *allocation scaffolding cache*: the tenant grouping, flat
/// entity list, pool and capacity share vectors are functions of the
/// slot membership only, so they are rebuilt exactly when membership
/// changes (initial placement, live migration) instead of every round.
/// Each round merely overwrites the per-entity demand values in place.
/// Per-round scratch buffers, the policy's workspace and its result
/// buffers live here too, so once they have grown to the node's size the
/// round (actuators off) performs no heap allocation; NodeState is
/// touched by one thread at a time (parallel_for hands each node to one
/// worker).
struct NodeState {
  std::vector<VmSlot> slots;
  std::unique_ptr<hv::HypervisorNode> hv_node;
  // Scratch, refreshed every window:
  std::vector<ResourceVector> actual_demand;      // capacity units
  std::vector<ResourceVector> entitlement_shares; // shares
  std::vector<ResourceVector> realized;           // capacity units
  /// Wall time per round phase, accumulated by the PhaseScopes.
  std::array<double, obs::kPhaseCount> phase_seconds{};
  std::size_t alloc_invocations{0};

  // ---- allocation scaffolding (valid while slot membership unchanged) ----
  /// Sum of the slots' initial shares, capped per type at the host's
  /// capacity (the pool the policy arbitrates).
  ResourceVector pool{kDefaultResourceCount};
  /// pricing.shares_for(host capacity), fixed per host.
  ResourceVector capacity_shares{kDefaultResourceCount};
  /// Per slot, the part of its initial share the host can back: on a
  /// type sold beyond capacity the initial share times capacity / sold,
  /// else the initial share itself.  Every policy level allocates over it.
  std::vector<ResourceVector> backed_share;
  /// Flat policies view every VM as one entity (demand refreshed per
  /// round; initial share and weight are membership-static).
  std::vector<alloc::AllocationEntity> flat_entities;
  /// Tenants present on this node, ascending (the order std::map-based
  /// grouping used to produce, so allocations stay bit-identical).
  std::vector<std::size_t> tenant_ids;
  /// Hierarchical grouping: per tenant, its VMs in slot order.
  std::vector<alloc::TenantGroup> groups;
  /// Per-group sum of initial shares (IWA-only's static entitlement).
  std::vector<ResourceVector> group_totals;
  /// slot index -> (group index, VM index within the group).
  std::vector<std::pair<std::size_t, std::size_t>> slot_group;

  // ---- per-round scratch ----
  std::vector<ResourceVector> demand_shares;  // forecast, in shares
  std::vector<double> residual;
  std::vector<double> weights;
  std::vector<ResourceVector> beta_shares;
  std::vector<double> slot_contributed;
  std::vector<double> slot_gained;
  // Exchange inputs, filled by the settle phase and consumed by the
  // window's canonical serial merge: the slot's demand in shares and its
  // migration-adjusted perf score.  Keeping them per-node makes the
  // parallel round lock-free — no shared accumulator is touched until
  // the merge walks the nodes in ascending order.
  std::vector<ResourceVector> slot_demand_shares;
  std::vector<double> slot_score;
  /// Surplus-pass outputs and ordering scratch for weighted_max_min_into
  /// (the per-round surplus water-fill must not heap-allocate).
  std::vector<double> surplus_extra;
  std::vector<std::size_t> wmm_order;
  /// The policy's scratch and its outputs: flat policies write
  /// flat_result, tenant-level ones tenant_result (iwa fills only its VM
  /// level).
  alloc::Workspace workspace;
  alloc::AllocationResult flat_result;
  alloc::HierarchicalResult tenant_result;

  double& phase_accum(obs::Phase phase) {
    return phase_seconds[static_cast<std::size_t>(phase)];
  }
};

/// Rebuilds the allocation scaffolding after slot membership changed.
void refresh_alloc_cache(NodeState& node, const ResourceVector& host_capacity,
                         const PricingModel& pricing) {
  const std::size_t n = node.slots.size();

  node.pool = ResourceVector(kDefaultResourceCount);
  for (const VmSlot& slot : node.slots) node.pool += slot.initial_share;
  node.capacity_shares = pricing.shares_for(host_capacity);
  // An oversold node cannot grant shares it does not have: per oversold
  // type the pool is capped at capacity and every slot's share is scaled
  // by capacity / sold, so its tenants contend for what the host backs
  // and their granted ratios drop below 1.  When sold <= capacity —
  // every placed paper scenario and any synthetic fill*overcommit <= 1 —
  // nothing is scaled and allocation is bit-identical.
  node.backed_share.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    node.backed_share[i] = node.slots[i].initial_share;
  }
  for (std::size_t k = 0; k < node.pool.size(); ++k) {
    if (node.pool[k] <= node.capacity_shares[k]) continue;
    const double backed = node.capacity_shares[k] / node.pool[k];
    for (ResourceVector& share : node.backed_share) share[k] *= backed;
    node.pool[k] = node.capacity_shares[k];
  }

  node.flat_entities.assign(n, alloc::AllocationEntity());
  for (std::size_t i = 0; i < n; ++i) {
    node.flat_entities[i].initial_share = node.backed_share[i];
    node.flat_entities[i].weight = node.backed_share[i].sum();
  }

  node.tenant_ids.clear();
  for (const VmSlot& slot : node.slots) node.tenant_ids.push_back(slot.tenant);
  std::sort(node.tenant_ids.begin(), node.tenant_ids.end());
  node.tenant_ids.erase(
      std::unique(node.tenant_ids.begin(), node.tenant_ids.end()),
      node.tenant_ids.end());

  node.groups.assign(node.tenant_ids.size(), alloc::TenantGroup{});
  node.slot_group.assign(n, {0, 0});
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::lower_bound(node.tenant_ids.begin(),
                                     node.tenant_ids.end(),
                                     node.slots[i].tenant);
    const auto g =
        static_cast<std::size_t>(it - node.tenant_ids.begin());
    alloc::AllocationEntity e;
    e.initial_share = node.backed_share[i];
    node.slot_group[i] = {g, node.groups[g].vms.size()};
    node.groups[g].vms.push_back(std::move(e));
  }
  node.group_totals.assign(node.groups.size(),
                           ResourceVector(kDefaultResourceCount));
  for (std::size_t g = 0; g < node.groups.size(); ++g) {
    for (const auto& vm : node.groups[g].vms) {
      node.group_totals[g] += vm.initial_share;
    }
  }

  node.demand_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.residual.assign(n, 0.0);
  node.weights.assign(n, 0.0);
  node.beta_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.slot_contributed.assign(n, 0.0);
  node.slot_gained.assign(n, 0.0);
  node.slot_demand_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.slot_score.assign(n, 0.0);
  node.surplus_extra.assign(n, 0.0);
  node.wmm_order.reserve(n);
  node.entitlement_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.actual_demand.assign(n, ResourceVector(kDefaultResourceCount));
}

/// Computes share entitlements for one node and one window into
/// node.entitlement_shares, using the cached scaffolding (the per-entity
/// demands are refreshed from node.demand_shares in place).
/// `tenant_banked` (indexed by tenant id) carries the rrf-lt contribution
/// bank; empty for every other policy.
void allocate_entitlements(const alloc::Policy& policy, NodeState& node,
                           std::span<const double> tenant_banked) {
  const std::size_t n = node.slots.size();
  // rrf-hot-path: begin(engine.allocate)

  if (policy.level == alloc::PolicyLevel::kStatic) {
    node.entitlement_shares = node.backed_share;
    return;
  }

  if (policy.level == alloc::PolicyLevel::kFlat) {
    // Refresh per-round demands in the cached flat entity list.
    for (std::size_t i = 0; i < n; ++i) {
      node.flat_entities[i].demand = node.demand_shares[i];
    }
    policy.allocator->allocate_into(node.pool, node.flat_entities,
                                    node.workspace, node.flat_result);
    node.entitlement_shares = node.flat_result.allocations;
    return;
  }

  // Tenant level: refresh per-round demands (and the rrf-lt bank) in the
  // cached groups.
  for (std::size_t i = 0; i < n; ++i) {
    const auto [g, vi] = node.slot_group[i];
    node.groups[g].vms[vi].demand = node.demand_shares[i];
  }
  if (!tenant_banked.empty()) {
    for (std::size_t g = 0; g < node.groups.size(); ++g) {
      node.groups[g].banked_contribution =
          node.tenant_ids[g] < tenant_banked.size()
              ? tenant_banked[node.tenant_ids[g]]
              : 0.0;
    }
  }

  alloc::HierarchicalResult& hr = node.tenant_result;
  if (policy.rrf == nullptr) {
    // Tenant entitlement is static (its own shares); IWA moves shares
    // between the tenant's VMs only.
    hr.vm_allocations.resize(node.groups.size());
    hr.tenant_headroom.resize(node.groups.size());
    for (std::size_t g = 0; g < node.groups.size(); ++g) {
      hr.vm_allocations[g].resize(node.groups[g].vms.size());
      hr.tenant_headroom[g] =
          alloc::iwa_distribute_into(node.group_totals[g], node.groups[g].vms,
                                     node.workspace, hr.vm_allocations[g]);
    }
  } else {
    policy.rrf->allocate_hierarchical_into(node.pool, node.groups,
                                           node.workspace, hr);
  }

  // Map grouped VM allocations back to slot order.
  for (std::size_t i = 0; i < n; ++i) {
    const auto [g, vi] = node.slot_group[i];
    node.entitlement_shares[i] = hr.vm_allocations[g][vi];
  }
  // rrf-hot-path: end(engine.allocate)
}

/// Assembles this node's flight-recorder entry for the window just
/// processed: per-slot inputs/decisions plus the IRT/IWA provenance the
/// thread-local sink captured inside allocate_entitlements().  Group
/// indices are resolved to global tenant ids via node.tenant_ids (the
/// ascending order the groups were built in).
obs::FlightNode build_flight_node(std::size_t h, const NodeState& node,
                                  bool use_actuators,
                                  const obs::ProvenanceRound& prov) {
  obs::FlightNode out;
  out.node = h;
  const std::size_t n = node.slots.size();
  out.slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::FlightSlot slot;
    slot.tenant = node.slots[i].tenant;
    slot.vm = node.slots[i].vm;
    slot.share = node.slots[i].initial_share;
    slot.demand = node.actual_demand[i];
    slot.forecast = node.demand_shares[i];
    slot.entitlement = node.entitlement_shares[i];
    if (use_actuators) {
      slot.credit_weight = node.hv_node->scheduler().weight(i);
      slot.credit_cap = node.hv_node->scheduler().cap(i);
      slot.mem_target = node.hv_node->memory().target(i);
    }
    out.slots.push_back(std::move(slot));
  }
  if (prov.has_irt) {
    out.has_irt = true;
    out.irt_types = prov.irt_types;
    out.irt.reserve(prov.irt_lambda.size());
    for (std::size_t g = 0; g < prov.irt_lambda.size(); ++g) {
      obs::FlightIrtTenant t;
      t.tenant = g < node.tenant_ids.size() ? node.tenant_ids[g] : g;
      t.lambda = prov.irt_lambda[g];
      t.share = prov.irt_share[g];
      t.demand = prov.irt_demand[g];
      t.grant = prov.irt_grant[g];
      out.irt.push_back(std::move(t));
    }
  }
  out.iwa.reserve(prov.iwa.size());
  for (std::size_t g = 0; g < prov.iwa.size(); ++g) {
    obs::FlightIwa w;
    w.tenant = g < node.tenant_ids.size() ? node.tenant_ids[g] : g;
    w.vm_grant = prov.iwa[g].vm_grant;
    w.headroom = prov.iwa[g].headroom;
    out.iwa.push_back(std::move(w));
  }
  return out;
}

}  // namespace

SimResult run_simulation(const Scenario& scenario,
                         const EngineConfig& config) {
  RRF_REQUIRE(config.window > 0.0 && config.duration >= config.window,
              "bad window/duration");
  // Profiler root covering everything before the first window (node/HV
  // construction, auditor setup); closed explicitly below so the window
  // loop's own roots are not nested under it.
  obs::ProfileScope setup_profile("engine.setup");
  const auto& cl = scenario.cluster;
  const PricingModel& pricing = cl.pricing();
  const std::size_t tenant_count = cl.tenants().size();
  const std::size_t host_count = cl.hosts().size();
  const alloc::Policy& policy = alloc::policy(config.policy);

  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());

  // ---- build per-node state ----
  // (Re)creates a node's hypervisor facade from its current slot list;
  // also used after live migrations reshuffle the slots.
  auto rebuild_hv = [&](NodeState& node, std::size_t h) {
    hv::HypervisorNode::Config hv_config;
    hv_config.capacity = cl.hosts()[h].capacity;
    hv_config.pricing = pricing;
    hv_config.memory_backend = config.memory_backend;
    hv_config.balloon_rate_gb_s = config.balloon_rate_gb_s;
    hv_config.use_sliced_scheduler = config.use_sliced_scheduler;
    node.hv_node = std::make_unique<hv::HypervisorNode>(hv_config);
    for (const VmSlot& slot : node.slots) {
      const auto& vm = cl.tenants()[slot.tenant].vms[slot.vm];
      node.hv_node->add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
    }
  };

  std::vector<NodeState> nodes(host_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const auto& vms = cl.tenants()[t].vms;
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (unplaced.contains({t, j})) continue;
      NodeState& node = nodes[scenario.host_of[t][j]];
      node.slots.push_back(
          VmSlot{t, j, cl.vm_shares(t, j),
                 DemandPredictor(kDefaultResourceCount, config.predictor),
                 ResourceVector(kDefaultResourceCount), 0});
    }
  }
  for (std::size_t h = 0; h < host_count; ++h) {
    rebuild_hv(nodes[h], h);
    refresh_alloc_cache(nodes[h], cl.hosts()[h].capacity, pricing);
  }

  // ---- per-tenant metrics ----
  SimResult result;
  result.policy = std::string(policy.name);
  result.window = config.window;
  result.tenants.reserve(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    result.tenants.emplace_back(cl.tenants()[t].name, cl.tenant_shares(t));
  }

  const wl::PerfModel perf(config.perf);
  const auto windows =
      static_cast<std::size_t>(config.duration / config.window);
  ResourceVector used_total(kDefaultResourceCount);
  ResourceVector capacity_total = cl.total_capacity();

  // ---- the window's digest and the per-type sums behind it ----
  // The merge adds slot vectors into these accumulators in node order
  // (their summation order fixes the digest's bits); the flows, Lambda
  // and node pressure go straight into the digest.  The position is the
  // beta ledger, which only moves when one tenant funds another; on an
  // oversold node every slot is cut proportionally, the ledger stays
  // flat and only the granted entitlement shows the starvation.
  obs::RoundDigest digest;
  std::vector<ResourceVector> tenant_position(
      tenant_count, ResourceVector(kDefaultResourceCount));
  std::vector<ResourceVector> tenant_granted(
      tenant_count, ResourceVector(kDefaultResourceCount));
  std::vector<ResourceVector> tenant_demand(
      tenant_count, ResourceVector(kDefaultResourceCount));
  std::vector<double> tenant_score_weighted(tenant_count, 0.0);
  std::vector<double> tenant_score_weight(tenant_count, 0.0);
  // Cumulative per-phase seconds at the previous window tail, so the
  // digest carries this window's delta alone.
  std::array<double, obs::kPhaseCount> phase_prev{};

  // ---- shard plan for the parallel round ----
  // One pool task per shard; each shard walks its contiguous node range
  // serially.  `shards == 0` auto-sizes to a small multiple of the pool
  // width (capped at the host count) so chunk stealing can smooth load
  // imbalance between shards without drowning in dispatch overhead.
  const bool parallel_round = config.parallel_nodes && host_count > 1;
  std::unique_ptr<ShardExecutor> shard_executor;
  if (parallel_round) {
    const std::size_t auto_shards = std::min(
        host_count, std::max<std::size_t>(1, global_pool().thread_count()) * 4);
    const std::size_t shard_count =
        config.shards > 0 ? config.shards : auto_shards;
    shard_executor =
        std::make_unique<ShardExecutor>(ShardPlan::build(host_count,
                                                         shard_count));
  }

  std::vector<double> tenant_share_sum(tenant_count, 0.0);
  std::vector<std::string> tenant_names(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    tenant_share_sum[t] = cl.tenant_shares(t).sum();
    tenant_names[t] = cl.tenants()[t].name;
  }

  // rrf-lt: per-tenant contribution bank (EMA of per-window net giving).
  std::vector<double> lt_balance;
  if (policy.banks_contribution) {
    RRF_REQUIRE(config.ltrf_alpha > 0.0 && config.ltrf_alpha <= 1.0,
                "ltrf_alpha must be in (0, 1]");
    lt_balance.assign(tenant_count, 0.0);
  }

  // ---- fairness gauges and the one alerting pipeline ----
  // The auditor publishes gauges; the detector bank is the run's only
  // rule engine, built when anything consumes its alerts.
  std::unique_ptr<obs::FairnessAuditor> auditor;
  std::unique_ptr<obs::DetectorBank> bank;
  if (obs::metrics_enabled()) {
    auditor =
        std::make_unique<obs::FairnessAuditor>(tenant_names, tenant_share_sum);
  }
  if (obs::metrics_enabled() || config.ops != nullptr ||
      config.journal != nullptr || config.incidents != nullptr) {
    bank = std::make_unique<obs::DetectorBank>(
        config.detect, tenant_names, tenant_share_sum,
        obs::metrics_enabled() ? &obs::metrics() : nullptr);
  }
  // Alert transitions already drained into the journal.
  std::size_t alert_cursor = 0;
  // Incident open/resolve edges already relayed into the journal.
  std::size_t incident_event_cursor = 0;
  const auto relay_incidents = [&]() {
    if (config.incidents == nullptr || config.journal == nullptr) return;
    for (const obs::IncidentEvent& ev :
         config.incidents->events_since(&incident_event_cursor)) {
      obs::JournalIncident rec;
      rec.id = ev.id;
      rec.opened = ev.opened;
      rec.window = ev.window;
      rec.severity = obs::to_string(ev.severity);
      rec.kinds = ev.kinds;
      rec.dir = ev.dir;
      config.journal->record_incident(rec);
    }
  };
  if (config.incidents != nullptr) {
    config.incidents->set_metadata("policy", std::string(policy.name));
    config.incidents->set_metadata("windows", std::to_string(windows));
    config.incidents->set_metadata("window_seconds",
                                   std::to_string(config.window));
    config.incidents->set_metadata("hosts", std::to_string(host_count));
    config.incidents->set_metadata("tenants", std::to_string(tenant_count));
    if (shard_executor) {
      ShardExecutor* exec = shard_executor.get();
      config.incidents->set_extra_provider("shards.json", [exec]() {
        json::Object doc;
        doc.emplace_back("schema", "rrf-shards");
        doc.emplace_back("version", 1);
        json::Array entries;
        for (const ShardStats& s : exec->stats()) {
          const ShardRange& range = exec->plan().range(s.shard);
          json::Object so;
          so.emplace_back("shard", s.shard);
          so.emplace_back("nodes", range.end - range.begin);
          so.emplace_back("rounds", s.rounds);
          so.emplace_back("busy_seconds", s.busy_seconds);
          entries.emplace_back(std::move(so));
        }
        doc.emplace_back("shards", std::move(entries));
        return json::Value(std::move(doc)).dump();
      });
    }
  }

  // ---- flight recorder (allocation provenance) ----
  // Per-node capture buffers; each is filled by the one worker thread that
  // owns the node this window, so no lock is needed.  Everything stays
  // empty (and the hooks reduce to a thread-local pointer load) when no
  // recorder is attached.
  const bool flight_on = config.flight != nullptr;
  std::vector<obs::ProvenanceRound> node_prov(flight_on ? host_count : 0);
  std::vector<obs::FlightNode> flight_nodes(flight_on ? host_count : 0);
  obs::ProvenanceRound rebalance_prov;

  // Per-VM demands of the current window, one vector per tenant.
  std::vector<std::vector<ResourceVector>> demands(tenant_count);

  setup_profile.stop();

  for (std::size_t w = 0; w < windows; ++w) {
    const Seconds now = static_cast<double>(w) * config.window;
    if (flight_on) rebalance_prov.clear();

    // ---- epoch-level live migration (load balancing) ----
    if (config.rebalance.enabled && w > 0 &&
        w % config.rebalance.every_windows == 0) {
      obs::ProfileScope rebalance_profile("window.rebalance");
      std::vector<ResourceVector> capacities;
      capacities.reserve(host_count);
      for (std::size_t h = 0; h < host_count; ++h) {
        capacities.push_back(cl.hosts()[h].capacity);
      }
      std::vector<cluster::VmLoad> loads;
      std::vector<std::pair<std::size_t, std::size_t>> slot_ref;
      for (std::size_t h = 0; h < host_count; ++h) {
        for (std::size_t i = 0; i < nodes[h].slots.size(); ++i) {
          const VmSlot& slot = nodes[h].slots[i];
          cluster::VmLoad load;
          load.tenant = slot.tenant;
          load.vm = slot.vm;
          load.host = h;
          load.demand = slot.demand_ema;
          load.reserved =
              cl.tenants()[slot.tenant].vms[slot.vm].provisioned;
          loads.push_back(std::move(load));
          slot_ref.emplace_back(h, i);
        }
      }
      cluster::RebalancePlan plan;
      {
        std::optional<obs::ProvenanceScope> scope;
        if (flight_on) scope.emplace(&rebalance_prov);
        plan = cluster::plan_rebalance(capacities, loads,
                                       config.rebalance.options);
      }
      if (!plan.empty()) {
        std::vector<std::size_t> destination(loads.size());
        for (std::size_t r = 0; r < loads.size(); ++r) {
          destination[r] = loads[r].host;
        }
        for (const cluster::Migration& m : plan.migrations) {
          destination[m.vm_index] = m.to;
        }
        std::vector<std::vector<VmSlot>> new_slots(host_count);
        for (std::size_t r = 0; r < loads.size(); ++r) {
          const auto [h, i] = slot_ref[r];
          VmSlot slot = std::move(nodes[h].slots[i]);
          if (destination[r] != h) {
            slot.migration_penalty = config.rebalance.penalty_windows;
          }
          new_slots[destination[r]].push_back(std::move(slot));
        }
        for (std::size_t h = 0; h < host_count; ++h) {
          nodes[h].slots = std::move(new_slots[h]);
          // Rebuilding resets the memory actuators to boot levels; the
          // next apply_shares() retargets them within a window or two --
          // the same settling a real live migration incurs.
          rebuild_hv(nodes[h], h);
          refresh_alloc_cache(nodes[h], cl.hosts()[h].capacity, pricing);
        }
        result.migrations += plan.migrations.size();
        result.migrated_gb += plan.total_cost_gb;
        if (obs::tracing_enabled()) {
          for (const cluster::Migration& m : plan.migrations) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::kMigration;
            e.node = static_cast<std::int32_t>(m.from);
            e.tenant = static_cast<std::int32_t>(loads[m.vm_index].tenant);
            e.vm = static_cast<std::int32_t>(loads[m.vm_index].vm);
            e.window = static_cast<std::int32_t>(w);
            e.value = m.cost_gb;
            e.value2 = static_cast<double>(m.to);
            obs::tracer().record(e);
          }
        }
        if (obs::metrics_enabled()) {
          obs::metrics().counter("engine.migrations")
              .add(plan.migrations.size());
        }
      }
    }

    // Sample per-VM demands once per tenant (shared by all nodes).
    obs::ProfileScope demands_profile("window.demands");
    for (std::size_t t = 0; t < tenant_count; ++t) {
      demands[t] = scenario.workloads[t]->vm_demands_at(now);
    }

    for (std::size_t t = 0; t < tenant_count; ++t) {
      tenant_position[t] = tenant_granted[t] = tenant_demand[t] =
          ResourceVector(kDefaultResourceCount);
    }
    std::fill(tenant_score_weighted.begin(), tenant_score_weighted.end(),
              0.0);
    std::fill(tenant_score_weight.begin(), tenant_score_weight.end(), 0.0);
    digest.reset(tenant_count, host_count);
    digest.window = w;
    digest.time = now;
    demands_profile.stop();

    auto process_node = [&](std::size_t h) {
      NodeState& node = nodes[h];
      const std::size_t n = node.slots.size();
      if (n == 0) return;
      const auto node_id = static_cast<std::int32_t>(h);
      const auto window_id = static_cast<std::int32_t>(w);

      if (obs::tracing_enabled()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kAllocRoundBegin;
        e.node = node_id;
        e.window = window_id;
        e.value = static_cast<double>(n);
        obs::tracer().record(e);
      }

      // ---- predict: refresh demand forecasts for the round ----
      {
        obs::PhaseScope predict_phase(obs::Phase::kPredict, node_id,
                                      window_id,
                                      &node.phase_accum(obs::Phase::kPredict));
        // rrf-hot-path: begin(engine.predict)
        for (std::size_t i = 0; i < n; ++i) {
          const VmSlot& slot = node.slots[i];
          node.actual_demand[i] = demands[slot.tenant][slot.vm];

          ResourceVector forecast = node.actual_demand[i];
          if (config.use_predictor) {
            forecast =
                node.slots[i].predictor.observations() == 0
                    ? cl.tenants()[slot.tenant].vms[slot.vm].provisioned
                    : node.slots[i].predictor.predict();
          }
          node.demand_shares[i] = pricing.shares_for(forecast);
        }
        // rrf-hot-path: end(engine.predict)
      }

      // The sharing policy arbitrates the pool the tenants collectively
      // bought on this node (cached in node.pool); physical head-room
      // beyond it is handled by the work-conserving surplus pass below.
      const ResourceVector& pool = node.pool;

      // ---- allocate: sharing policy + work-conserving surplus pass ----
      obs::PhaseScope allocate_phase(obs::Phase::kAllocate, node_id,
                                     window_id,
                                     &node.phase_accum(obs::Phase::kAllocate));
      {
        std::optional<obs::ProvenanceScope> prov_scope;
        if (flight_on) prov_scope.emplace(&node_prov[h]);
        allocate_entitlements(policy, node, lt_balance);
      }
      if (policy.level != alloc::PolicyLevel::kStatic) {
        // rrf-hot-path: begin(engine.surplus)
        // Work-conserving surplus pass: physical capacity *nobody paid
        // for* flows to VMs with residual demand in proportion to their
        // shares.  Capacity the policy deliberately withheld inside the
        // sold pool (e.g. RRF denying free riders) stays idle — the
        // entitlement caps enforce the policy's decision, exactly like
        // the paper's non-work-conserving credit caps.
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          for (std::size_t i = 0; i < n; ++i) {
            node.residual[i] = std::max(
                0.0,
                node.demand_shares[i][k] - node.entitlement_shares[i][k]);
            node.weights[i] = node.slots[i].initial_share[k];
          }
          const double surplus = node.capacity_shares[k] - pool[k];
          if (surplus <= 0.0) continue;
          alloc::weighted_max_min_into(surplus, node.residual, node.weights,
                                       node.surplus_extra, node.wmm_order);
          for (std::size_t i = 0; i < n; ++i) {
            node.entitlement_shares[i][k] += node.surplus_extra[i];
          }
        }
        // rrf-hot-path: end(engine.surplus)
      }
      if (contract::armed()) {
        // Physical safety: the policy arbitrates the sold pool and the
        // surplus pass tops entitlements up with *unsold* head-room, so
        // the node hands out at most max(pool, physical capacity) of any
        // type — never shares it does not have.
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          double entitled = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            entitled += node.entitlement_shares[i][k];
          }
          const double limit = std::max(pool[k], node.capacity_shares[k]);
          RRF_INVARIANT("engine.node_capacity_safe",
                        approx_le(entitled, limit, 1e-7),
                        "node " + std::to_string(h) + " type " +
                            std::to_string(k) + " entitles " +
                            std::to_string(entitled) + " of " +
                            std::to_string(limit) + " shares");
        }
      }
      allocate_phase.stop();
      ++node.alloc_invocations;

      // ---- actuate: push entitlements into the hypervisor and advance ----
      {
        obs::PhaseScope actuate_phase(
            obs::Phase::kActuate, node_id, window_id,
            &node.phase_accum(obs::Phase::kActuate));
        if (config.use_actuators) {
          node.hv_node->apply_shares(node.entitlement_shares);
          node.realized =
              node.hv_node->step(config.window, node.actual_demand);
        } else {
          node.realized.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            node.realized[i] = ResourceVector::elementwise_min(
                pricing.capacity_for(node.entitlement_shares[i]),
                node.actual_demand[i]);
          }
        }
      }

      // ---- settle: predictor updates, economic ledger, aggregation ----
      obs::PhaseScope settle_phase(obs::Phase::kSettle, node_id, window_id,
                                   &node.phase_accum(obs::Phase::kSettle));
      // rrf-hot-path: begin(engine.settle)
      for (std::size_t i = 0; i < n; ++i) {
        node.slots[i].predictor.observe(node.actual_demand[i]);
        // Demand EMA for the rebalancer.
        VmSlot& slot = node.slots[i];
        if (slot.predictor.observations() <= 1) {
          slot.demand_ema = node.actual_demand[i];
        } else {
          slot.demand_ema =
              slot.demand_ema * (1.0 - config.rebalance.demand_ema_alpha) +
              node.actual_demand[i] * config.rebalance.demand_ema_alpha;
        }
      }

      // Economic ledger for beta (paper Section VI-C): a tenant's share
      // position S'_t is her initial share minus what other tenants
      // actually consumed of her surplus, plus what she took beyond her
      // share.  Surplus nobody took is not a loss, and over-takes funded
      // by unsold platform head-room are not financed by any tenant.
      // (beta_shares is fully overwritten below; the contributed/gained
      // accumulators must be re-zeroed each round.)
      std::vector<ResourceVector>& beta_shares = node.beta_shares;
      // Realized reciprocity flows per slot, for the fairness gauges and
      // the detector bank:
      // shares of this VM's surplus other tenants consumed, and shares it
      // took financed by other tenants' surplus.
      std::fill(node.slot_contributed.begin(), node.slot_contributed.end(),
                0.0);
      std::fill(node.slot_gained.begin(), node.slot_gained.end(), 0.0);
      std::vector<double>& slot_contributed = node.slot_contributed;
      std::vector<double>& slot_gained = node.slot_gained;
      {
        const ResourceVector& capacity_shares = node.capacity_shares;
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          double taken = 0.0, contributed = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double a = node.entitlement_shares[i][k];
            const double s = node.slots[i].initial_share[k];
            taken += std::max(0.0, a - s);
            contributed += std::max(0.0, s - a);
          }
          const double headroom =
              std::max(0.0, capacity_shares[k] - pool[k]);
          const double tenant_funded = std::max(0.0, taken - headroom);
          // Losses: a contributor only loses the fraction of her surplus
          // other tenants actually consumed.  Gains: only the fraction
          // financed by other tenants counts — over-takes covered by
          // unsold platform head-room improve performance but move no
          // asset between tenants.  The counted gains and losses balance.
          const double theta =
              contributed > 0.0
                  ? std::min(1.0, tenant_funded / contributed)
                  : 0.0;
          const double phi = taken > 0.0 ? tenant_funded / taken : 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double a = node.entitlement_shares[i][k];
            const double s = node.slots[i].initial_share[k];
            const double loss = theta * std::max(0.0, s - a);
            const double gain = phi * std::max(0.0, a - s);
            beta_shares[i][k] = s - loss + gain;
            slot_contributed[i] += loss;
            slot_gained[i] += gain;
          }
        }
      }

      // Dominant-share pressure of this node's aggregate demand, for the
      // auditor's per-node scope (written without the lock: one writer
      // per host).
      {
        ResourceVector demand_total(kDefaultResourceCount);
        for (std::size_t i = 0; i < n; ++i) {
          demand_total += node.actual_demand[i];
        }
        digest.node_pressure[h] =
            cluster::host_pressure(cl.hosts()[h].capacity, demand_total);
      }

      // Exchange inputs: everything the window's global merge needs from
      // this node, computed here (pure per-slot arithmetic, safe in
      // parallel) so the merge itself only performs the accumulator adds
      // in canonical node order.
      for (std::size_t i = 0; i < n; ++i) {
        node.slot_demand_shares[i] = pricing.shares_for(node.actual_demand[i]);
        double score = perf.step_score(
            scenario.workloads[node.slots[i].tenant]->metric(),
            node.actual_demand[i], node.realized[i]);
        if (node.slots[i].migration_penalty > 0) {
          score *= config.rebalance.slowdown;
          --node.slots[i].migration_penalty;
        }
        node.slot_score[i] = score;
      }
      // rrf-hot-path: end(engine.settle)
      settle_phase.stop();

      if (flight_on) {
        flight_nodes[h] =
            build_flight_node(h, node, config.use_actuators, node_prov[h]);
      }

      if (obs::tracing_enabled()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kAllocRoundEnd;
        e.node = node_id;
        e.window = window_id;
        e.value = static_cast<double>(n);
        obs::tracer().record(e);
      }
    };

    {
      // Covers the per-node fan-out plus its glue; in the serial path the
      // four phase frames nest under it, in the parallel path they root in
      // the worker threads' own arenas.
      obs::ProfileScope dispatch_profile("window.dispatch");
      if (parallel_round) {
        shard_executor->run_round(process_node);
      } else {
        for (std::size_t h = 0; h < host_count; ++h) process_node(h);
      }
    }

    // ---- global exchange: canonical serial merge in ascending node order.
    // Every node published its exchange inputs (the IRT Lambda, beta_shares,
    // slot_{contributed,gained,demand_shares,score}) during its allocate
    // and settle phases; folding them here, single-threaded and always in
    // node order, makes the tenant ledgers bit-identical for any shard or
    // thread count — and identical to the historical serial path, whose
    // lock acquisition order was node order too.
    {
      obs::ProfileScope exchange_profile("window.exchange");
      // rrf-hot-path: begin(engine.merge)
      for (std::size_t h = 0; h < host_count; ++h) {
        const NodeState& node = nodes[h];
        const std::size_t n = node.slots.size();
        if (n == 0) continue;
        digest.slots += n;
        if (policy.rrf != nullptr) {
          // IRT's entity g is tenant tenant_ids[g] (ascending, the order
          // the groups were built in).
          const std::vector<double>& lambda =
              node.tenant_result.tenant_level.contribution_lambda;
          for (std::size_t g = 0; g < node.tenant_ids.size(); ++g) {
            digest.tenant_lambda[node.tenant_ids[g]] += lambda[g];
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          const VmSlot& slot = node.slots[i];
          tenant_position[slot.tenant] += node.beta_shares[i];
          tenant_granted[slot.tenant] += node.entitlement_shares[i];
          digest.tenant_contributed[slot.tenant] += node.slot_contributed[i];
          digest.tenant_gained[slot.tenant] += node.slot_gained[i];
          const ResourceVector& d_shares = node.slot_demand_shares[i];
          tenant_demand[slot.tenant] += d_shares;
          const double weight = std::max(1e-9, d_shares.sum());
          tenant_score_weighted[slot.tenant] += node.slot_score[i] * weight;
          tenant_score_weight[slot.tenant] += weight;
          used_total += node.realized[i] * config.window;
        }
      }
      // rrf-hot-path: end(engine.merge)
    }

    // ---- window tail: per-tenant roll-ups and observer fan-out ----
    obs::ProfileScope finalize_profile("window.finalize");

    if (flight_on) {
      obs::FlightRound round;
      round.round = w;
      round.time = now;
      if (rebalance_prov.has_rebalance) {
        round.pressure_before = rebalance_prov.pressure_before;
        round.pressure_after = rebalance_prov.pressure_after;
        round.migrations.reserve(rebalance_prov.migrations.size());
        for (const obs::ProvenanceMigration& m : rebalance_prov.migrations) {
          round.migrations.push_back(
              obs::FlightMigration{m.tenant, m.vm, m.from, m.to, m.cost_gb});
        }
      }
      round.nodes.reserve(host_count);
      for (std::size_t h = 0; h < host_count; ++h) {
        if (nodes[h].slots.empty()) continue;
        round.nodes.push_back(std::move(flight_nodes[h]));
      }
      config.flight->record_round(round);
    }

    for (std::size_t t = 0; t < tenant_count; ++t) {
      digest.tenant_position[t] = tenant_position[t].sum();
      digest.tenant_granted[t] = tenant_granted[t].sum();
      digest.tenant_demand[t] = tenant_demand[t].sum();
      digest.tenant_score[t] =
          tenant_score_weight[t] > 0.0
              ? tenant_score_weighted[t] / tenant_score_weight[t]
              : 1.0;
      result.tenants[t].record_window(digest.tenant_position[t],
                                      digest.tenant_demand[t],
                                      digest.tenant_score[t]);
    }
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      double cumulative = 0.0;
      for (const auto& node : nodes) cumulative += node.phase_seconds[i];
      digest.phase_seconds[i] = cumulative - phase_prev[i];
      phase_prev[i] = cumulative;
    }

    if (policy.banks_contribution) {
      // Net giving this window = initial shares minus the ledger position
      // (positive when other tenants consumed this tenant's surplus).
      for (std::size_t t = 0; t < tenant_count; ++t) {
        const double net = tenant_share_sum[t] - digest.tenant_position[t];
        lt_balance[t] += config.ltrf_alpha * (net - lt_balance[t]);
      }
    }

    if (auditor) auditor->observe_round(digest);

    if (bank) {
      obs::RoundSummary summary =
          obs::summarize_round(digest, tenant_names, tenant_share_sum);
      bank->observe_round(summary);
      summary.active_alerts = bank->active_alerts();
      summary.alerts_total = bank->raised().size();
      if (config.incidents != nullptr) {
        config.incidents->observe_round(summary, *bank);
      }
      if (config.journal != nullptr) {
        for (const obs::AlertTransition& tr :
             bank->transitions_since(alert_cursor)) {
          obs::JournalAlert alert;
          alert.kind = obs::to_string(tr.kind);
          alert.raised = tr.raised;
          alert.tenant = tr.tenant;
          if (tr.tenant >= 0) {
            alert.tenant_name =
                tenant_names[static_cast<std::size_t>(tr.tenant)];
          }
          alert.window = tr.window;
          alert.value = tr.value;
          alert.threshold = tr.threshold;
          config.journal->record_alert(alert);
        }
        relay_incidents();
        config.journal->record_round(summary);
      }
      alert_cursor = bank->transitions().size();
      if (config.ops != nullptr) {
        config.ops->set_alerts_json(bank->alerts_document().dump());
        config.ops->publish_round(summary);
      }
    }

    if (config.observer) config.observer(digest);
  }

  for (const auto& node : nodes) {
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      result.phase_seconds[i] += node.phase_seconds[i];
    }
    result.alloc_invocations += node.alloc_invocations;
  }
  result.alloc_seconds_total = result.phase_total(obs::Phase::kAllocate);
  if (shard_executor) {
    // Fold in what the executor can't see: how many VM slots each shard's
    // nodes ended the run hosting (the imbalance denominator).
    for (ShardStats& stats : shard_executor->stats()) {
      const ShardRange& range = shard_executor->plan().range(stats.shard);
      stats.slots = 0;
      for (std::size_t h = range.begin; h < range.end; ++h) {
        stats.slots += nodes[h].slots.size();
      }
    }
    shard_executor->publish_metrics();
    result.shards = shard_executor->stats();
  }
  if (config.incidents != nullptr) {
    config.incidents->finalize();
    relay_incidents();
    // The providers capture shard state local to this run; never leave
    // them dangling on the caller-owned manager.
    config.incidents->clear_providers();
  }
  if (bank) result.alerts = bank->raised();
  if (obs::metrics_enabled()) {
    obs::metrics().counter("engine.windows").add(windows);
    obs::metrics().counter("engine.alloc_rounds").add(result.alloc_invocations);
  }
  const double horizon =
      static_cast<double>(windows) * config.window;
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    result.mean_utilization[k] =
        used_total[k] / (capacity_total[k] * horizon);
  }
  return result;
}

}  // namespace rrf::sim
