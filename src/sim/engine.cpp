#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <span>

#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "hypervisor/node.hpp"
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
/// travels with the VM when the load balancer migrates it, as does its
/// row of the node's PredictorBank).
struct VmSlot {
  std::size_t tenant;
  std::size_t vm;
  ResourceVector initial_share;  // in shares
  /// Smoothed demand estimate (capacity units) the rebalancer plans on;
  /// tracked only while rebalancing is enabled.
  ResourceVector demand_ema{0.0, 0.0};
  /// Remaining windows of post-migration degradation.
  std::size_t migration_penalty{0};
};

/// One double per (resource type, entry), type-major: type k's values of
/// every entry are contiguous, so a per-type loop walks one array.
struct TypeArrays {
  std::vector<double> values;
  std::size_t width{0};  ///< entries per type

  /// Sizes for `entries` per type, all zero; keeps capacity.
  void assign(std::size_t entries) {
    width = entries;
    values.assign(kDefaultResourceCount * entries, 0.0);
  }
  double* type(std::size_t k) { return values.data() + k * width; }
  const double* type(std::size_t k) const { return values.data() + k * width; }
  double& at(std::size_t k, std::size_t i) { return values[k * width + i]; }
  double at(std::size_t k, std::size_t i) const { return values[k * width + i]; }

  ResourceVector entry(std::size_t i) const {
    ResourceVector v(kDefaultResourceCount);
    copy_entry(i, v);
    return v;
  }
  /// Entry i into the components of `v`, which keeps its arity.
  void copy_entry(std::size_t i, ResourceVector& v) const {
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) v[k] = at(k, i);
  }
  void set_entry(std::size_t i, const ResourceVector& v) {
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) at(k, i) = v[k];
  }
  /// Entry i summed over types, in type order (ResourceVector::sum).
  double sum(std::size_t i) const {
    double total = 0.0;
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) total += at(k, i);
    return total;
  }
};

/// Per-node simulation state.
///
/// The per-VM shell of a node round runs over per-type arrays indexed by
/// slot (TypeArrays): the demand predictor is one batched kernel over the
/// node's VMs (PredictorBank, row i = slot i), and actuate (actuators
/// off), settle and the exchange merge are one loop per type.
///
/// Besides the slot list and the hypervisor facade this carries the
/// node's *allocation scaffolding cache*: the tenant membership lists,
/// flat weights, pool and capacity share vectors are functions of the
/// slot membership only, so they are rebuilt exactly when membership
/// changes (initial placement, live migration) instead of every round.
/// Both policy levels read the per-type arrays in place (TenantColumns,
/// FlatColumns) and write node.entitlement.
/// Per-round scratch buffers, the policy's workspace and its result
/// buffers live here too, so once they have grown to the node's size the
/// round performs no heap allocation; NodeState is touched by one thread
/// at a time (each node belongs to one shard, and one worker runs the
/// shard).
struct NodeState {
  std::size_t host{0};  ///< index into the cluster's hosts
  std::vector<VmSlot> slots;
  PredictorBank predictors{kDefaultResourceCount, 0, PredictorConfig{}};
  /// Built only while actuators are on.
  std::unique_ptr<hv::HypervisorNode> hv_node;
  // Per slot and type, refreshed every window:
  TypeArrays actual;         ///< demand, capacity units
  TypeArrays demand_shares;  ///< forecast, in shares
  TypeArrays entitlement;    ///< shares
  TypeArrays realized;       ///< capacity units
  TypeArrays beta;           ///< ledger position, shares
  /// Exchange input: the actual demand in shares.
  TypeArrays slot_demand_shares;
  /// Dominant-share pressure of this window's aggregate demand.
  double pressure{0.0};

  // ---- allocation scaffolding (valid while slot membership unchanged) ----
  /// Sum of the slots' initial shares, capped per type at the host's
  /// capacity (the pool the policy arbitrates).
  ResourceVector pool{kDefaultResourceCount};
  /// pricing.shares_for(host capacity), fixed per host.
  ResourceVector capacity_shares{kDefaultResourceCount};
  /// Per slot, the share its tenant bought (the ledger's reference and
  /// the surplus pass's weight).
  TypeArrays initial;
  /// Per slot, the part of its initial share the host can back: on a
  /// type sold beyond capacity the initial share times capacity / sold,
  /// else the initial share itself.  Every policy level allocates over it.
  TypeArrays backed;
  /// Flat policies view every VM as one entity weighted by its backed
  /// share summed over types.  Built only for a flat policy.
  std::vector<double> flat_weight;
  /// Tenants present on this node, ascending (the order std::map-based
  /// grouping used to produce, so allocations stay bit-identical).
  std::vector<std::size_t> tenant_ids;
  /// The tenant level's grouping: tenant g (tenant_ids[g]) holds the
  /// slots members[first[g]] .. members[first[g + 1] - 1], in slot order.
  std::vector<std::size_t> members;
  std::vector<std::size_t> first;
  /// Per tenant on the node: rrf-lt's banked credit (refreshed every
  /// round it banks) and IRT's Lambda(i).
  std::vector<double> tenant_banked;
  std::vector<double> tenant_lambda;

  // ---- per-round scratch ----
  std::vector<double> residual;
  std::vector<double> slot_contributed;
  std::vector<double> slot_gained;
  /// Exchange input: the slot's migration-adjusted perf score.  With
  /// slot_demand_shares it is filled by the settle phase and consumed by
  /// the window's canonical serial merge, so the parallel round touches
  /// no shared accumulator until the merge walks the nodes in order.
  std::vector<double> slot_score;
  /// Surplus-pass outputs and weighted_max_min_into's scratch, one slot
  /// per VM (the per-round surplus water-fill must not heap-allocate).
  std::vector<double> surplus_extra;
  std::vector<std::size_t> wmm_order;
  /// Actuators on: the hypervisor's per-VM view of the arrays (built only
  /// then).
  std::vector<ResourceVector> hv_shares;
  std::vector<ResourceVector> hv_demand;
  std::vector<ResourceVector> hv_realized;
  /// The policy's scratch (and the idle shares it reports).
  alloc::Workspace workspace;
};

/// Rebuilds the allocation scaffolding after slot membership changed; the
/// flat weights only for a flat policy (`level`), which alone reads them.
void refresh_alloc_cache(NodeState& node, const ResourceVector& host_capacity,
                         const PricingModel& pricing,
                         alloc::PolicyLevel level) {
  const std::size_t n = node.slots.size();

  node.initial.assign(n);
  node.pool = ResourceVector(kDefaultResourceCount);
  for (std::size_t i = 0; i < n; ++i) {
    node.initial.set_entry(i, node.slots[i].initial_share);
    node.pool += node.slots[i].initial_share;
  }
  node.capacity_shares = pricing.shares_for(host_capacity);
  // An oversold node cannot grant shares it does not have: per oversold
  // type the pool is capped at capacity and every slot's share is scaled
  // by capacity / sold, so its tenants contend for what the host backs
  // and their granted ratios drop below 1.  When sold <= capacity —
  // every placed paper scenario and any synthetic fill*overcommit <= 1 —
  // nothing is scaled and allocation is bit-identical.
  node.backed = node.initial;
  for (std::size_t k = 0; k < node.pool.size(); ++k) {
    if (node.pool[k] <= node.capacity_shares[k]) continue;
    const double backed = node.capacity_shares[k] / node.pool[k];
    double* share = node.backed.type(k);
    for (std::size_t i = 0; i < n; ++i) share[i] *= backed;
    node.pool[k] = node.capacity_shares[k];
  }

  if (level == alloc::PolicyLevel::kFlat) {
    node.flat_weight.resize(n);
    for (std::size_t i = 0; i < n; ++i) node.flat_weight[i] = node.backed.sum(i);
  }

  // The tenant level's grouping: the slots ordered by tenant (ascending,
  // the order std::map-based grouping used to produce, so allocations
  // stay bit-identical), each tenant's in slot order, and where each
  // tenant's run starts.
  node.members.resize(n);
  std::iota(node.members.begin(), node.members.end(), std::size_t{0});
  std::stable_sort(node.members.begin(), node.members.end(),
                   [&node](std::size_t a, std::size_t b) {
                     return node.slots[a].tenant < node.slots[b].tenant;
                   });
  node.tenant_ids.clear();
  node.first.clear();
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t tenant = node.slots[node.members[t]].tenant;
    if (node.tenant_ids.empty() || node.tenant_ids.back() != tenant) {
      node.tenant_ids.push_back(tenant);
      node.first.push_back(t);
    }
  }
  node.first.push_back(n);
  node.tenant_banked.assign(node.tenant_ids.size(), 0.0);
  node.tenant_lambda.assign(node.tenant_ids.size(), 0.0);

  for (TypeArrays* a :
       {&node.actual, &node.demand_shares, &node.entitlement, &node.realized,
        &node.beta, &node.slot_demand_shares}) {
    a->assign(n);
  }
  for (std::vector<double>* v :
       {&node.residual, &node.slot_contributed, &node.slot_gained,
        &node.slot_score, &node.surplus_extra}) {
    v->assign(n, 0.0);
  }
  node.wmm_order.assign(n, 0);
}

/// Computes share entitlements for one node and one window into
/// node.entitlement, using the cached scaffolding: both policy levels read
/// the backed shares and node.demand_shares in place.
/// `tenant_banked` (indexed by tenant id) carries the rrf-lt contribution
/// bank; empty for every other policy.
void allocate_entitlements(const alloc::Policy& policy, NodeState& node,
                           std::span<const double> tenant_banked) {
  const std::size_t n = node.slots.size();
  // rrf-hot-path: begin(engine.static)
  if (policy.level == alloc::PolicyLevel::kStatic) {
    node.entitlement.values = node.backed.values;
    return;
  }
  // rrf-hot-path: end(engine.static)

  // rrf-hot-path: begin(engine.flat)
  if (policy.level == alloc::PolicyLevel::kFlat) {
    policy.allocator->allocate_flat(
        node.pool,
        alloc::FlatColumns{kDefaultResourceCount, n, node.backed.values,
                           node.demand_shares.values, node.flat_weight, {}},
        node.workspace, node.entitlement.values, node.workspace.unallocated,
        nullptr);
    return;
  }
  // rrf-hot-path: end(engine.flat)

  // Tenant level, straight over the node's arrays.
  // rrf-hot-path: begin(engine.tenant)
  const bool banked = !tenant_banked.empty();
  if (banked) {
    for (std::size_t g = 0; g < node.tenant_ids.size(); ++g) {
      node.tenant_banked[g] = node.tenant_ids[g] < tenant_banked.size()
                                  ? tenant_banked[node.tenant_ids[g]]
                                  : 0.0;
    }
  }
  const alloc::TenantColumns columns{
      kDefaultResourceCount,
      n,
      node.backed.values,
      node.demand_shares.values,
      node.members,
      node.first,
      banked ? std::span<const double>(node.tenant_banked)
             : std::span<const double>()};
  if (policy.rrf == nullptr) {
    // Tenant entitlement is static (its own shares); IWA moves shares
    // between the tenant's VMs only.
    alloc::iwa_tenants(columns, node.workspace, node.entitlement.values);
  } else {
    policy.rrf->allocate_tenants(node.pool, columns, node.workspace,
                                 node.entitlement.values, node.tenant_lambda);
  }
  // rrf-hot-path: end(engine.tenant)
}

/// What every phase reads: the run's inputs, plus the per-window inputs
/// the window phases refresh before each node fan-out.  Node phases take
/// it by const reference, so a parallel round cannot write it.
struct RunContext {
  RunContext(const Scenario& scenario_in, const EngineConfig& config_in)
      : scenario(scenario_in),
        pricing(scenario_in.cluster.pricing()),
        policy(alloc::policy(config_in.policy)),
        config(config_in),
        perf(config_in.perf),
        windows(static_cast<std::size_t>(config_in.duration /
                                         config_in.window)),
        paid(tenant_count(), 0.0),
        metric(tenant_count()),
        demands(tenant_count()) {
    for (std::size_t t = 0; t < tenant_count(); ++t) {
      paid[t] = scenario.cluster.tenant_shares(t).sum();
      metric[t] = scenario.workloads[t]->metric();
      demands[t].assign(scenario.workloads[t]->vm_split().size(),
                        ResourceVector(kDefaultResourceCount));
    }
    if (policy.banks_contribution) lt_balance.assign(tenant_count(), 0.0);
  }

  std::size_t tenant_count() const {
    return scenario.cluster.tenants().size();
  }
  std::size_t host_count() const { return scenario.cluster.hosts().size(); }
  const ResourceVector& capacity(std::size_t host) const {
    return scenario.cluster.hosts()[host].capacity;
  }
  const cluster::VmSpec& vm(const VmSlot& slot) const {
    return scenario.cluster.tenants()[slot.tenant].vms[slot.vm];
  }
  /// Simulated seconds at the start of the current window.
  Seconds now() const { return static_cast<double>(window) * config.window; }

  const Scenario& scenario;
  const PricingModel& pricing;
  const alloc::Policy& policy;
  const EngineConfig& config;
  const wl::PerfModel perf;
  const std::size_t windows;
  /// S(i): each tenant's bought shares, summed over types.
  std::vector<double> paid;
  /// How each tenant's application scores a window.
  std::vector<wl::PerfMetric> metric;

  // ---- per window, written only between node fan-outs ----
  std::size_t window{0};
  /// Per-VM demands of the window: one buffer per tenant, sized once to
  /// the VMs its workload models (at least the tenant's VMs).
  std::vector<std::vector<ResourceVector>> demands;
  /// rrf-lt: per-tenant contribution bank (EMA of per-window net giving);
  /// empty for every other policy.
  std::vector<double> lt_balance;
};

/// The merge's accumulators: the window's digest and the per-type tenant
/// sums behind its columns, added in node order (the order fixes the
/// digest's bits).  The position is the beta ledger, which only moves
/// when one tenant funds another; on an oversold node every slot is cut
/// proportionally, so only the granted entitlement shows the starvation.
struct WindowTotals {
  explicit WindowTotals(std::size_t shards) : shard_phase_seconds(shards) {}

  /// Sizes and zeroes everything but used_total and shard_phase_seconds;
  /// keeps capacity.
  void reset(std::size_t tenants, std::size_t hosts) {
    for (TypeArrays* sum : {&position, &granted, &demand}) sum->assign(tenants);
    score_weighted.assign(tenants, 0.0);
    score_weight.assign(tenants, 0.0);
    digest.reset(tenants, hosts);
  }

  obs::RoundDigest digest;
  /// Per type and tenant.
  TypeArrays position;
  TypeArrays granted;
  TypeArrays demand;
  std::vector<double> score_weighted;
  std::vector<double> score_weight;
  /// Capacity-seconds used, summed over the whole run.
  ResourceVector used_total = ResourceVector(kDefaultResourceCount);
  /// Per shard, this window's wall seconds per phase: each shard's round
  /// writes its own entry, the merge adds them in shard order.
  std::vector<obs::PhaseClock::Seconds> shard_phase_seconds;
};

/// Rejects a config the window loop cannot run, before anything is built.
void check_config(const EngineConfig& config) {
  RRF_REQUIRE(config.window > 0.0 && config.duration >= config.window,
              "bad window/duration");
  // The run's window count is duration / window converted to an integer:
  // at or above 2^64 that conversion is undefined, and from 2^53 on the
  // quotient is no longer an exact count.
  const double windows = config.duration / config.window;
  RRF_REQUIRE(windows < 0x1p53, "duration / window = " +
                                    TextTable::exact(windows) +
                                    " windows, not below 2^53");
  RRF_REQUIRE(!config.rebalance.enabled || config.rebalance.every_windows >= 1,
              "rebalance.every_windows must be >= 1");
  RRF_REQUIRE(!alloc::policy(config.policy).banks_contribution ||
                  (config.ltrf_alpha > 0.0 && config.ltrf_alpha <= 1.0),
              "ltrf_alpha must be in (0, 1]");
  // The predictor checks its own config; one probe covers a run whose
  // nodes host no VM.
  static_cast<void>(PredictorBank(kDefaultResourceCount, 0, config.predictor));
}

/// Rejects a scenario the engine would index out of bounds, before
/// anything is built: every tenant needs a workload that models at least
/// its VMs and one host index per VM, naming a host.  (The demands a
/// workload yields are checked against its buffer when sample_demands
/// fills it.)
void check_scenario(const Scenario& scenario) {
  const auto& tenants = scenario.cluster.tenants();
  const std::size_t hosts = scenario.cluster.hosts().size();
  RRF_REQUIRE(scenario.workloads.size() <= tenants.size(),
              std::to_string(scenario.workloads.size()) + " workloads for " +
                  std::to_string(tenants.size()) + " tenants");
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const std::string& name = tenants[t].name;
    RRF_REQUIRE(t < scenario.workloads.size() && scenario.workloads[t],
                "tenant " + name + " has no workload");
    const std::size_t modeled = scenario.workloads[t]->vm_split().size();
    RRF_REQUIRE(modeled >= tenants[t].vms.size(),
                "tenant " + name + " has " +
                    std::to_string(tenants[t].vms.size()) +
                    " VMs but its workload models " +
                    std::to_string(modeled));
    RRF_REQUIRE(t < scenario.host_of.size() &&
                    scenario.host_of[t].size() == tenants[t].vms.size(),
                "tenant " + name + " needs one host index per VM (" +
                    std::to_string(tenants[t].vms.size()) + ")");
    for (std::size_t j = 0; j < tenants[t].vms.size(); ++j) {
      RRF_REQUIRE(scenario.host_of[t][j] < hosts,
                  "tenant " + name + " VM " + std::to_string(j) +
                      " is placed on host " +
                      std::to_string(scenario.host_of[t][j]) + " of " +
                      std::to_string(hosts));
    }
  }
}

/// (Re)builds a node's allocation scaffolding, and with actuators on its
/// hypervisor facade and the facade's per-VM buffers, from its current
/// slot list: at set-up and after live migrations reshuffle the slots.
/// With actuators off nothing reads the facade, so none is built.
void rebuild_node(const RunContext& run, NodeState& node) {
  refresh_alloc_cache(node, run.capacity(node.host), run.pricing,
                      run.policy.level);
  if (!run.config.use_actuators) return;
  for (std::vector<ResourceVector>* v :
       {&node.hv_shares, &node.hv_demand, &node.hv_realized}) {
    v->assign(node.slots.size(), ResourceVector(kDefaultResourceCount));
  }
  hv::HypervisorNode::Config hv_config;
  hv_config.capacity = run.capacity(node.host);
  hv_config.pricing = run.pricing;
  hv_config.memory_backend = run.config.memory_backend;
  hv_config.balloon_rate_gb_s = run.config.balloon_rate_gb_s;
  hv_config.use_sliced_scheduler = run.config.use_sliced_scheduler;
  node.hv_node = std::make_unique<hv::HypervisorNode>(hv_config);
  for (const VmSlot& slot : node.slots) {
    const cluster::VmSpec& vm = run.vm(slot);
    try {
      node.hv_node->add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
    } catch (const PreconditionError& e) {
      throw PreconditionError(
          "tenant " + run.scenario.cluster.tenants()[slot.tenant].name +
          " VM " + std::to_string(slot.vm) + " boots with " +
          TextTable::exact(vm.provisioned[Resource::kRam]) +
          " GB against its memory ceiling of " +
          TextTable::exact(vm.max_mem_gb) + " GB: " + e.what());
    }
  }
}

/// One node per host, holding every placed VM in tenant, then VM, order,
/// with a fresh predictor row per VM.
std::vector<NodeState> place_vms(const RunContext& run) {
  const Scenario& scenario = run.scenario;
  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());
  std::vector<NodeState> nodes(run.host_count());
  std::vector<std::size_t> placed(nodes.size(), 0);
  for (std::size_t t = 0; t < run.tenant_count(); ++t) {
    for (std::size_t j = 0; j < scenario.host_of[t].size(); ++j) {
      if (!unplaced.contains({t, j})) ++placed[scenario.host_of[t][j]];
    }
  }
  for (std::size_t h = 0; h < nodes.size(); ++h) {
    nodes[h].host = h;
    nodes[h].slots.reserve(placed[h]);
  }
  for (std::size_t t = 0; t < run.tenant_count(); ++t) {
    const auto& vms = scenario.cluster.tenants()[t].vms;
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (unplaced.contains({t, j})) continue;
      // Every level reads the bought shares; the static one checks nothing.
      const ResourceVector shares = scenario.cluster.vm_shares(t, j);
      for (const double share : shares.values()) {
        if (!(share >= 0.0 && std::isfinite(share))) {
          throw PreconditionError(
              "tenant " + scenario.cluster.tenants()[t].name + " VM " +
              std::to_string(j) + " buys " + shares.to_exact_string() +
              " shares; bought shares must be finite and non-negative");
        }
      }
      nodes[scenario.host_of[t][j]].slots.push_back(
          VmSlot{t, j, shares, ResourceVector(kDefaultResourceCount), 0});
    }
  }
  for (NodeState& node : nodes) {
    node.predictors = PredictorBank(kDefaultResourceCount, node.slots.size(),
                                    run.config.predictor);
    rebuild_node(run, node);
  }
  return nodes;
}

/// The parallel round's executor (one pool task per shard, each walking
/// its contiguous node range), or nullptr when the round runs serially.
/// `shards == 0` auto-sizes to a small multiple of the pool width so chunk
/// stealing can smooth load imbalance between shards.  Every count is
/// capped at the host count: results are bit-identical for any count, so
/// more shards would only cost memory and dispatch time.
std::unique_ptr<ShardExecutor> make_executor(const EngineConfig& config,
                                             std::size_t host_count) {
  if (!config.parallel_nodes || host_count <= 1) return nullptr;
  const std::size_t wanted =
      config.shards > 0
          ? config.shards
          : std::max<std::size_t>(1, global_pool().thread_count()) * 4;
  return std::make_unique<ShardExecutor>(
      ShardPlan::build(host_count, std::min(host_count, wanted)));
}

/// Predict: this window's demand per slot, and the forecast (in shares)
/// the policy arbitrates.
void predict(const RunContext& run, NodeState& node) {
  const std::size_t n = node.slots.size();
  // rrf-hot-path: begin(engine.predict)
  for (std::size_t i = 0; i < n; ++i) {
    const VmSlot& slot = node.slots[i];
    node.actual.set_entry(i, run.demands[slot.tenant][slot.vm]);
  }
  if (run.config.use_predictor) {
    node.predictors.predict(node.demand_shares.values,
                            /*issue_unobserved=*/false);
    // Before its first observation a VM is forecast at its provisioned
    // capacity.
    for (std::size_t i = 0; i < n; ++i) {
      if (node.predictors.observations(i) == 0) {
        node.demand_shares.set_entry(i, run.vm(node.slots[i]).provisioned);
      }
    }
  } else {
    node.demand_shares.values = node.actual.values;
  }
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    const double price = run.pricing.unit_prices()[k];
    double* shares = node.demand_shares.type(k);
    for (std::size_t i = 0; i < n; ++i) shares[i] *= price;
  }
  // rrf-hot-path: end(engine.predict)
}

/// Work-conserving surplus pass: physical capacity *nobody paid for*
/// flows to VMs with residual demand in proportion to their shares.
/// Capacity the policy deliberately withheld inside the sold pool (e.g.
/// RRF denying free riders) stays idle — the entitlement caps enforce the
/// policy's decision, exactly like the paper's non-work-conserving credit
/// caps.
void add_surplus(NodeState& node) {
  const std::size_t n = node.slots.size();
  // rrf-hot-path: begin(engine.surplus)
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    const double surplus = node.capacity_shares[k] - node.pool[k];
    if (surplus <= 0.0) continue;
    const double* demand = node.demand_shares.type(k);
    double* entitled = node.entitlement.type(k);
    for (std::size_t i = 0; i < n; ++i) {
      node.residual[i] = std::max(0.0, demand[i] - entitled[i]);
    }
    alloc::weighted_max_min_into(
        surplus, node.residual,
        std::span<const double>(node.initial.type(k), n), node.surplus_extra,
        node.wmm_order);
    for (std::size_t i = 0; i < n; ++i) entitled[i] += node.surplus_extra[i];
  }
  // rrf-hot-path: end(engine.surplus)
}

/// Physical safety: the policy arbitrates the sold pool and the surplus
/// pass tops entitlements up with *unsold* head-room, so the node hands
/// out at most max(pool, physical capacity) of any type — never shares it
/// does not have.
void check_node_capacity(const NodeState& node) {
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    double entitled = 0.0;
    for (std::size_t i = 0; i < node.slots.size(); ++i) {
      entitled += node.entitlement.at(k, i);
    }
    const double limit = std::max(node.pool[k], node.capacity_shares[k]);
    RRF_INVARIANT("engine.node_capacity_safe",
                  approx_le(entitled, limit, 1e-7),
                  "node " + std::to_string(node.host) + " type " +
                      std::to_string(k) + " entitles " +
                      std::to_string(entitled) + " of " +
                      std::to_string(limit) + " shares");
  }
}

/// Allocate: the sharing policy arbitrates the pool the tenants
/// collectively bought on this node (node.pool); the surplus pass hands
/// out the physical head-room beyond it.
void allocate(const RunContext& run, NodeState& node) {
  allocate_entitlements(run.policy, node, run.lt_balance);
  if (run.policy.level != alloc::PolicyLevel::kStatic) add_surplus(node);
  if (contract::armed()) check_node_capacity(node);
}

/// Actuate: push entitlements into the hypervisor and advance it one
/// window, or (actuators off) realize min(entitlement, demand) at once.
void actuate(const RunContext& run, NodeState& node) {
  const std::size_t n = node.slots.size();
  if (run.config.use_actuators) {
    for (std::size_t i = 0; i < n; ++i) {
      node.entitlement.copy_entry(i, node.hv_shares[i]);
      node.actual.copy_entry(i, node.hv_demand[i]);
    }
    node.hv_node->apply_shares(node.hv_shares);
    node.hv_node->step_into(run.config.window, node.hv_demand,
                            node.hv_realized);
    for (std::size_t i = 0; i < n; ++i) {
      node.realized.set_entry(i, node.hv_realized[i]);
    }
    return;
  }
  // rrf-hot-path: begin(engine.actuate)
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    const double price = run.pricing.unit_prices()[k];
    const double* entitled = node.entitlement.type(k);
    const double* demand = node.actual.type(k);
    double* realized = node.realized.type(k);
    for (std::size_t i = 0; i < n; ++i) {
      realized[i] = std::min(entitled[i] / price, demand[i]);
    }
  }
  // rrf-hot-path: end(engine.actuate)
}

/// The smoothed demand the rebalancer plans on (its only reader).
void track_demand_ema(const RunContext& run, NodeState& node) {
  const double ema_alpha = run.config.rebalance.demand_ema_alpha;
  for (std::size_t i = 0; i < node.slots.size(); ++i) {
    VmSlot& slot = node.slots[i];
    const ResourceVector demand = node.actual.entry(i);
    slot.demand_ema = node.predictors.observations(i) <= 1
                          ? demand
                          : slot.demand_ema * (1.0 - ema_alpha) +
                                demand * ema_alpha;
  }
}

/// Settle: predictor updates, the economic ledger, node pressure and the
/// exchange inputs the merge folds in.
void settle(const RunContext& run, NodeState& node) {
  const std::size_t n = node.slots.size();
  // rrf-hot-path: begin(engine.settle)
  node.predictors.observe(node.actual.values);
  if (run.config.rebalance.enabled) track_demand_ema(run, node);

  // Economic ledger for beta (paper Section VI-C): a tenant's share
  // position S'_t is her initial share minus what other tenants actually
  // consumed of her surplus, plus what she took beyond her share.
  // Surplus nobody took is not a loss, and over-takes funded by unsold
  // platform head-room are not financed by any tenant.  Alongside it, the
  // realized reciprocity flows per slot for the fairness gauges and the
  // detector bank: shares of this VM's surplus other tenants consumed,
  // and shares it took financed by other tenants' surplus.
  std::fill(node.slot_contributed.begin(), node.slot_contributed.end(), 0.0);
  std::fill(node.slot_gained.begin(), node.slot_gained.end(), 0.0);
  ResourceVector demand_total(kDefaultResourceCount);
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    const double* a = node.entitlement.type(k);
    const double* s = node.initial.type(k);
    double taken = 0.0, contributed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      taken += std::max(0.0, a[i] - s[i]);
      contributed += std::max(0.0, s[i] - a[i]);
    }
    const double headroom =
        std::max(0.0, node.capacity_shares[k] - node.pool[k]);
    const double tenant_funded = std::max(0.0, taken - headroom);
    // Losses: a contributor only loses the fraction of her surplus other
    // tenants actually consumed.  Gains: only the fraction financed by
    // other tenants counts — over-takes covered by unsold platform
    // head-room improve performance but move no asset between tenants.
    // The counted gains and losses balance.
    const double theta =
        contributed > 0.0 ? std::min(1.0, tenant_funded / contributed)
                          : 0.0;
    const double phi = taken > 0.0 ? tenant_funded / taken : 0.0;
    double* beta = node.beta.type(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double loss = theta * std::max(0.0, s[i] - a[i]);
      const double gain = phi * std::max(0.0, a[i] - s[i]);
      beta[i] = s[i] - loss + gain;
      node.slot_contributed[i] += loss;
      node.slot_gained[i] += gain;
    }

    // Exchange inputs: pure per-slot arithmetic, safe in parallel, so the
    // merge itself only performs the accumulator adds in node order.
    const double price = run.pricing.unit_prices()[k];
    const double* demand = node.actual.type(k);
    double* demand_shares = node.slot_demand_shares.type(k);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += demand[i];
      demand_shares[i] = demand[i] * price;
    }
    demand_total[k] = total;
  }
  node.pressure = cluster::host_pressure(run.capacity(node.host), demand_total);

  constexpr auto kCpu = static_cast<std::size_t>(Resource::kCpu);
  constexpr auto kRam = static_cast<std::size_t>(Resource::kRam);
  const double* cpu_demand = node.actual.type(kCpu);
  const double* ram_demand = node.actual.type(kRam);
  const double* cpu_realized = node.realized.type(kCpu);
  const double* ram_realized = node.realized.type(kRam);
  for (std::size_t i = 0; i < n; ++i) {
    VmSlot& slot = node.slots[i];
    double score = run.perf.score(
        run.metric[slot.tenant],
        wl::PerfModel::satisfaction(cpu_realized[i], cpu_demand[i]),
        wl::PerfModel::satisfaction(ram_realized[i], ram_demand[i]));
    if (slot.migration_penalty > 0) {
      score *= run.config.rebalance.slowdown;
      --slot.migration_penalty;
    }
    node.slot_score[i] = score;
  }
  // rrf-hot-path: end(engine.settle)
}

/// The run's sinks, wired once from EngineConfig: the detector bank (the
/// fairness gauges, the round summary and the alert book) with its
/// journal and incident cursors, and the flight recorder's per-node
/// capture buffers.  The window loop calls it at three fixed points:
/// capture_nodes() after a shard's settle phase (on the thread that ran
/// the shard), end_window() and end_run().
struct RunSinks {
  RunSinks(const RunContext& run, const ShardExecutor* executor)
      : config(run.config) {
    if (obs::metrics_enabled() || config.ops != nullptr ||
        config.journal != nullptr || config.incidents != nullptr) {
      std::vector<std::string> names(run.tenant_count());
      for (std::size_t t = 0; t < names.size(); ++t) {
        names[t] = run.scenario.cluster.tenants()[t].name;
      }
      bank = std::make_unique<obs::DetectorBank>(
          config.detect, std::move(names), run.paid,
          obs::metrics_enabled() ? &obs::metrics() : nullptr);
    }
    if (config.incidents != nullptr) {
      obs::IncidentManager& incidents = *config.incidents;
      incidents.set_metadata("policy", std::string(run.policy.name));
      incidents.set_metadata("windows", std::to_string(run.windows));
      incidents.set_metadata("window_seconds", std::to_string(config.window));
      incidents.set_metadata("hosts", std::to_string(run.host_count()));
      incidents.set_metadata("tenants", std::to_string(run.tenant_count()));
      if (executor != nullptr) {
        incidents.set_extra_provider(
            "shards.json", [executor]() { return executor->document(); });
      }
    }
    // Each node's buffers are filled by the one worker that owns the node
    // this window, so no lock is needed; no recorder, no buffers.
    if (config.flight != nullptr) {
      node_provenance.resize(run.host_count());
      flight_nodes.resize(run.host_count());
    }
  }
  // The shards.json provider reads this run's executor; never leave it on
  // the caller-owned manager, even when the run throws.
  ~RunSinks() {
    if (config.incidents != nullptr) config.incidents->clear_providers();
  }
  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;

  /// Where allocation (or rebalance) provenance goes; nullptr when
  /// nothing is recorded.
  obs::ProvenanceRound* node_sink(std::size_t host) {
    return config.flight != nullptr ? &node_provenance[host] : nullptr;
  }
  obs::ProvenanceRound* rebalance_sink() {
    return config.flight != nullptr ? &rebalance_provenance : nullptr;
  }

  /// Each node's flight-recorder entry for the window just processed,
  /// for every node of `nodes` that hosts a VM.
  void capture_nodes(std::span<const NodeState> nodes) {
    if (config.flight == nullptr) return;
    for (const NodeState& node : nodes) {
      if (!node.slots.empty()) capture_node(node);
    }
  }

  void end_window(const RunContext& run, const std::vector<NodeState>& nodes,
                  const obs::RoundDigest& digest) {
    if (config.flight != nullptr) record_flight_round(run, nodes);
    if (bank) observe_alerts(digest);
    if (config.observer) config.observer(digest);
  }

  void end_run(SimResult& result) {
    if (config.incidents != nullptr) {
      config.incidents->finalize();
      relay_incidents();
    }
    if (bank) result.alerts = bank->raised();
  }

 private:
  /// The node's flight-recorder entry for the window just processed:
  /// per-slot inputs and decisions plus the IRT/IWA provenance captured
  /// during allocate(), moved out of the capture buffer.  Group indices
  /// become tenant ids via node.tenant_ids (the ascending order the tenant
  /// level walks them).
  void capture_node(const NodeState& node) {
    obs::ProvenanceRound& provenance = node_provenance[node.host];
    obs::FlightNode& out = flight_nodes[node.host];
    out = obs::FlightNode();
    out.node = node.host;
    out.slots.resize(node.slots.size());
    for (std::size_t i = 0; i < node.slots.size(); ++i) {
      obs::FlightSlot& slot = out.slots[i];
      slot = {node.slots[i].tenant,        node.slots[i].vm,
              node.slots[i].initial_share, node.actual.entry(i),
              node.demand_shares.entry(i), node.entitlement.entry(i)};
      if (config.use_actuators) {
        slot.credit_weight = node.hv_node->scheduler().weight(i);
        slot.credit_cap = node.hv_node->scheduler().cap(i);
        slot.mem_target = node.hv_node->memory().target(i);
      }
    }
    const auto tenant_of = [&node](std::size_t g) {
      return g < node.tenant_ids.size() ? node.tenant_ids[g] : g;
    };
    if (provenance.has_irt) {
      out.has_irt = true;
      out.irt = std::move(provenance.irt);
      out.irt_types = std::move(provenance.irt_types);
      for (obs::FlightIrtTenant& t : out.irt) t.tenant = tenant_of(t.tenant);
    }
    out.iwa = std::move(provenance.iwa);
    for (obs::FlightIwa& w : out.iwa) w.tenant = tenant_of(w.tenant);
  }

  void record_flight_round(const RunContext& run,
                           const std::vector<NodeState>& nodes) {
    obs::FlightRound round;
    round.round = run.window;
    round.time = run.now();
    if (rebalance_provenance.has_rebalance) {
      round.pressure_before = std::move(rebalance_provenance.pressure_before);
      round.pressure_after = std::move(rebalance_provenance.pressure_after);
      round.migrations = std::move(rebalance_provenance.migrations);
    }
    rebalance_provenance.clear();
    round.nodes.reserve(nodes.size());
    for (const NodeState& node : nodes) {
      if (node.slots.empty()) continue;
      round.nodes.push_back(std::move(flight_nodes[node.host]));
    }
    config.flight->record_round(round);
  }

  void observe_alerts(const obs::RoundDigest& digest) {
    bank->observe_round(digest);
    const obs::RoundSummary& summary = bank->summary();
    if (config.incidents != nullptr) config.incidents->observe_round(*bank);
    if (config.journal != nullptr) {
      for (const obs::AlertTransition& tr :
           bank->transitions_since(alert_cursor)) {
        config.journal->record_alert(
            tr, tr.tenant >= 0
                    ? summary.tenants[static_cast<std::size_t>(tr.tenant)].name
                    : std::string());
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

  /// Relays incident open/resolve edges not yet in the journal.
  void relay_incidents() {
    if (config.incidents == nullptr || config.journal == nullptr) return;
    for (const obs::IncidentEvent& event :
         config.incidents->events_since(&incident_cursor)) {
      config.journal->record_incident(event);
    }
  }

  const EngineConfig& config;
  std::unique_ptr<obs::DetectorBank> bank;
  std::size_t alert_cursor{0};     ///< transitions already in the journal
  std::size_t incident_cursor{0};  ///< incident edges already relayed
  std::vector<obs::ProvenanceRound> node_provenance;
  std::vector<obs::FlightNode> flight_nodes;
  obs::ProvenanceRound rebalance_provenance;
};

/// Records one node-round begin or end event per node that hosts a VM,
/// when tracing is on.
void trace_rounds(obs::EventKind kind, std::span<const NodeState> nodes,
                  std::int32_t window) {
  if (!obs::tracing_enabled()) return;
  for (const NodeState& node : nodes) {
    if (node.slots.empty()) continue;
    obs::TraceEvent e;
    e.kind = kind;
    e.node = static_cast<std::int32_t>(node.host);
    e.window = window;
    e.value = static_cast<double>(node.slots.size());
    obs::tracer().record(e);
  }
}

/// Runs one phase's `body` over every node that hosts a VM, in node
/// order.  While the clock times nodes one by one, each node's part of
/// the phase is its own trace event, histogram sample and profiler frame.
template <typename Body>
void each_node(obs::PhaseClock& clock, std::span<NodeState> nodes,
               const Body& body) {
  const bool per_node = clock.per_node();
  for (NodeState& node : nodes) {
    if (node.slots.empty()) continue;
    if (per_node) clock.node_begin();
    body(node);
    if (per_node) clock.node_end(static_cast<std::int32_t>(node.host));
  }
}

/// One shard's window, phase by phase: predict over every node of the
/// range, then allocate, actuate and settle, then the flight capture.
/// Nodes share no state within a window, so this computes exactly what
/// running each node's four phases in turn would; one PhaseClock reads
/// the clock at the five phase boundaries and adds the shard's phase
/// seconds to `seconds`.  It touches only the range's nodes and their
/// capture buffers, so shards run it in parallel.
void shard_round(const RunContext& run, RunSinks& sinks,
                 std::span<NodeState> nodes,
                 obs::PhaseClock::Seconds& seconds) {
  const auto window_id = static_cast<std::int32_t>(run.window);
  trace_rounds(obs::EventKind::kAllocRoundBegin, nodes, window_id);
  seconds.fill(0.0);
  {
    obs::PhaseClock clock(obs::Phase::kPredict, window_id, seconds);
    each_node(clock, nodes, [&](NodeState& node) { predict(run, node); });
    clock.next(obs::Phase::kAllocate);
    each_node(clock, nodes, [&](NodeState& node) {
      obs::ProvenanceScope provenance(sinks.node_sink(node.host));
      allocate(run, node);
    });
    clock.next(obs::Phase::kActuate);
    each_node(clock, nodes, [&](NodeState& node) { actuate(run, node); });
    clock.next(obs::Phase::kSettle);
    each_node(clock, nodes, [&](NodeState& node) { settle(run, node); });
  }
  sinks.capture_nodes(nodes);
  trace_rounds(obs::EventKind::kAllocRoundEnd, nodes, window_id);
}

/// Emits one kMigration trace event per planned move.
void trace_migrations(const cluster::RebalancePlan& plan,
                      const std::vector<cluster::VmLoad>& loads,
                      std::size_t window) {
  if (!obs::tracing_enabled()) return;
  for (const cluster::Migration& m : plan.migrations) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kMigration;
    e.node = static_cast<std::int32_t>(m.from);
    e.tenant = static_cast<std::int32_t>(loads[m.vm_index].tenant);
    e.vm = static_cast<std::int32_t>(loads[m.vm_index].vm);
    e.window = static_cast<std::int32_t>(window);
    e.value = m.cost_gb;
    e.value2 = static_cast<double>(m.to);
    obs::tracer().record(e);
  }
}

/// Epoch-level live migration (load balancing): plans on every slot's
/// demand EMA; when the plan moves anything, the migrated slots change
/// nodes and every node is rebuilt.
void rebalance(const RunContext& run, std::vector<NodeState>& nodes,
               obs::ProvenanceRound* provenance, SimResult& result) {
  obs::ProfileScope rebalance_profile("window.rebalance");
  std::vector<ResourceVector> capacities;
  capacities.reserve(nodes.size());
  for (const NodeState& node : nodes) {
    capacities.push_back(run.capacity(node.host));
  }
  std::vector<cluster::VmLoad> loads;
  std::vector<std::pair<std::size_t, std::size_t>> slot_ref;
  for (std::size_t h = 0; h < nodes.size(); ++h) {
    for (std::size_t i = 0; i < nodes[h].slots.size(); ++i) {
      const VmSlot& slot = nodes[h].slots[i];
      loads.push_back(cluster::VmLoad{slot.tenant, slot.vm, h, slot.demand_ema,
                                      run.vm(slot).provisioned});
      slot_ref.emplace_back(h, i);
    }
  }
  cluster::RebalancePlan plan;
  {
    obs::ProvenanceScope scope(provenance);
    plan = cluster::plan_rebalance(capacities, loads,
                                   run.config.rebalance.options);
  }
  if (plan.empty()) return;

  std::vector<std::size_t> destination(loads.size());
  for (std::size_t r = 0; r < loads.size(); ++r) destination[r] = loads[r].host;
  for (const cluster::Migration& m : plan.migrations) {
    destination[m.vm_index] = m.to;
  }
  // Each slot keeps its predictor row: per destination, the source
  // (host, row) of every slot it receives, in slot order.
  std::vector<std::vector<VmSlot>> new_slots(nodes.size());
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rows(
      nodes.size());
  for (std::size_t r = 0; r < loads.size(); ++r) {
    const auto [h, i] = slot_ref[r];
    VmSlot slot = std::move(nodes[h].slots[i]);
    if (destination[r] != h) {
      slot.migration_penalty = run.config.rebalance.penalty_windows;
    }
    new_slots[destination[r]].push_back(std::move(slot));
    rows[destination[r]].push_back(slot_ref[r]);
  }
  std::vector<PredictorBank> banks;
  banks.reserve(nodes.size());
  for (const NodeState& node : nodes) {
    const auto& from = rows[node.host];
    PredictorBank& bank = banks.emplace_back(
        kDefaultResourceCount, from.size(), run.config.predictor);
    for (std::size_t i = 0; i < from.size(); ++i) {
      bank.copy_row(i, nodes[from[i].first].predictors, from[i].second);
    }
  }
  for (NodeState& node : nodes) {
    node.slots = std::move(new_slots[node.host]);
    node.predictors = std::move(banks[node.host]);
    // Rebuilding resets the memory actuators to boot levels; the next
    // apply_shares() retargets them within a window or two -- the same
    // settling a real live migration incurs.
    rebuild_node(run, node);
  }
  result.migrations += plan.migrations.size();
  result.migrated_gb += plan.total_cost_gb;
  trace_migrations(plan, loads, run.window);
  if (obs::metrics_enabled()) {
    obs::metrics().counter("engine.migrations").add(plan.migrations.size());
  }
}

/// Samples every tenant's per-VM demands once (all nodes share them) and
/// zeroes the window's digest and tenant sums.
void sample_demands(RunContext& run, WindowTotals& totals) {
  obs::ProfileScope demands_profile("window.demands");
  const Seconds now = run.now();
  for (std::size_t t = 0; t < run.tenant_count(); ++t) {
    try {
      run.scenario.workloads[t]->vm_demands_into(now, run.demands[t]);
    } catch (const PreconditionError& e) {
      throw PreconditionError("tenant " +
                              run.scenario.cluster.tenants()[t].name + ": " +
                              e.what());
    }
  }
  totals.reset(run.tenant_count(), run.host_count());
  totals.digest.window = run.window;
  totals.digest.time = now;
}

/// Runs every node's round: shard by shard on the pool, or serially as
/// one shard over all nodes.
void dispatch(const RunContext& run, std::vector<NodeState>& nodes,
              RunSinks& sinks, ShardExecutor* executor,
              WindowTotals& totals) {
  // Covers the fan-out plus its glue; in the serial path the per-node
  // phase frames nest under it, in the parallel path they root in the
  // worker threads' own arenas.
  obs::ProfileScope dispatch_profile("window.dispatch");
  const auto body = [&](std::size_t shard, const ShardRange& range) {
    shard_round(run, sinks,
                std::span<NodeState>(nodes).subspan(range.begin, range.size()),
                totals.shard_phase_seconds[shard]);
  };
  if (executor != nullptr) {
    executor->run_round(body);
  } else {
    body(0, ShardRange{0, nodes.size()});
  }
}

/// The global exchange: a canonical serial merge in ascending node order.
/// Every node published its exchange inputs (the IRT Lambda, beta_shares,
/// slot_{contributed,gained,demand_shares,score} and pressure) during its
/// round; folding them here, single-threaded and always in node order,
/// makes the tenant ledgers bit-identical for any shard or thread count.
/// Each shard's phase seconds are added in shard order.  Counts one node
/// round per non-empty node.
void merge(const RunContext& run, const std::vector<NodeState>& nodes,
           WindowTotals& totals, SimResult& result) {
  obs::ProfileScope exchange_profile("window.exchange");
  obs::RoundDigest& digest = totals.digest;
  // rrf-hot-path: begin(engine.merge)
  for (const obs::PhaseClock::Seconds& seconds : totals.shard_phase_seconds) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      digest.phase_seconds[p] += seconds[p];
    }
  }
  for (const NodeState& node : nodes) {
    const std::size_t n = node.slots.size();
    if (n == 0) continue;
    ++result.alloc_invocations;
    digest.slots += n;
    digest.node_pressure[node.host] = node.pressure;
    if (run.policy.rrf != nullptr) {
      // IRT's entity g is tenant tenant_ids[g] (ascending, the order the
      // tenant level walks them).
      for (std::size_t g = 0; g < node.tenant_ids.size(); ++g) {
        digest.tenant_lambda[node.tenant_ids[g]] += node.tenant_lambda[g];
      }
    }
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
      const double* beta = node.beta.type(k);
      const double* entitled = node.entitlement.type(k);
      const double* demand = node.slot_demand_shares.type(k);
      const double* realized = node.realized.type(k);
      double* position = totals.position.type(k);
      double* granted = totals.granted.type(k);
      double* demanded = totals.demand.type(k);
      double used = totals.used_total[k];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t t = node.slots[i].tenant;
        position[t] += beta[i];
        granted[t] += entitled[i];
        demanded[t] += demand[i];
        used += realized[i] * run.config.window;
      }
      totals.used_total[k] = used;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = node.slots[i].tenant;
      digest.tenant_contributed[t] += node.slot_contributed[i];
      digest.tenant_gained[t] += node.slot_gained[i];
      const double weight = std::max(1e-9, node.slot_demand_shares.sum(i));
      totals.score_weighted[t] += node.slot_score[i] * weight;
      totals.score_weight[t] += weight;
    }
  }
  // rrf-hot-path: end(engine.merge)
}

/// The window tail: per-tenant roll-ups into the digest and SimResult,
/// the run's phase totals and rrf-lt's contribution bank.
void finish_window(RunContext& run, WindowTotals& totals, SimResult& result) {
  obs::RoundDigest& digest = totals.digest;
  for (std::size_t t = 0; t < run.tenant_count(); ++t) {
    digest.tenant_position[t] = totals.position.sum(t);
    digest.tenant_granted[t] = totals.granted.sum(t);
    digest.tenant_demand[t] = totals.demand.sum(t);
    digest.tenant_score[t] =
        totals.score_weight[t] > 0.0
            ? totals.score_weighted[t] / totals.score_weight[t]
            : 1.0;
    result.tenants[t].record_window(digest.tenant_position[t],
                                    digest.tenant_demand[t],
                                    digest.tenant_score[t]);
  }
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    result.phase_seconds[p] += digest.phase_seconds[p];
  }
  // rrf-lt: net giving this window = initial shares minus the ledger
  // position (positive when other tenants consumed this tenant's surplus).
  for (std::size_t t = 0; t < run.lt_balance.size(); ++t) {
    const double net = run.paid[t] - digest.tenant_position[t];
    run.lt_balance[t] += run.config.ltrf_alpha * (net - run.lt_balance[t]);
  }
}

/// After the last window: per-shard slot counts, the run counters and the
/// mean utilization.
void finish_run(const RunContext& run, const std::vector<NodeState>& nodes,
                const WindowTotals& totals, ShardExecutor* executor,
                SimResult& result) {
  if (executor != nullptr) {
    // Fold in what the executor can't see: how many VM slots each shard's
    // nodes ended the run hosting (the imbalance denominator).
    for (ShardStats& stats : executor->stats()) {
      const ShardRange& range = executor->plan().range(stats.shard);
      stats.slots = 0;
      for (std::size_t h = range.begin; h < range.end; ++h) {
        stats.slots += nodes[h].slots.size();
      }
    }
    executor->publish_metrics();
    result.shards = executor->stats();
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("engine.windows").add(run.windows);
    obs::metrics().counter("engine.alloc_rounds").add(result.alloc_invocations);
  }
  const ResourceVector capacity = run.scenario.cluster.total_capacity();
  const double horizon = static_cast<double>(run.windows) * run.config.window;
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    result.mean_utilization[k] =
        totals.used_total[k] / (capacity[k] * horizon);
  }
}

}  // namespace

SimResult run_simulation(const Scenario& scenario,
                         const EngineConfig& config) {
  check_config(config);
  check_scenario(scenario);
  // Profiler root covering everything before the first window (node/HV
  // construction, sink setup); closed explicitly below so the window
  // loop's own roots are not nested under it.
  obs::ProfileScope setup_profile("engine.setup");
  RunContext run(scenario, config);
  std::vector<NodeState> nodes = place_vms(run);
  SimResult result;
  result.policy = std::string(run.policy.name);
  result.window = config.window;
  result.tenants.reserve(run.tenant_count());
  for (std::size_t t = 0; t < run.tenant_count(); ++t) {
    result.tenants.emplace_back(scenario.cluster.tenants()[t].name,
                                scenario.cluster.tenant_shares(t));
    result.tenants.back().reserve_windows(run.windows);
  }
  const std::unique_ptr<ShardExecutor> executor =
      make_executor(config, run.host_count());
  WindowTotals totals(executor ? executor->plan().shard_count() : 1);
  RunSinks sinks(run, executor.get());
  setup_profile.stop();

  for (std::size_t w = 0; w < run.windows; ++w) {
    run.window = w;
    if (config.rebalance.enabled && w > 0 &&
        w % config.rebalance.every_windows == 0) {
      rebalance(run, nodes, sinks.rebalance_sink(), result);
    }
    sample_demands(run, totals);
    dispatch(run, nodes, sinks, executor.get(), totals);
    merge(run, nodes, totals, result);
    obs::ProfileScope finalize_profile("window.finalize");
    finish_window(run, totals, result);
    sinks.end_window(run, nodes, totals.digest);
  }
  finish_run(run, nodes, totals, executor.get(), result);
  sinks.end_run(result);
  return result;
}

}  // namespace rrf::sim
