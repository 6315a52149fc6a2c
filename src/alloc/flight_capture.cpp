#include "alloc/flight_capture.hpp"

#include <utility>
#include <vector>

#include "alloc/policy.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "obs/provenance.hpp"

namespace rrf::alloc {

obs::FlightRecording capture_alloc_round(
    const std::string& policy_name, const ResourceVector& capacity,
    std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities to capture");
  const Allocator& allocator = *policy(policy_name).allocator;

  obs::ProvenanceRound prov;
  AllocationResult result;
  {
    obs::ProvenanceScope scope(&prov);
    result = allocator.allocate(capacity, entities);
  }

  obs::FlightRecording recording;
  obs::FlightHeader& header = recording.header;
  header.kind = "alloc";
  header.policy = policy_name;
  header.pricing = ResourceVector::uniform(capacity.size(), 1.0);
  header.hosts.push_back(capacity);
  header.tenants.reserve(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    const std::string name = entities[i].name.empty()
                                 ? "entity" + std::to_string(i)
                                 : entities[i].name;
    obs::FlightTenant tenant;
    tenant.name = name;
    tenant.metric = "throughput";
    obs::FlightVm vm;
    vm.name = name;
    vm.vcpus = 0;
    vm.provisioned = entities[i].initial_share;  // shares, not capacity
    vm.max_mem_gb = 0.0;
    vm.host = 0;
    tenant.vms.push_back(std::move(vm));
    header.tenants.push_back(std::move(tenant));
  }
  header.build = common::build_info_json();

  obs::FlightRound round;
  obs::FlightNode node;
  node.node = 0;
  node.slots.reserve(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    obs::FlightSlot slot;
    slot.tenant = i;
    slot.vm = 0;
    slot.share = entities[i].initial_share;
    slot.demand = entities[i].demand;
    slot.forecast = entities[i].demand;
    slot.entitlement = result.allocations[i];
    slot.weight = entities[i].weight;
    slot.banked = entities[i].banked_contribution;
    node.slots.push_back(std::move(slot));
  }
  if (prov.has_irt) {
    // Entity order is tenant order in a one-shot capture: the hook's
    // entity indices are already the tenant ids.
    node.has_irt = true;
    node.irt = std::move(prov.irt);
    node.irt_types = std::move(prov.irt_types);
  }
  round.nodes.push_back(std::move(node));
  recording.rounds.push_back(std::move(round));
  return recording;
}

obs::FlightDiffResult replay_alloc_recording(
    const obs::FlightRecording& recording) {
  if (recording.header.kind != "alloc") {
    throw DomainError(
        "flightrec: replay_alloc_recording needs an 'alloc' recording, got "
        "'" + recording.header.kind + "'");
  }
  if (recording.rounds.size() != 1 || recording.rounds[0].nodes.size() != 1) {
    throw DomainError(
        "flightrec: an 'alloc' recording must hold exactly one round with "
        "one node");
  }

  const obs::FlightNode& node = recording.rounds[0].nodes[0];
  std::vector<AllocationEntity> entities;
  entities.reserve(node.slots.size());
  for (const obs::FlightSlot& slot : node.slots) {
    AllocationEntity e;
    e.initial_share = slot.share;
    e.demand = slot.demand;
    e.weight = slot.weight;
    e.banked_contribution = slot.banked;
    if (slot.tenant < recording.header.tenants.size()) {
      e.name = recording.header.tenants[slot.tenant].name;
    }
    entities.push_back(std::move(e));
  }

  const obs::FlightRecording replayed = capture_alloc_round(
      recording.header.policy, recording.header.hosts.front(), entities);
  return obs::diff_recordings(recording, replayed, 0.0);
}

}  // namespace rrf::alloc
