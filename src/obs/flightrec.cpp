#include "obs/flightrec.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace rrf::obs {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw DomainError("flightrec: " + message);
}

double num_or(const json::Value& object, const char* key, double fallback) {
  const json::Value* v = object.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) fail(std::string("field '") + key + "' is not a number");
  return v->as_number();
}

json::Value vec_to_json(const ResourceVector& v) {
  json::Array out;
  out.reserve(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) out.emplace_back(v[k]);
  return out;
}

ResourceVector vec_from_json(const json::Value& value, const char* what) {
  if (!value.is_array() || value.as_array().empty()) {
    fail(std::string(what) + " is not a non-empty array");
  }
  if (value.as_array().size() > ResourceVector::kInlineCapacity) {
    fail(std::string(what) + ": " +
         std::to_string(value.as_array().size()) +
         " resource types exceed the limit of " +
         std::to_string(ResourceVector::kInlineCapacity));
  }
  std::vector<double> values;
  values.reserve(value.as_array().size());
  for (const json::Value& e : value.as_array()) {
    if (!e.is_number()) fail(std::string(what) + " holds a non-number");
    values.push_back(e.as_number());
  }
  return ResourceVector(std::span<const double>(values));
}

ResourceVector vec_field(const json::Value& object, const char* key) {
  return vec_from_json(field(object, key, fail), key);
}

json::Value doubles_to_json(const std::vector<double>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return out;
}

std::vector<double> doubles_from_json(const json::Value& value,
                                      const char* what) {
  if (!value.is_array()) fail(std::string(what) + " is not an array");
  std::vector<double> out;
  out.reserve(value.as_array().size());
  for (const json::Value& e : value.as_array()) {
    if (!e.is_number()) fail(std::string(what) + " holds a non-number");
    out.push_back(e.as_number());
  }
  return out;
}

/// The round-trip text of `v`, exactly as a recording holds it.
std::string shortest(double v) { return json::Value(v).dump(); }

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value flight_header_to_json(const FlightHeader& header) {
  json::Object out;
  out.emplace_back("schema", kFlightSchemaName);
  out.emplace_back("version", header.version);
  out.emplace_back("kind", header.kind);
  out.emplace_back("policy", header.policy);
  out.emplace_back("window", header.window);
  out.emplace_back("duration", header.duration);
  out.emplace_back("pricing", vec_to_json(header.pricing));
  json::Array hosts;
  hosts.reserve(header.hosts.size());
  for (const ResourceVector& h : header.hosts) hosts.push_back(vec_to_json(h));
  out.emplace_back("hosts", std::move(hosts));
  json::Array tenants;
  tenants.reserve(header.tenants.size());
  for (const FlightTenant& t : header.tenants) {
    json::Object to;
    to.emplace_back("name", t.name);
    to.emplace_back("metric", t.metric);
    json::Array vms;
    vms.reserve(t.vms.size());
    for (const FlightVm& vm : t.vms) {
      json::Object vo;
      vo.emplace_back("name", vm.name);
      vo.emplace_back("vcpus", vm.vcpus);
      vo.emplace_back("provisioned", vec_to_json(vm.provisioned));
      vo.emplace_back("max_mem_gb", vm.max_mem_gb);
      vo.emplace_back("host", vm.host);
      vms.emplace_back(std::move(vo));
    }
    to.emplace_back("vms", std::move(vms));
    tenants.emplace_back(std::move(to));
  }
  out.emplace_back("tenants", std::move(tenants));
  json::Array unplaced;
  for (const auto& [t, v] : header.unplaced) {
    unplaced.emplace_back(json::Array{json::Value(t), json::Value(v)});
  }
  out.emplace_back("unplaced", std::move(unplaced));
  out.emplace_back("engine", header.engine);
  if (header.build.is_object()) out.emplace_back("build", header.build);
  return out;
}

FlightHeader flight_header_from_json(const json::Value& value) {
  FlightHeader header;
  header.build = json::check_header(value, kFlightSchemaName,
                                    kFlightSchemaVersion, fail);
  header.kind = str_field(value, "kind", fail);
  if (header.kind != "sim" && header.kind != "alloc") {
    fail("unknown recording kind '" + header.kind + "'");
  }
  header.policy = str_field(value, "policy", fail);
  header.window = num_field(value, "window", fail);
  header.duration = num_field(value, "duration", fail);
  header.pricing = vec_field(value, "pricing");
  for (const json::Value& h : array_field(value, "hosts", fail)) {
    header.hosts.push_back(vec_from_json(h, "host capacity"));
  }
  if (header.hosts.empty()) fail("recording has no hosts");
  for (const json::Value& t : array_field(value, "tenants", fail)) {
    if (!t.is_object()) fail("tenant entry is not an object");
    FlightTenant tenant;
    tenant.name = str_field(t, "name", fail);
    tenant.metric = str_field(t, "metric", fail);
    for (const json::Value& vm : array_field(t, "vms", fail)) {
      if (!vm.is_object()) fail("vm entry is not an object");
      FlightVm out;
      out.name = str_field(vm, "name", fail);
      out.vcpus = size_field(vm, "vcpus", fail);
      out.provisioned = vec_field(vm, "provisioned");
      out.max_mem_gb = num_field(vm, "max_mem_gb", fail);
      out.host = size_field(vm, "host", fail);
      if (out.host >= header.hosts.size()) fail("vm placed on unknown host");
      tenant.vms.push_back(std::move(out));
    }
    header.tenants.push_back(std::move(tenant));
  }
  if (header.tenants.empty()) fail("recording has no tenants");
  for (const json::Value& u : array_field(value, "unplaced", fail)) {
    if (!u.is_array() || u.as_array().size() != 2 ||
        !u.as_array()[0].is_number() || !u.as_array()[1].is_number()) {
      fail("unplaced entry is not a [tenant, vm] pair");
    }
    header.unplaced.emplace_back(
        static_cast<std::size_t>(u.as_array()[0].as_number()),
        static_cast<std::size_t>(u.as_array()[1].as_number()));
  }
  header.engine = field(value, "engine", fail);
  return header;
}

json::Value flight_round_to_json(const FlightRound& round) {
  json::Object out;
  out.emplace_back("round", round.round);
  out.emplace_back("time", round.time);
  if (!round.migrations.empty()) {
    json::Array migrations;
    for (const FlightMigration& m : round.migrations) {
      json::Object mo;
      mo.emplace_back("tenant", m.tenant);
      mo.emplace_back("vm", m.vm);
      mo.emplace_back("from", m.from);
      mo.emplace_back("to", m.to);
      mo.emplace_back("cost_gb", m.cost_gb);
      migrations.emplace_back(std::move(mo));
    }
    out.emplace_back("migrations", std::move(migrations));
  }
  if (!round.pressure_before.empty()) {
    out.emplace_back("pressure_before", doubles_to_json(round.pressure_before));
    out.emplace_back("pressure_after", doubles_to_json(round.pressure_after));
  }
  json::Array nodes;
  nodes.reserve(round.nodes.size());
  for (const FlightNode& node : round.nodes) {
    json::Object no;
    no.emplace_back("node", node.node);
    json::Array slots;
    slots.reserve(node.slots.size());
    for (const FlightSlot& s : node.slots) {
      json::Object so;
      so.emplace_back("t", s.tenant);
      so.emplace_back("v", s.vm);
      so.emplace_back("share", vec_to_json(s.share));
      so.emplace_back("demand", vec_to_json(s.demand));
      so.emplace_back("forecast", vec_to_json(s.forecast));
      so.emplace_back("grant", vec_to_json(s.entitlement));
      if (s.credit_weight >= 0.0) {
        so.emplace_back("credit_weight", s.credit_weight);
        so.emplace_back("credit_cap", s.credit_cap);
        so.emplace_back("mem_target", s.mem_target);
      }
      if (!is_exact_zero(s.weight)) so.emplace_back("weight", s.weight);
      if (!is_exact_zero(s.banked)) so.emplace_back("banked", s.banked);
      slots.emplace_back(std::move(so));
    }
    no.emplace_back("slots", std::move(slots));
    if (node.has_irt) {
      json::Object irt;
      json::Array tenants;
      tenants.reserve(node.irt.size());
      for (const FlightIrtTenant& t : node.irt) {
        json::Object to;
        to.emplace_back("t", t.tenant);
        to.emplace_back("lambda", t.lambda);
        to.emplace_back("share", vec_to_json(t.share));
        to.emplace_back("demand", vec_to_json(t.demand));
        to.emplace_back("grant", vec_to_json(t.grant));
        tenants.emplace_back(std::move(to));
      }
      irt.emplace_back("tenants", std::move(tenants));
      json::Array types;
      types.reserve(node.irt_types.size());
      for (const ProvenanceIrtType& k : node.irt_types) {
        json::Object ko;
        ko.emplace_back("contributors", k.contributors);
        ko.emplace_back("capped", k.capped);
        ko.emplace_back("redistributed", k.redistributed);
        types.emplace_back(std::move(ko));
      }
      irt.emplace_back("types", std::move(types));
      no.emplace_back("irt", json::Value(std::move(irt)));
    }
    if (!node.iwa.empty()) {
      json::Array iwa;
      iwa.reserve(node.iwa.size());
      for (const FlightIwa& w : node.iwa) {
        json::Object wo;
        wo.emplace_back("t", w.tenant);
        json::Array grants;
        grants.reserve(w.vm_grant.size());
        for (const ResourceVector& g : w.vm_grant) {
          grants.push_back(vec_to_json(g));
        }
        wo.emplace_back("grant", std::move(grants));
        wo.emplace_back("headroom", vec_to_json(w.headroom));
        iwa.emplace_back(std::move(wo));
      }
      no.emplace_back("iwa", std::move(iwa));
    }
    nodes.emplace_back(std::move(no));
  }
  out.emplace_back("nodes", std::move(nodes));
  return out;
}

FlightRound flight_round_from_json(const json::Value& value) {
  if (!value.is_object()) fail("round is not an object");
  FlightRound round;
  round.round = size_field(value, "round", fail);
  round.time = num_field(value, "time", fail);
  if (const json::Value* m = value.find("migrations")) {
    if (!m->is_array()) fail("migrations is not an array");
    for (const json::Value& e : m->as_array()) {
      FlightMigration out;
      out.tenant = size_field(e, "tenant", fail);
      out.vm = size_field(e, "vm", fail);
      out.from = size_field(e, "from", fail);
      out.to = size_field(e, "to", fail);
      out.cost_gb = num_field(e, "cost_gb", fail);
      round.migrations.push_back(out);
    }
  }
  if (const json::Value* p = value.find("pressure_before")) {
    round.pressure_before = doubles_from_json(*p, "pressure_before");
    round.pressure_after = doubles_from_json(
        field(value, "pressure_after", fail), "pressure_after");
  }
  for (const json::Value& n : array_field(value, "nodes", fail)) {
    if (!n.is_object()) fail("node entry is not an object");
    FlightNode node;
    node.node = size_field(n, "node", fail);
    for (const json::Value& s : array_field(n, "slots", fail)) {
      if (!s.is_object()) fail("slot entry is not an object");
      FlightSlot slot;
      slot.tenant = size_field(s, "t", fail);
      slot.vm = size_field(s, "v", fail);
      slot.share = vec_field(s, "share");
      slot.demand = vec_field(s, "demand");
      slot.forecast = vec_field(s, "forecast");
      slot.entitlement = vec_field(s, "grant");
      slot.credit_weight = num_or(s, "credit_weight", -1.0);
      slot.credit_cap = num_or(s, "credit_cap", -1.0);
      slot.mem_target = num_or(s, "mem_target", -1.0);
      slot.weight = num_or(s, "weight", 0.0);
      slot.banked = num_or(s, "banked", 0.0);
      node.slots.push_back(std::move(slot));
    }
    if (const json::Value* irt = n.find("irt")) {
      node.has_irt = true;
      for (const json::Value& t : array_field(*irt, "tenants", fail)) {
        FlightIrtTenant out;
        out.tenant = size_field(t, "t", fail);
        out.lambda = num_field(t, "lambda", fail);
        out.share = vec_field(t, "share");
        out.demand = vec_field(t, "demand");
        out.grant = vec_field(t, "grant");
        node.irt.push_back(std::move(out));
      }
      for (const json::Value& k : array_field(*irt, "types", fail)) {
        ProvenanceIrtType out;
        out.contributors = size_field(k, "contributors", fail);
        out.capped = size_field(k, "capped", fail);
        out.redistributed = num_field(k, "redistributed", fail);
        node.irt_types.push_back(out);
      }
    }
    if (const json::Value* iwa = n.find("iwa")) {
      if (!iwa->is_array()) fail("iwa is not an array");
      for (const json::Value& w : iwa->as_array()) {
        FlightIwa out;
        out.tenant = size_field(w, "t", fail);
        for (const json::Value& g : array_field(w, "grant", fail)) {
          out.vm_grant.push_back(vec_from_json(g, "iwa grant"));
        }
        out.headroom = vec_field(w, "headroom");
        node.iwa.push_back(std::move(out));
      }
    }
    round.nodes.push_back(std::move(node));
  }
  return round;
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

FlightRecording FlightRecording::load(std::istream& in) {
  FlightRecording recording;
  recording.truncated_tail = json::read_lines(
      in, fail,
      [&](const json::Value& header) {
        recording.header = flight_header_from_json(header);
      },
      [&](std::size_t, const json::Value& value) {
        const json::Value* t = value.find("trailer");
        if (t == nullptr) {
          recording.rounds.push_back(flight_round_from_json(value));
          return false;
        }
        recording.trailer = FlightTrailer{size_field(*t, "rounds", fail),
                                          size_field(*t, "dropped", fail),
                                          size_field(*t, "bytes", fail)};
        return true;
      });
  if (recording.trailer.has_value() &&
      recording.trailer->rounds != recording.rounds.size()) {
    fail("trailer claims " + std::to_string(recording.trailer->rounds) +
         " rounds but the stream holds " +
         std::to_string(recording.rounds.size()));
  }
  return recording;
}

FlightRecording FlightRecording::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return load(in);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::ostream& out) : stream_(out, fail) {}

FlightRecorder::~FlightRecorder() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a failed final write surfaces through
    // the stream's state, which callers own.
  }
}

void FlightRecorder::write_header(const FlightHeader& header) {
  RRF_REQUIRE(!header_written_, "flightrec: header written twice");
  const auto start = std::chrono::steady_clock::now();
  stream_.write(flight_header_to_json(header));
  header_written_ = true;
  record_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void FlightRecorder::record_round(const FlightRound& round) {
  RRF_REQUIRE(header_written_, "flightrec: record_round before write_header");
  const auto start = std::chrono::steady_clock::now();
  stream_.write(flight_round_to_json(round));
  ++rounds_recorded_;
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  record_seconds_ += dt;
  if (metrics_enabled()) {
    static Histogram& record_time = metrics().histogram(
        "flightrec.record_seconds", default_seconds_bounds());
    record_time.observe(dt);
  }
}

void FlightRecorder::finish() {
  if (stream_.closed()) return;
  // The byte count covers everything *before* the trailer line, so a
  // reader can cross-check the payload it received.
  const json::Value trailer = json::Object{
      {"trailer", json::Object{{"rounds", rounds_recorded_},
                               {"dropped", 0},
                               {"bytes", stream_.bytes_written()}}}};
  if (stream_.close(trailer)) publish_metrics();
}

void FlightRecorder::write_recording(const FlightRecording& recording) {
  write_header(recording.header);
  for (const FlightRound& round : recording.rounds) record_round(round);
  finish();
}

void FlightRecorder::publish_metrics() {
  if (!metrics_enabled()) return;
  metrics().counter("flightrec.bytes_written").add(stream_.bytes_written());
  metrics().counter("flightrec.rounds").add(rounds_recorded_);
  metrics().gauge("flightrec.record_seconds_total").set(record_seconds_);
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

namespace {

bool near(double a, double b, double epsilon) {
  if (epsilon <= 0.0) return a == b;
  return std::abs(a - b) <= epsilon;
}

struct DiffWalk {
  FlightDiffResult result;
  double epsilon{0.0};

  void note(std::string text) {
    result.identical = false;
    result.notes.push_back(std::move(text));
  }

  void diverge(std::size_t round, std::string what) {
    result.identical = false;
    if (!result.first_divergent_round.has_value()) {
      result.first_divergent_round = round;
      result.first_divergence = std::move(what);
    }
  }

  bool check(std::size_t round, const std::string& where, const char* field_n,
             double a, double b) {
    if (near(a, b, epsilon)) return true;
    diverge(round, where + " " + field_n + ": " + shortest(a) + " vs " +
                       shortest(b));
    return false;
  }

  bool check_vec(std::size_t round, const std::string& where,
                 const char* field_n, const ResourceVector& a,
                 const ResourceVector& b) {
    if (a.size() != b.size()) {
      diverge(round, where + " " + field_n + ": arity " +
                         std::to_string(a.size()) + " vs " +
                         std::to_string(b.size()));
      return false;
    }
    bool ok = true;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (near(a[k], b[k], epsilon)) continue;
      diverge(round, where + " " + field_n + "[" + std::to_string(k) +
                         "]: " + shortest(a[k]) + " vs " + shortest(b[k]));
      ok = false;
    }
    return ok;
  }
};

}  // namespace

FlightDiffResult diff_recordings(const FlightRecording& a,
                                 const FlightRecording& b, double epsilon) {
  DiffWalk walk;
  walk.epsilon = epsilon;

  if (a.header.kind != b.header.kind) {
    walk.note("kind mismatch: " + a.header.kind + " vs " + b.header.kind);
  }
  if (a.header.policy != b.header.policy) {
    walk.note("policy mismatch: " + a.header.policy + " vs " +
              b.header.policy);
  }
  if (a.header.window != b.header.window) {
    walk.note("window mismatch: " + shortest(a.header.window) + " vs " +
              shortest(b.header.window));
  }
  if (a.rounds.size() != b.rounds.size()) {
    walk.note("round count mismatch: " + std::to_string(a.rounds.size()) +
              " vs " + std::to_string(b.rounds.size()) +
              " (comparing the common prefix)");
  }

  walk.result.tenant_deltas.resize(a.header.tenants.size());
  for (std::size_t t = 0; t < a.header.tenants.size(); ++t) {
    walk.result.tenant_deltas[t].tenant = t;
    walk.result.tenant_deltas[t].name = a.header.tenants[t].name;
  }
  auto delta = [&](std::size_t tenant, double d) {
    if (tenant >= walk.result.tenant_deltas.size()) return;
    FlightTenantDelta& td = walk.result.tenant_deltas[tenant];
    td.total_abs += d;
    td.max_abs = std::max(td.max_abs, d);
  };

  const std::size_t rounds = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    const FlightRound& ra = a.rounds[r];
    const FlightRound& rb = b.rounds[r];
    ++walk.result.rounds_compared;
    const std::string round_tag = "round " + std::to_string(ra.round);
    if (ra.round != rb.round) {
      walk.diverge(ra.round, round_tag + " index mismatch vs " +
                                 std::to_string(rb.round));
      break;
    }
    if (ra.migrations.size() != rb.migrations.size()) {
      walk.diverge(ra.round,
                   round_tag + " migration count: " +
                       std::to_string(ra.migrations.size()) + " vs " +
                       std::to_string(rb.migrations.size()));
    } else {
      for (std::size_t m = 0; m < ra.migrations.size(); ++m) {
        const FlightMigration& ma = ra.migrations[m];
        const FlightMigration& mb = rb.migrations[m];
        if (ma.tenant != mb.tenant || ma.vm != mb.vm || ma.from != mb.from ||
            ma.to != mb.to || !near(ma.cost_gb, mb.cost_gb, epsilon)) {
          walk.diverge(ra.round,
                       round_tag + " migration #" + std::to_string(m) +
                           " differs");
        }
      }
    }
    if (ra.nodes.size() != rb.nodes.size()) {
      walk.diverge(ra.round, round_tag + " node count: " +
                                 std::to_string(ra.nodes.size()) + " vs " +
                                 std::to_string(rb.nodes.size()));
      continue;
    }
    for (std::size_t ni = 0; ni < ra.nodes.size(); ++ni) {
      const FlightNode& na = ra.nodes[ni];
      const FlightNode& nb = rb.nodes[ni];
      const std::string node_tag =
          round_tag + " node " + std::to_string(na.node);
      if (na.node != nb.node || na.slots.size() != nb.slots.size()) {
        walk.diverge(ra.round, node_tag + " slot layout differs");
        continue;
      }
      for (std::size_t i = 0; i < na.slots.size(); ++i) {
        const FlightSlot& sa = na.slots[i];
        const FlightSlot& sb = nb.slots[i];
        const std::string slot_tag = node_tag + " tenant " +
                                     std::to_string(sa.tenant) + " vm " +
                                     std::to_string(sa.vm);
        if (sa.tenant != sb.tenant || sa.vm != sb.vm) {
          walk.diverge(ra.round, node_tag + " slot #" + std::to_string(i) +
                                     " identity differs");
          continue;
        }
        walk.check_vec(ra.round, slot_tag, "share", sa.share, sb.share);
        walk.check_vec(ra.round, slot_tag, "demand", sa.demand, sb.demand);
        walk.check_vec(ra.round, slot_tag, "forecast", sa.forecast,
                       sb.forecast);
        walk.check_vec(ra.round, slot_tag, "entitlement", sa.entitlement,
                       sb.entitlement);
        walk.check(ra.round, slot_tag, "credit_weight", sa.credit_weight,
                   sb.credit_weight);
        walk.check(ra.round, slot_tag, "credit_cap", sa.credit_cap,
                   sb.credit_cap);
        walk.check(ra.round, slot_tag, "mem_target", sa.mem_target,
                   sb.mem_target);
        const std::size_t arity =
            std::min(sa.entitlement.size(), sb.entitlement.size());
        for (std::size_t k = 0; k < arity; ++k) {
          delta(sa.tenant, std::abs(sa.entitlement[k] - sb.entitlement[k]));
        }
      }
      if (na.has_irt != nb.has_irt || na.irt.size() != nb.irt.size()) {
        walk.diverge(ra.round, node_tag + " IRT section differs");
        continue;
      }
      for (std::size_t g = 0; g < na.irt.size(); ++g) {
        const std::string irt_tag =
            node_tag + " IRT tenant " + std::to_string(na.irt[g].tenant);
        walk.check(ra.round, irt_tag, "lambda", na.irt[g].lambda,
                   nb.irt[g].lambda);
        walk.check_vec(ra.round, irt_tag, "grant", na.irt[g].grant,
                       nb.irt[g].grant);
      }
      for (std::size_t k = 0;
           k < std::min(na.irt_types.size(), nb.irt_types.size()); ++k) {
        walk.check(ra.round, node_tag + " IRT type " + std::to_string(k),
                   "redistributed", na.irt_types[k].redistributed,
                   nb.irt_types[k].redistributed);
      }
    }
  }
  return walk.result;
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

namespace {

std::string num6(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string vec6(const ResourceVector& v) {
  std::string out = "<";
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k > 0) out += ", ";
    out += num6(v[k]);
  }
  out += ">";
  return out;
}

std::string signed6(double v) {
  return (v >= 0.0 ? "+" : "") + num6(v);
}

std::string resource_name(std::size_t k) {
  if (k < kDefaultResourceCount) {
    return to_string(static_cast<Resource>(k));
  }
  return "R" + std::to_string(k);
}

}  // namespace

std::string explain_decision(const FlightRecording& recording,
                             const ExplainQuery& query) {
  const FlightHeader& header = recording.header;

  // Resolve the tenant: by name first, then as a numeric index.
  std::size_t tenant = header.tenants.size();
  for (std::size_t t = 0; t < header.tenants.size(); ++t) {
    if (header.tenants[t].name == query.tenant) {
      tenant = t;
      break;
    }
  }
  if (tenant == header.tenants.size()) {
    try {
      const std::size_t parsed = std::stoul(query.tenant);
      if (parsed < header.tenants.size()) tenant = parsed;
    } catch (...) {
      // fall through to the error below
    }
  }
  if (tenant == header.tenants.size()) {
    fail("unknown tenant '" + query.tenant + "'");
  }
  const std::string& tenant_name = header.tenants[tenant].name;

  const FlightRound* round = nullptr;
  for (const FlightRound& r : recording.rounds) {
    if (r.round == query.round) {
      round = &r;
      break;
    }
  }
  if (round == nullptr) {
    fail("round " + std::to_string(query.round) +
         " is not in the recording (" + std::to_string(recording.rounds.size()) +
         " rounds" +
         (recording.trailer && recording.trailer->dropped > 0
              ? ", " + std::to_string(recording.trailer->dropped) + " dropped"
              : std::string()) +
         ")");
  }

  const bool alloc_kind = header.kind == "alloc";
  std::ostringstream os;
  os << "recording: kind " << header.kind << ", policy " << header.policy
     << ", schema v" << header.version << "\n";
  os << "round " << round->round << " (t=" << num6(round->time)
     << "s), tenant '" << tenant_name << "' (#" << tenant << ")\n";

  for (const FlightMigration& m : round->migrations) {
    if (m.tenant != tenant) continue;
    os << "[migration] vm " << m.vm << " moved node " << m.from << " -> "
       << m.to << " this round (" << num6(m.cost_gb) << " GB copied)\n";
  }

  bool found = false;
  for (const FlightNode& node : round->nodes) {
    if (query.node.has_value() && node.node != *query.node) continue;
    std::vector<const FlightSlot*> slots;
    for (const FlightSlot& s : node.slots) {
      if (s.tenant == tenant) slots.push_back(&s);
    }
    const FlightIrtTenant* irt = nullptr;
    for (const FlightIrtTenant& t : node.irt) {
      if (t.tenant == tenant) irt = &t;
    }
    const FlightIwa* iwa = nullptr;
    for (const FlightIwa& w : node.iwa) {
      if (w.tenant == tenant) iwa = &w;
    }
    if (slots.empty() && irt == nullptr) continue;
    found = true;

    os << "\nnode " << node.node << ":\n";

    // ---- demand -> prediction ----
    os << "  [input · demand -> forecast]\n";
    for (const FlightSlot* s : slots) {
      os << "    vm " << s->vm << ": demand " << vec6(s->demand)
         << (alloc_kind ? " shares" : " (capacity units)")
         << " -> allocator saw " << vec6(s->forecast)
         << " shares; initial share " << vec6(s->share) << "\n";
    }

    // ---- IRT (Algorithm 1) ----
    if (irt != nullptr) {
      double lambda_total = 0.0;
      for (const FlightIrtTenant& t : node.irt) lambda_total += t.lambda;
      os << "  [IRT Alg.1 l.1-8 · contribution accounting]\n";
      ResourceVector contribution(irt->share.size());
      for (std::size_t k = 0; k < irt->share.size(); ++k) {
        contribution[k] = std::max(0.0, irt->share[k] - irt->demand[k]);
      }
      os << "    tenant-level share S = " << vec6(irt->share) << ", demand D = "
         << vec6(irt->demand) << "\n";
      os << "    contribution C = max(0, S-D) = " << vec6(contribution)
         << "; Lambda = " << num6(irt->lambda);
      if (lambda_total > 0.0) {
        os << " (" << num6(100.0 * irt->lambda / lambda_total)
           << "% of node total " << num6(lambda_total) << ")";
      }
      os << "\n";
      os << "  [IRT Alg.1 l.9-15 · ordering + boundary search]\n";
      for (std::size_t k = 0; k < node.irt_types.size(); ++k) {
        const ProvenanceIrtType& type = node.irt_types[k];
        os << "    " << resource_name(k) << ": " << type.contributors
           << " contributor(s), boundary capped " << type.capped
           << " entity(ies) at demand, psi redistributed = "
           << num6(type.redistributed) << " shares\n";
      }
      os << "  [IRT Alg.1 l.16-20 · grant]\n";
      for (std::size_t k = 0; k < irt->grant.size(); ++k) {
        const double gain = irt->grant[k] - irt->share[k];
        os << "    " << resource_name(k) << ": grant " << num6(irt->grant[k])
           << " (" << signed6(gain) << " vs share";
        const double psi =
            k < node.irt_types.size() ? node.irt_types[k].redistributed : 0.0;
        if (gain > 0.0 && psi > 0.0) {
          os << "; " << num6(100.0 * gain / psi) << "% of the " << num6(psi)
             << " redistributed, in proportion to Lambda " << num6(irt->lambda);
        }
        os << ")\n";
      }
    } else if (!slots.empty()) {
      os << "  [inter-tenant] policy '" << header.policy
         << "' ran no IRT trading stage\n";
    }

    // ---- IWA (Algorithm 2) ----
    if (iwa != nullptr) {
      os << "  [IWA Alg.2 · intra-tenant flows]\n";
      for (std::size_t j = 0; j < iwa->vm_grant.size(); ++j) {
        os << "    vm slot " << j << ": grant " << vec6(iwa->vm_grant[j]);
        if (j < slots.size()) {
          ResourceVector d = iwa->vm_grant[j];
          d -= slots[j]->share;
          os << " (delta " << vec6(d) << " vs initial share)";
        }
        os << "\n";
      }
      os << "    headroom returned to the tenant: " << vec6(iwa->headroom)
         << "\n";
    }

    // ---- final entitlement + actuators ----
    if (!slots.empty()) {
      os << "  [final entitlement]\n";
      for (std::size_t j = 0; j < slots.size(); ++j) {
        const FlightSlot* s = slots[j];
        os << "    vm " << s->vm << ": " << vec6(s->entitlement) << " shares";
        if (iwa != nullptr && j < iwa->vm_grant.size()) {
          ResourceVector d = s->entitlement;
          d -= iwa->vm_grant[j];
          os << " (work-conserving surplus " << vec6(d) << ")";
        }
        os << "\n";
      }
      bool any_actuator = false;
      for (const FlightSlot* s : slots) {
        if (s->credit_weight >= 0.0) any_actuator = true;
      }
      if (any_actuator) {
        os << "  [actuate]\n";
        for (const FlightSlot* s : slots) {
          if (s->credit_weight < 0.0) continue;
          os << "    vm " << s->vm << ": credit weight "
             << num6(s->credit_weight) << ", cap " << num6(s->credit_cap)
             << " GHz, memory target " << num6(s->mem_target) << " GB\n";
        }
      }
    }
  }

  if (!found) {
    fail("tenant '" + tenant_name + "' has no slots in round " +
         std::to_string(query.round) +
         (query.node ? " on node " + std::to_string(*query.node)
                     : std::string()));
  }
  return os.str();
}

}  // namespace rrf::obs
