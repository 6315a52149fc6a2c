#include "obs/ops.hpp"

#include <limits>
#include <utility>

#include "common/error.hpp"

namespace rrf::obs {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw DomainError("ops: " + message);
}

}  // namespace

json::Value round_summary_to_json(const RoundSummary& summary) {
  json::Object out;
  out.emplace_back("t", "round");
  out.emplace_back("window", summary.window);
  out.emplace_back("time", summary.time);
  out.emplace_back("jain", summary.jain);
  out.emplace_back("slots", summary.slots);
  json::Object phases;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phases.emplace_back(to_string(static_cast<Phase>(i)),
                        summary.phase_seconds[i]);
  }
  out.emplace_back("phase_seconds", std::move(phases));
  out.emplace_back("active_alerts", summary.active_alerts);
  out.emplace_back("alerts_total", summary.alerts_total);
  json::Array tenants;
  tenants.reserve(summary.tenants.size());
  for (const TenantRoundStat& t : summary.tenants) {
    json::Object tenant;
    tenant.emplace_back("name", t.name);
    tenant.emplace_back("share", t.share);
    tenant.emplace_back("demand", t.demand);
    tenant.emplace_back("granted", t.granted);
    tenant.emplace_back("contributed", t.contributed);
    tenant.emplace_back("gained", t.gained);
    tenants.emplace_back(std::move(tenant));
  }
  out.emplace_back("tenants", std::move(tenants));
  return out;
}

RoundSummary round_summary_from_json(const json::Value& value) {
  if (!value.is_object()) fail("round record is not an object");
  if (str_field(value, "t", fail) != "round") fail("record tag is not 'round'");
  RoundSummary out;
  out.window = size_field(value, "window", fail);
  out.time = num_field(value, "time", fail);
  out.jain = num_field(value, "jain", fail);
  out.slots = size_field(value, "slots", fail);
  const json::Value& phases = field(value, "phase_seconds", fail);
  if (!phases.is_object()) fail("field 'phase_seconds' is not an object");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    out.phase_seconds[i] =
        num_field(phases, to_string(static_cast<Phase>(i)), fail);
  }
  out.active_alerts = size_field(value, "active_alerts", fail);
  out.alerts_total = size_field(value, "alerts_total", fail);
  const json::Value& tenants = field(value, "tenants", fail);
  if (!tenants.is_array()) fail("field 'tenants' is not an array");
  out.tenants.reserve(tenants.as_array().size());
  for (const json::Value& t : tenants.as_array()) {
    if (!t.is_object()) fail("tenant entry is not an object");
    TenantRoundStat stat;
    stat.name = str_field(t, "name", fail);
    stat.share = num_field(t, "share", fail);
    stat.demand = num_field(t, "demand", fail);
    // Additive since the incident-detection schema rev: older journals
    // and fixtures carry no "granted"; the ledger position is the best
    // stand-in (they coincide whenever nothing is oversold).
    stat.granted = t.find("granted") != nullptr
                       ? num_field(t, "granted", fail)
                       : stat.share;
    stat.contributed = num_field(t, "contributed", fail);
    stat.gained = num_field(t, "gained", fail);
    out.tenants.push_back(std::move(stat));
  }
  return out;
}

std::string empty_alerts_document() {
  return R"({"windows":0,"active":[],"resolved":[],"total":0})";
}

OpsHub::OpsHub(Config config)
    : config_(config), alerts_json_(empty_alerts_document()) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

void OpsHub::publish_round(const RoundSummary& summary) {
  std::string line = round_summary_to_json(summary).dump();
  {
    MutexLock lock(mu_);
    lines_.push_back(std::move(line));
    while (lines_.size() > config_.ring_capacity) {
      lines_.pop_front();
      ++base_seq_;
    }
    ++rounds_;
    any_round_ = true;
    last_round_ = std::chrono::steady_clock::now();
  }
  cv_.notify_all();
}

void OpsHub::set_alerts_json(std::string body) {
  MutexLock lock(mu_);
  alerts_json_ = std::move(body);
}

std::string OpsHub::alerts_json() const {
  MutexLock lock(mu_);
  return alerts_json_;
}

std::uint64_t OpsHub::rounds_published() const {
  MutexLock lock(mu_);
  return rounds_;
}

std::uint64_t OpsHub::oldest_seq() const {
  MutexLock lock(mu_);
  return base_seq_;
}

std::uint64_t OpsHub::next_seq() const {
  MutexLock lock(mu_);
  return base_seq_ + lines_.size();
}

std::size_t OpsHub::wait_lines(std::uint64_t* cursor,
                               std::vector<std::string>* out,
                               std::chrono::milliseconds timeout,
                               std::uint64_t* dropped) const {
  MutexLock lock(mu_);
  // The wait predicate runs under mu_ but from a lambda the analysis
  // cannot see through; assert_held() marks the boundary.
  cv_.wait_for(lock, timeout, [&] {
    mu_.assert_held();
    return base_seq_ + lines_.size() > *cursor;
  });
  if (*cursor < base_seq_) {
    if (dropped != nullptr) *dropped += base_seq_ - *cursor;
    *cursor = base_seq_;
  }
  std::size_t appended = 0;
  while (*cursor < base_seq_ + lines_.size()) {
    out->push_back(lines_[static_cast<std::size_t>(*cursor - base_seq_)]);
    ++*cursor;
    ++appended;
  }
  return appended;
}

double OpsHub::seconds_since_round() const {
  MutexLock lock(mu_);
  if (!any_round_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_round_)
      .count();
}

}  // namespace rrf::obs
