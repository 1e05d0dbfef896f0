#include "net/congestion.h"

#include <algorithm>

#include "net/partition.h"

namespace disagg {

CongestionState::CongestionState(CongestionConfig config)
    : config_(std::move(config)) {
  auto table = std::make_shared<ControlTable>();
  table->sfq = config_.wfq_enabled();
  table->bounded = ConfigBounded();
  for (const auto& [tenant, w] : config_.tenant_weights) {
    table->tenants[tenant].weight = w;
  }
  controls_current_ = std::move(table);
  controls_snapshot_.store(controls_current_.get(), std::memory_order_release);
}

void CongestionState::UpdateTenantControls(
    const std::map<uint32_t, TenantControl>& controls) {
  auto table = std::make_shared<ControlTable>();
  table->sfq = config_.wfq_enabled();
  table->bounded = ConfigBounded();
  for (const auto& [tenant, control] : controls) {
    if (control.max_backlog_ns != 0) table->bounded = true;
  }
  table->tenants = controls;
  std::lock_guard<std::mutex> lock(mu_);
  controls_retired_.push_back(std::move(controls_current_));
  controls_current_ = std::move(table);
  controls_snapshot_.store(controls_current_.get(), std::memory_order_release);
}

bool CongestionState::ConfigBounded() const {
  if (config_.default_node.max_backlog_ns != 0) return true;
  for (const auto& [node, cap] : config_.node_caps) {
    if (cap.max_backlog_ns != 0) return true;
  }
  return false;
}

TenantControl CongestionState::ControlFor(uint32_t tenant) const {
  const ControlTable& ct = controls();
  auto it = ct.tenants.find(tenant);
  return it != ct.tenants.end() ? it->second : TenantControl{};
}

uint64_t CongestionState::AdmitOneFifo(Resource* r, uint64_t t,
                                       uint64_t bytes) {
  const uint64_t service = r->cap.ServiceNs(bytes);
  const uint64_t start = std::max(t, r->stats.free_ns);
  r->stats.free_ns = start + service;
  r->stats.ops++;
  r->stats.bytes += bytes;
  r->stats.busy_ns += service;
  r->stats.queue_ns += start - t;
  return start;
}

uint64_t CongestionState::AdmitOneSfq(const ControlTable& ct, Resource* r,
                                      uint32_t tenant, uint64_t t,
                                      uint64_t bytes) const {
  const uint64_t service = r->cap.ServiceNs(bytes);
  const double w = ct.WeightFor(tenant);

  // Fluid-server share at this instant: tenants whose lane is still draining
  // at the op's arrival are active; the lone-tenant case degenerates to
  // active == w, a stretch of exactly `service`, and FIFO arithmetic.
  double active = w;
  for (const auto& [id, lane] : r->lanes) {
    if (id != tenant && lane.free_ns > t) active += ct.WeightFor(id);
  }

  Lane& lane = r->lanes[tenant];
  const uint64_t start = std::max(t, lane.free_ns);
  const uint64_t stretch = static_cast<uint64_t>(
      static_cast<double>(service) * (active / w));
  lane.free_ns = start + stretch;
  lane.ops++;

  // The op's fluid completion is its lane's finish time; everything beyond
  // its bare service time was spent sharing the pipe, i.e. queueing. Report
  // `virtual_start = completion - service` so the caller's cut-through
  // cascade and delay arithmetic are identical to the FIFO discipline.
  const uint64_t virtual_start = lane.free_ns - service;
  r->stats.ops++;
  r->stats.bytes += bytes;
  r->stats.busy_ns += service;
  r->stats.queue_ns += virtual_start - t;
  if (lane.free_ns > r->stats.free_ns) r->stats.free_ns = lane.free_ns;
  return virtual_start;
}

uint64_t CongestionState::AdmitOneEdf(Resource* r, uint64_t t, uint64_t bytes,
                                      uint64_t eff_deadline_ns) {
  const uint64_t service = r->cap.ServiceNs(bytes);
  EdfQueue& q = r->edf;

  // Drain the virtual time elapsed since the last admission from the
  // earliest-deadline buckets: that is the work the fluid server completed.
  if (t > q.drained_to) {
    uint64_t elapsed = t - q.drained_to;
    q.drained_to = t;
    while (elapsed > 0 && !q.pending.empty()) {
      auto it = q.pending.begin();
      const uint64_t take = std::min(elapsed, it->second);
      it->second -= take;
      elapsed -= take;
      if (it->second == 0) q.pending.erase(it);
    }
  }

  // The op waits behind every pending byte with a deadline at or before its
  // own (ties serve in admission order); later-deadline work is preempted.
  uint64_t wait = 0;
  for (const auto& [d, rem] : q.pending) {
    if (d > eff_deadline_ns) break;
    wait += rem;
  }
  q.pending[eff_deadline_ns] += service;

  const uint64_t start = t + wait;
  uint64_t total_pending = 0;
  for (const auto& [d, rem] : q.pending) total_pending += rem;
  r->stats.free_ns = q.drained_to + total_pending;
  r->stats.ops++;
  r->stats.bytes += bytes;
  r->stats.busy_ns += service;
  r->stats.queue_ns += wait;
  return start;
}

uint64_t CongestionState::BacklogAt(const ControlTable& ct, const Resource& r,
                                    uint32_t tenant, uint64_t t,
                                    uint64_t eff_deadline_ns) const {
  if (r.cap.unlimited()) return 0;
  if (config_.edf_enabled()) {
    // Mirror of AdmitOneEdf without mutation: pending work at or before the
    // op's deadline, minus whatever the fluid server drained since the last
    // admission (drain is deadline-ordered, so it comes off this sum first).
    const EdfQueue& q = r.edf;
    uint64_t ahead = 0;
    for (const auto& [d, rem] : q.pending) {
      if (d > eff_deadline_ns) break;
      ahead += rem;
    }
    const uint64_t drained = t > q.drained_to ? t - q.drained_to : 0;
    return ahead > drained ? ahead - drained : 0;
  }
  if (!ct.sfq) {
    return r.stats.free_ns > t ? r.stats.free_ns - t : 0;
  }
  // SFQ: the wait an op would be charged is its own lane's drain time — a
  // light tenant is admitted even while a heavy tenant's lane is deep.
  auto it = r.lanes.find(tenant);
  if (it == r.lanes.end()) return 0;
  return it->second.free_ns > t ? it->second.free_ns - t : 0;
}

CongestionState::Resource* CongestionState::ResourceFor(NodeId node) {
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  std::optional<Resource>& slot = nodes_[node];
  if (!slot) {
    auto cit = config_.node_caps.find(node);
    const ResourceCapacity cap =
        cit == config_.node_caps.end() ? config_.default_node : cit->second;
    slot.emplace(Resource{cap, {}, {}, {}});
  }
  return &*slot;
}

const CongestionState::Resource* CongestionState::FindResource(
    NodeId node) const {
  return node < nodes_.size() && nodes_[node] ? &*nodes_[node] : nullptr;
}

bool CongestionState::TryAdmitOn(const ControlTable& ct, const Resource& link,
                                 uint32_t tenant, uint64_t arrival_ns,
                                 uint64_t deadline_ns) const {
  const uint64_t bound = ct.BoundFor(tenant, link.cap.max_backlog_ns);
  return bound == 0 ||
         BacklogAt(ct, link, tenant, arrival_ns,
                   EffectiveDeadline(arrival_ns, deadline_ns)) <= bound;
}

uint64_t CongestionState::AdmitOn(const ControlTable& ct, Resource* link,
                                  uint32_t tenant, uint64_t arrival_ns,
                                  uint64_t bytes, uint64_t deadline_ns) const {
  if (link->cap.unlimited()) return 0;
  const uint64_t start =
      config_.edf_enabled()
          ? AdmitOneEdf(link, arrival_ns, bytes,
                        EffectiveDeadline(arrival_ns, deadline_ns))
      : ct.sfq ? AdmitOneSfq(ct, link, tenant, arrival_ns, bytes)
               : AdmitOneFifo(link, arrival_ns, bytes);
  return start - arrival_ns;
}

// The authoritative path below takes no lock: it has one writer at a time
// (see the class comment).
bool CongestionState::TryAdmit(NodeId node, uint32_t tenant,
                               uint64_t arrival_ns, uint64_t deadline_ns) {
  const ControlTable& ct = controls();
  if (!ct.bounded) return true;
  if (PartitionEffects* eff = CurrentPartitionEffects()) {
    return eff->ShardFor(this)->TryAdmit(node, tenant, arrival_ns,
                                         deadline_ns);
  }
  Resource* link = ResourceFor(node);
  if (TryAdmitOn(ct, *link, tenant, arrival_ns, deadline_ns)) return true;
  link->stats.rejections++;
  return false;
}

uint64_t CongestionState::Admit(NodeId node, uint32_t tenant,
                                uint64_t arrival_ns, uint64_t bytes,
                                uint64_t deadline_ns) {
  if (PartitionEffects* eff = CurrentPartitionEffects()) {
    return eff->ShardFor(this)->Admit(node, tenant, arrival_ns, bytes,
                                      deadline_ns);
  }
  return AdmitOn(controls(), ResourceFor(node), tenant, arrival_ns, bytes,
                 deadline_ns);
}

CongestionState::Resource* CongestionState::Shard::LocalFor(NodeId node) {
  if (node < nodes_.size() && nodes_[node]) return &*nodes_[node];
  std::lock_guard<std::mutex> lock(owner_->mu_);
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  return &nodes_[node].emplace(*owner_->ResourceFor(node));
}

bool CongestionState::Shard::TryAdmit(NodeId node, uint32_t tenant,
                                      uint64_t arrival_ns,
                                      uint64_t deadline_ns) {
  const ControlTable& ct = owner_->controls();
  Resource* link = LocalFor(node);
  if (owner_->TryAdmitOn(ct, *link, tenant, arrival_ns, deadline_ns)) {
    return true;
  }
  // Local scratch counter (kept coherent for BacklogAt reads); the
  // authoritative counter is bumped when the logged event replays.
  link->stats.rejections++;
  log_.push_back(
      Event{Event::kReject, node, tenant, arrival_ns, 0, deadline_ns});
  return false;
}

uint64_t CongestionState::Shard::Admit(NodeId node, uint32_t tenant,
                                       uint64_t arrival_ns, uint64_t bytes,
                                       uint64_t deadline_ns) {
  log_.push_back(
      Event{Event::kAdmit, node, tenant, arrival_ns, bytes, deadline_ns});
  return owner_->AdmitOn(owner_->controls(), LocalFor(node), tenant,
                         arrival_ns, bytes, deadline_ns);
}

void CongestionState::MergeShard(Shard* shard) {
  const ControlTable& ct = controls();
  for (const Shard::Event& e : shard->log_) {
    Resource* link = ResourceFor(e.node);
    if (e.kind == Shard::Event::kAdmit) {
      AdmitOn(ct, link, e.tenant, e.arrival_ns, e.bytes, e.deadline_ns);
    } else {
      link->stats.rejections++;
    }
  }
  // Drop the epoch's copies: the next epoch re-snapshots the merged state.
  shard->log_.clear();
  for (std::optional<Resource>& slot : shard->nodes_) slot.reset();
}

CongestionState::ResourceStats CongestionState::NodeStats(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Resource* r = FindResource(node);
  return r == nullptr ? ResourceStats{} : r->stats;
}

std::map<uint32_t, uint64_t> CongestionState::NodeTenantOps(
    NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint32_t, uint64_t> out;
  const Resource* r = FindResource(node);
  if (r == nullptr) return out;
  for (const auto& [tenant, lane] : r->lanes) out[tenant] = lane.ops;
  return out;
}

uint64_t CongestionState::total_queue_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::optional<Resource>& r : nodes_) {
    if (r) total += r->stats.queue_ns;
  }
  return total;
}

uint64_t CongestionState::total_rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::optional<Resource>& r : nodes_) {
    if (r) total += r->stats.rejections;
  }
  return total;
}

void CongestionState::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::optional<Resource>& r : nodes_) {
    if (!r) continue;
    r->stats = ResourceStats{};
    r->lanes.clear();
    r->edf = EdfQueue{};
  }
}

}  // namespace disagg
