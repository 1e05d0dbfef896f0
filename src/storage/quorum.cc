#include "storage/quorum.h"

#include <algorithm>
#include <optional>
#include <ranges>
#include <string>

namespace disagg {

ReplicatedSegment::ReplicatedSegment(Fabric* fabric, const Config& config,
                                     const std::string& name_prefix)
    : fabric_(fabric), config_(config) {
  for (int i = 0; i < config_.replicas; i++) {
    const uint32_t az = static_cast<uint32_t>(i % config_.num_azs);
    SegmentReplica replica;
    replica.az = az;
    replica.node = fabric_->AddNode(
        name_prefix + "-r" + std::to_string(i), NodeKind::kStorage,
        config_.model, az);
    fabric_->node(replica.node)->set_cpu_scale(2.0);  // wimpy storage CPU
    replica.log_service =
        std::make_unique<LogStoreService>(fabric_, replica.node);
    replica.page_service =
        std::make_unique<PageStoreService>(fabric_, replica.node);
    replicas_.push_back(std::move(replica));
  }
  acked_lsn_.assign(replicas_.size(), kInvalidLsn);
  next_idx_.assign(replicas_.size(), 0);
}

Result<Lsn> ReplicatedSegment::AppendLog(NetContext* ctx,
                                         const EncodedRecords& records) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fault-free every replica's un-acked suffix is exactly `records`, so all
  // of them share this one indexed batch for both the log and the page
  // service: it is scanned once, here, and every store keeps a reference
  // to its bytes instead of a copy. The history indexes the same bytes.
  const RedoBatch batch = RedoBatch::Encode(records, 0, records.size());
  const size_t first_new = history_.size();
  for (const LogRecordSpan& r : batch.spans()) {
    history_.Append(r.lsn, batch.bytes(),
                    r.bytes.data() - batch.bytes()->data(), r.bytes.size());
  }
  size_t fanout = replicas_.size();
#ifdef DISAGG_CHAOS_MUTATION
  // Chaos-harness self-check mutation: silently skip the last replica and
  // accept one ack short of the configured write quorum. Under a schedule
  // flapping V-W replicas this commits data that is NOT quorum-durable;
  // the harness's durability checker must catch it.
  fanout = replicas_.size() - 1;
#endif
  int acks = 0;
  Lsn lsn = kInvalidLsn;
  (void)FanOut(ctx, std::views::iota(size_t{0}, fanout),
               [&](size_t i, NetContext* branch) {
    // Resync: a replica that missed earlier appends gets everything it has
    // not acked yet, so the new records never land with a gap in front.
    std::optional<RedoBatch> resync;
    if (next_idx_[i] != first_new) {
      resync = RedoBatch::Encode(history_, next_idx_[i],
                                 history_.size() - next_idx_[i]);
    }
    const RedoBatch& req = resync.has_value() ? *resync : batch;
    LogStoreClient log_client(fabric_, replicas_[i].node);
    PageStoreClient page_client(fabric_, replicas_[i].node);
    auto r = log_client.Append(branch, req);
    if (!r.ok()) return Status::OK();
    // The segment also queues the redo for page materialization.
    auto p = page_client.ApplyLog(branch, req);
    if (!p.ok()) return Status::OK();
    next_idx_[i] = history_.size();
    acked_lsn_[i] = *r;
    lsn = std::max(lsn, *r);
    acks++;
    return Status::OK();
  });
  // Every replica holds the whole history: nothing is left to resync.
  if (std::all_of(next_idx_.begin(), next_idx_.end(), [&](size_t next) {
        return next == history_.size();
      })) {
    history_.Clear();
    std::fill(next_idx_.begin(), next_idx_.end(), 0);
  }
  int required = config_.write_quorum;
#ifdef DISAGG_CHAOS_MUTATION
  required = config_.write_quorum - 1;
#endif
  if (acks < required) {
    return Status::Unavailable("write quorum not met: " +
                               std::to_string(acks) + "/" +
                               std::to_string(config_.write_quorum));
  }
  return lsn;
}

Result<Page> ReplicatedSegment::ReadPage(NetContext* ctx, PageId id,
                                         Lsn min_lsn) {
  std::vector<Lsn> acked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    acked = acked_lsn_;
  }
  for (size_t i = 0; i < replicas_.size(); i++) {
    if (acked[i] < min_lsn) continue;
    if (fabric_->node(replicas_[i].node)->failed()) continue;
    PageStoreClient page_client(fabric_, replicas_[i].node);
    auto page = page_client.GetPage(ctx, id);
    if (page.ok()) return page;
  }
  return Status::Unavailable("no reachable replica covers the required LSN");
}

Result<Page> ReplicatedSegment::ReadPageFreshest(NetContext* ctx, PageId id) {
  std::vector<NodeId> nodes;
  for (const SegmentReplica& r : replicas_) nodes.push_back(r.node);
  return GetFreshestPage(fabric_, ctx, nodes, id,
                         Status::Unavailable("no replica holds the page"));
}

Result<Lsn> ReplicatedSegment::RecoverDurableLsn(NetContext* ctx) {
  std::vector<Lsn> seen;
  (void)FanOut(ctx, replicas_, [&](const SegmentReplica& r,
                                   NetContext* branch) {
    if (static_cast<int>(seen.size()) >= config_.read_quorum) {
      return Status::OK();
    }
    // The probe rides the fabric end to end — the replica reports its own
    // durable LSN in the response, never peeked out of process (a dropped
    // or failed probe must not see the state it could not reach).
    auto lsn = LogStoreClient(fabric_, r.node).DurableLsn(branch);
    if (lsn.ok()) seen.push_back(*lsn);
    return Status::OK();
  });
  if (static_cast<int>(seen.size()) < config_.read_quorum) {
    return Status::Unavailable("read quorum not met");
  }
  // With W + R > V, the max over any R replicas is at least the highest
  // quorum-committed LSN.
  return *std::max_element(seen.begin(), seen.end());
}

Result<std::vector<LogRecord>> ReplicatedSegment::ReadLog(NetContext* ctx) {
  const SegmentReplica* best = nullptr;
  Lsn best_lsn = kInvalidLsn;
  (void)FanOut(ctx, replicas_, [&](const SegmentReplica& r,
                                   NetContext* branch) {
    auto lsn = LogStoreClient(fabric_, r.node).DurableLsn(branch);
    if (lsn.ok() && (best == nullptr || *lsn > best_lsn)) {
      best = &r;
      best_lsn = *lsn;
    }
    return Status::OK();
  });
  if (best == nullptr) {
    return Status::Unavailable("no segment replica reachable");
  }
  return LogStoreClient(fabric_, best->node).ReadFrom(ctx, 0, ~0ull);
}

void ReplicatedSegment::FailAz(uint32_t az) {
  for (auto& r : replicas_) {
    if (r.az == az) fabric_->node(r.node)->Fail();
  }
}

void ReplicatedSegment::ReviveAz(uint32_t az) {
  for (auto& r : replicas_) {
    if (r.az == az) fabric_->node(r.node)->Revive();
  }
}

int ReplicatedSegment::CountDurable(Lsn lsn) const {
  int n = 0;
  for (const auto& r : replicas_) {
    if (!fabric_->node(r.node)->failed() &&
        r.log_service->durable_lsn() >= lsn) {
      n++;
    }
  }
  return n;
}

}  // namespace disagg
