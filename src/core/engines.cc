#include "core/engines.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

namespace {

/// PolarFS sink: the WAL rides a 3-way RaftLite replication group.
class RaftLogSink : public LogBackend {
 public:
  explicit RaftLogSink(Fabric* fabric)
      : raft_(std::make_unique<RaftLiteGroup>(fabric, 3,
                                              InterconnectModel::Ssd(),
                                              "polarfs")) {}

  RaftLiteGroup* raft() { return raft_.get(); }

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    auto idx = raft_->Append(ctx, records.Batch(0, records.size()));
    if (!idx.ok()) return idx.status();
    Lsn max_lsn = kInvalidLsn;
    for (size_t i = 0; i < records.size(); i++) {
      max_lsn = std::max(max_lsn, records.lsn(i));
    }
    return max_lsn;
  }

  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    std::vector<LogRecord> out;
    for (uint64_t i = 0;; i++) {
      auto entry = raft_->ReadCommitted(ctx, i);
      if (entry.status().IsNotFound()) break;  // past the committed tail
      if (!entry.ok()) return entry.status();
      auto batch = LogRecord::DecodeBatch(entry->payload);
      if (!batch.ok()) return batch.status();
      for (LogRecord& r : *batch) out.push_back(std::move(r));
    }
    return out;
  }

 private:
  std::unique_ptr<RaftLiteGroup> raft_;
};

/// XLOG sink: one fast log service node (Socrates' log tier).
class XlogSink : public LogBackend {
 public:
  explicit XlogSink(Fabric* fabric) {
    node_ = fabric->AddNode("xlog", NodeKind::kLog, InterconnectModel::Ssd());
    service_ = std::make_unique<LogStoreService>(fabric, node_);
    client_ = std::make_unique<LogStoreClient>(fabric, node_);
  }

  NodeId node() const { return node_; }
  LogStoreService* service() { return service_.get(); }

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    return client_->Append(ctx,
                           RedoBatch::Encode(records, 0, records.size()));
  }
  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    return client_->ReadFrom(ctx, 0, ~0ull);
  }
  Result<std::vector<LogRecord>> ReadFrom(NetContext* ctx,
                                          Lsn from_exclusive) override {
    return client_->ReadFrom(ctx, from_exclusive, ~0ull);
  }

 private:
  NodeId node_ = 0;
  std::unique_ptr<LogStoreService> service_;
  std::unique_ptr<LogStoreClient> client_;
};

/// Taurus sink: N log stores, majority ack, parallel fan-out.
class MultiLogSink : public LogBackend {
 public:
  MultiLogSink(Fabric* fabric, int n) : fabric_(fabric) {
    for (int i = 0; i < n; i++) {
      NodeId node = fabric->AddNode("taurus-log" + std::to_string(i),
                                    NodeKind::kLog, InterconnectModel::Ssd());
      services_.push_back(std::make_unique<LogStoreService>(fabric, node));
      nodes_.push_back(node);
    }
  }

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    // One batch, scanned once and referenced by every store rather than
    // copied into each.
    const RedoBatch batch = RedoBatch::Encode(records, 0, records.size());
    int acks = 0;
    Lsn lsn = kInvalidLsn;
    (void)FanOut(ctx, nodes_, [&](NodeId node, NetContext* branch) {
      auto r = LogStoreClient(fabric_, node).Append(branch, batch);
      if (r.ok()) {
        acks++;
        lsn = std::max(lsn, *r);
      }
      return Status::OK();
    });
    const int majority = static_cast<int>(nodes_.size()) / 2 + 1;
    if (acks < majority) return Status::Unavailable("log-store majority lost");
    return lsn;
  }

  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    // Majority ack means no single store is guaranteed complete; merge the
    // reachable stores' logs (dedup by LSN) the way Taurus' recovery scans
    // its log-store fleet.
    std::map<Lsn, LogRecord> merged;
    size_t reachable = 0;
    for (size_t i = 0; i < nodes_.size(); i++) {
      LogStoreClient client(fabric_, nodes_[i]);
      auto r = client.ReadFrom(ctx, 0, ~0ull);
      if (!r.ok()) continue;
      reachable++;
      for (LogRecord& rec : *r) merged.emplace(rec.lsn, std::move(rec));
    }
    if (reachable == 0) return Status::Unavailable("no log store reachable");
    std::vector<LogRecord> out;
    out.reserve(merged.size());
    for (auto& [lsn, rec] : merged) out.push_back(std::move(rec));
    return out;
  }

 private:
  Fabric* fabric_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<LogStoreService>> services_;
};

/// Freshest "ckpt/<lsn>/<page>" key for `id` among `keys` (empty if none).
struct CheckpointRef {
  std::string key;
  Lsn lsn = kInvalidLsn;
};

CheckpointRef FreshestCheckpoint(const std::vector<std::string>& keys,
                                 PageId id) {
  const std::string suffix = "/" + std::to_string(id);
  CheckpointRef best;
  for (const std::string& key : keys) {
    if (key.size() < suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const Lsn lsn = std::strtoull(key.c_str() + 5, nullptr, 10);
    if (best.key.empty() || lsn > best.lsn) {
      best.key = key;
      best.lsn = lsn;
    }
  }
  return best;
}

bool UseShared(const EngineLogConfig& log) {
  return log.mode == EngineLogConfig::Mode::kShared;
}

/// Sink for shared-log mode: one tag of the configured SharedLogService.
/// Legacy sinks construct their private log tier (fabric nodes included) as
/// a side effect, so the selection must happen before sink construction —
/// a shared-mode engine never instantiates its legacy tier at all.
std::unique_ptr<LogBackend> SharedSink(const EngineLogConfig& log) {
  DISAGG_CHECK(log.shared_log != nullptr);
  return std::make_unique<SharedLogBackend>(log.shared_log->fabric(),
                                            log.shared_log, log.tag);
}

}  // namespace

// ---------------------------------------------------------------- Monolithic

MonolithicDb::MonolithicDb(EngineLogConfig log)
    : RowEngine(UseShared(log)
                    ? SharedSink(log)
                    : std::unique_ptr<LogBackend>(
                          std::make_unique<LocalDiskSink>())),
      disk_(InterconnectModel::Ssd()) {}

Result<Page> MonolithicDb::FetchPage(NetContext* ctx, PageId id) {
  return disk_.FetchPage(ctx, id);
}

Status MonolithicDb::CheckpointPages(NetContext* ctx) {
  for (PageId id : dirty_) {
    auto it = buffer_.find(id);
    if (it == buffer_.end()) continue;
    DISAGG_RETURN_NOT_OK(disk_.WritePage(ctx, it->second));
  }
  dirty_.clear();
  return Status::OK();
}

// -------------------------------------------------------------------- Aurora

AuroraDb::AuroraDb(Fabric* fabric, ReplicatedSegment::Config config,
                   EngineLogConfig log)
    : RowEngine(UseShared(log)
                    ? SharedSink(log)
                    : std::unique_ptr<LogBackend>(
                          std::make_unique<QuorumSink>(fabric, config,
                                                       "aurora-seg"))),
      fabric_(fabric),
      segment_(UseShared(log)
                   ? nullptr
                   : static_cast<QuorumSink*>(sink_.get())->segment()) {
  if (UseShared(log)) {
    // The smart segment materialized pages from the log as a side effect of
    // appending; with the WAL on the shared (dumb) log fleet, a dedicated
    // page-materialization fleet takes that job, fed from OnCommit.
    for (int i = 0; i < kSharedPageReplicas; i++) {
      NodeId node = fabric_->AddNode("aurora-ps" + std::to_string(i),
                                     NodeKind::kStorage,
                                     InterconnectModel::Ssd(),
                                     static_cast<uint32_t>(i));
      page_nodes_.push_back(node);
      page_services_.push_back(
          std::make_unique<PageStoreService>(fabric_, node));
    }
  }
}

Result<Page> AuroraDb::FetchPage(NetContext* ctx, PageId id) {
  // Replicas materialize pages independently, so under faults some may lag;
  // never accept a copy older than what committed transactions made durable.
  const Lsn required = RequiredPageLsn(id);
  if (segment_ != nullptr) return segment_->ReadPage(ctx, id, required);
  for (NodeId node : page_nodes_) {
    PageStoreClient client(fabric_, node);
    auto page = client.GetPage(ctx, id);
    if (page.ok()) {
      if (page->lsn() >= required) return page;
      continue;  // stale replica (missed an ApplyLog under faults)
    }
    if (page.status().IsNotFound() && required == kInvalidLsn) return page;
  }
  return Status::Unavailable("no sufficiently fresh page replica reachable");
}

Result<Page> AuroraDb::FetchPageDegraded(NetContext* ctx, PageId id) {
  if (segment_ != nullptr) return segment_->ReadPageFreshest(ctx, id);
  return GetFreshestPage(fabric_, ctx, page_nodes_, id);
}

Status AuroraDb::OnCommit(NetContext* ctx,
                          std::span<const LogRecord> records) {
  if (segment_ == nullptr && !records.empty()) {
    // Shared-log mode: the log fleet is dumb storage, so redo reaches the
    // page-materialization replicas here (parallel fan-out, all copies),
    // each referencing this one batch and its index.
    const RedoBatch batch = RedoBatch::Encode(records);
    DISAGG_RETURN_NOT_OK(
        FanOut(ctx, page_nodes_, [&](NodeId node, NetContext* branch) {
          PageStoreClient client(fabric_, node);
          return client.ApplyLog(branch, batch).status();
        }));
  }
  // Legacy mode ships nothing — the log IS the database. Either way the
  // durable tier now covers these pages up to their LSNs, so record the
  // freshness floor fetches must meet.
  NoteDurablePageLsns(records);
  return Status::OK();
}

AuroraReader::AuroraReader(AuroraDb* writer, size_t cache_pages)
    : writer_(writer), cache_capacity_(cache_pages) {
  // Readers revalidate against the writer's segment; the shared-log writer
  // has none (its page fleet serves FetchPage instead).
  DISAGG_CHECK(writer->segment() != nullptr);
}

Result<std::string> AuroraReader::Get(NetContext* ctx, uint64_t key) {
  DISAGG_ASSIGN_OR_RETURN(RowEngine::RowLoc loc, writer_->Lookup(key));
  const Lsn required = writer_->PageLsn(loc.page);
  auto it = cache_.find(loc.page);
  if (it != cache_.end() && it->second.lsn() >= required) {
    cache_hits_++;
    ctx->Charge(InterconnectModel::LocalDram().ReadCost(kPageSize));
  } else {
    segment_reads_++;
    DISAGG_ASSIGN_OR_RETURN(Page page,
                            writer_->segment()->ReadPage(ctx, loc.page,
                                                         required));
    if (cache_.size() >= cache_capacity_ && it == cache_.end()) {
      cache_.erase(cache_.begin());
    }
    it = cache_.insert_or_assign(loc.page, std::move(page)).first;
  }
  DISAGG_ASSIGN_OR_RETURN(Slice row, it->second.Get(loc.slot));
  return row.ToString();
}

// -------------------------------------------------------------------- Polar

PolarDb::PolarDb(Fabric* fabric, EngineLogConfig log)
    : RowEngine(UseShared(log)
                    ? SharedSink(log)
                    : std::unique_ptr<LogBackend>(
                          std::make_unique<RaftLogSink>(fabric))),
      fabric_(fabric),
      raft_(UseShared(log)
                ? nullptr
                : static_cast<RaftLogSink*>(sink_.get())->raft()) {
  for (int i = 0; i < kPageReplicas; i++) {
    NodeId node = fabric_->AddNode("polar-pages" + std::to_string(i),
                                   NodeKind::kStorage,
                                   InterconnectModel::Ssd(),
                                   static_cast<uint32_t>(i));
    page_nodes_.push_back(node);
    page_services_.push_back(std::make_unique<PageStoreService>(fabric_, node));
  }
}

Result<Page> PolarDb::FetchPage(NetContext* ctx, PageId id) {
  const Lsn required = RequiredPageLsn(id);
  for (NodeId node : page_nodes_) {
    PageStoreClient client(fabric_, node);
    auto page = client.GetPage(ctx, id);
    if (page.ok()) {
      if (page->lsn() >= required) return page;
      continue;  // stale replica (missed a PutPage under faults); keep looking
    }
    // A replica that has never seen the page is authoritative only when no
    // committed transaction is known to have shipped it.
    if (page.status().IsNotFound() && required == kInvalidLsn) return page;
  }
  return Status::Unavailable("no sufficiently fresh page replica reachable");
}

Result<Page> PolarDb::FetchPageDegraded(NetContext* ctx, PageId id) {
  return GetFreshestPage(fabric_, ctx, page_nodes_, id);
}

Status PolarDb::OnCommit(NetContext* ctx,
                         std::span<const LogRecord> records) {
  // PolarDB ships whole page images in addition to the log.
  std::vector<PageId> touched;
  touched.reserve(records.size());
  for (const LogRecord& r : records) {
    if (r.page_id != kInvalidPageId) touched.push_back(r.page_id);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  // One branch per replica puts every touched page, in page order.
  DISAGG_RETURN_NOT_OK(
      FanOut(ctx, page_nodes_, [&](NodeId node, NetContext* branch) {
        PageStoreClient client(fabric_, node);
        for (PageId id : touched) {
          auto it = buffer_.find(id);
          if (it == buffer_.end()) continue;
          DISAGG_RETURN_NOT_OK(client.PutPage(branch, it->second));
        }
        return Status::OK();
      }));
  for (PageId id : touched) dirty_.erase(id);
  // Every touched page now sits on all replicas at its commit LSN.
  NoteDurablePageLsns(records);
  return Status::OK();
}

// ------------------------------------------------------------------ Socrates

SocratesDb::SocratesDb(Fabric* fabric, int page_servers, EngineLogConfig log)
    : RowEngine(UseShared(log)
                    ? SharedSink(log)
                    : std::unique_ptr<LogBackend>(
                          std::make_unique<XlogSink>(fabric))),
      fabric_(fabric) {
  if (!UseShared(log)) {
    auto* sink = static_cast<XlogSink*>(sink_.get());
    xlog_node_ = sink->node();
    xlog_service_ = sink->service();
  }
  for (int i = 0; i < page_servers; i++) {
    NodeId node = fabric_->AddNode("socrates-ps" + std::to_string(i),
                                   NodeKind::kStorage,
                                   InterconnectModel::Ssd());
    page_nodes_.push_back(node);
    page_services_.push_back(std::make_unique<PageStoreService>(fabric_, node));
  }
  xstore_node_ = fabric_->AddNode("xstore", NodeKind::kObject,
                                  InterconnectModel::ObjectStore());
  xstore_service_ = std::make_unique<ObjectStoreService>(fabric_, xstore_node_);
}

Status SocratesDb::PropagateLogs(NetContext* ctx) {
  // The sink is the durable log tier — XLOG in legacy mode, a shared-log
  // tag otherwise; dissemination reads whichever through the same surface.
  DISAGG_ASSIGN_OR_RETURN(std::vector<LogRecord> records,
                          sink_->ReadFrom(ctx, propagated_lsn_));
  if (records.empty()) return Status::OK();
  // One batch, scanned once and referenced by every page server rather than
  // copied into each.
  const RedoBatch batch = RedoBatch::Encode(records);
  DISAGG_RETURN_NOT_OK(
      FanOut(ctx, page_nodes_, [&](NodeId node, NetContext* branch) {
        return PageStoreClient(fabric_, node).ApplyLog(branch, batch).status();
      }));
  propagated_lsn_ = records.back().lsn;
  // The availability tier now holds these pages at their logged LSNs.
  NoteDurablePageLsns(records);
  return Status::OK();
}

Status SocratesDb::CheckpointToXStore(NetContext* ctx) {
  ObjectStoreClient xstore(fabric_, xstore_node_);
  for (auto& [id, page] : buffer_) {
    Page sealed = page;
    sealed.Seal();
    const std::string key = "ckpt/" + std::to_string(sealed.lsn()) + "/" +
                            std::to_string(id);
    Status st = xstore.Put(ctx, key, Slice(sealed.data(), kPageSize));
    if (!st.ok() && !st.IsInvalidArgument()) return st;  // exists = already
  }
  return Status::OK();
}

Result<Page> SocratesDb::FetchPage(NetContext* ctx, PageId id) {
  const Lsn required = RequiredPageLsn(id);
  for (NodeId node : page_nodes_) {
    PageStoreClient client(fabric_, node);
    auto page = client.GetPage(ctx, id);
    if (page.ok() && page->lsn() >= required) return page;
  }
  // Availability tier empty: fall back to the durable XStore checkpoint.
  ObjectStoreClient xstore(fabric_, xstore_node_);
  DISAGG_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                          xstore.List(ctx, "ckpt/"));
  const CheckpointRef best = FreshestCheckpoint(keys, id);
  if (best.key.empty()) {
    return required == kInvalidLsn
               ? Status::NotFound("page in no tier")
               : Status::Unavailable("no sufficiently fresh copy in any tier");
  }
  if (best.lsn < required) {
    return Status::Unavailable("checkpoint older than durable commits");
  }
  DISAGG_ASSIGN_OR_RETURN(std::string blob, xstore.Get(ctx, best.key));
  return Page::FromBytes(blob);
}

Result<Page> SocratesDb::FetchPageDegraded(NetContext* ctx, PageId id) {
  auto best = GetFreshestPage(fabric_, ctx, page_nodes_, id);
  if (best.ok()) return best;
  // No page server reachable: the freshest checkpoint, however old, is the
  // last rung of the ladder.
  ObjectStoreClient xstore(fabric_, xstore_node_);
  auto keys = xstore.List(ctx, "ckpt/");
  if (!keys.ok()) return best;
  const CheckpointRef ckpt = FreshestCheckpoint(*keys, id);
  if (ckpt.key.empty()) return best;
  auto blob = xstore.Get(ctx, ckpt.key);
  if (!blob.ok()) return best;
  return Page::FromBytes(*blob);
}

// -------------------------------------------------------------------- Taurus

TaurusDb::TaurusDb(Fabric* fabric, int log_stores, int page_stores,
                   EngineLogConfig log)
    : RowEngine(UseShared(log)
                    ? SharedSink(log)
                    : std::unique_ptr<LogBackend>(
                          std::make_unique<MultiLogSink>(fabric, log_stores))),
      fabric_(fabric) {
  std::vector<PageStoreService*> raw;
  for (int i = 0; i < page_stores; i++) {
    NodeId node = fabric_->AddNode("taurus-ps" + std::to_string(i),
                                   NodeKind::kStorage,
                                   InterconnectModel::Ssd());
    page_nodes_.push_back(node);
    page_services_.push_back(std::make_unique<PageStoreService>(fabric_, node));
    raw.push_back(page_services_.back().get());
  }
  gossip_ = std::make_unique<GossipGroup>(fabric_, raw);
}

Status TaurusDb::OnCommit(NetContext* ctx,
                          std::span<const LogRecord> records) {
  // Each page has ONE home page store (sharded by page id) that receives
  // its redo; gossip spreads the materialized pages to the others
  // (Sec. 2.1: "propagated to one page store ... gossip protocol to achieve
  // consistency among different page stores").
  if (records.empty()) return Status::OK();
  auto home_of = [&](const LogRecord& r) -> size_t {
    return r.page_id == kInvalidPageId
               ? 0
               : (r.page_id * 0x9E3779B97F4A7C15ull) % page_nodes_.size();
  };
  // One batch per home store that has records, in store order, encoded
  // straight from the commit's records.
  std::vector<std::pair<NodeId, RedoBatch>> by_store;
  by_store.reserve(page_nodes_.size());
  for (size_t store = 0; store < page_nodes_.size(); store++) {
    uint64_t count = 0;
    size_t size = 0;
    for (const LogRecord& r : records) {
      if (home_of(r) != store) continue;
      count++;
      size += r.EncodedSize();
    }
    if (count == 0) continue;
    auto bytes = std::make_shared<std::string>();
    bytes->reserve(VarintLength(count) + size);
    PutVarint64(bytes.get(), count);
    for (const LogRecord& r : records) {
      if (home_of(r) == store) r.EncodeTo(bytes.get());
    }
    DISAGG_ASSIGN_OR_RETURN(RedoBatch batch,
                            RedoBatch::Index(std::move(bytes)));
    by_store.emplace_back(page_nodes_[store], std::move(batch));
  }
  DISAGG_RETURN_NOT_OK(
      FanOut(ctx, by_store, [&](const auto& home, NetContext* branch) {
        PageStoreClient client(fabric_, home.first);
        return client.ApplyLog(branch, home.second).status();
      }));
  // Each page's home store now holds its redo; freshest-wins fetches plus
  // this floor keep reads from ever regressing below the commit.
  NoteDurablePageLsns(records);
  return Status::OK();
}

size_t TaurusDb::RunGossipRound(NetContext* ctx) {
  return gossip_->RunRound(ctx);
}

Result<Page> TaurusDb::FetchPage(NetContext* ctx, PageId id) {
  // Page stores may be mutually stale; take the freshest copy.
  auto best = GetFreshestPage(fabric_, ctx, page_nodes_, id,
                              Status::NotFound("page in no store"));
  const Lsn required = RequiredPageLsn(id);
  if (required != kInvalidLsn && (!best.ok() || best->lsn() < required)) {
    // Gossip has not yet spread the freshest image and its home store is
    // unreachable — refusing beats silently reading a stale page.
    return Status::Unavailable("no page store fresh enough");
  }
  return best;
}

Result<Page> TaurusDb::FetchPageDegraded(NetContext* ctx, PageId id) {
  // The strict path is already freshest-wins; the ladder only removes the
  // RequiredPageLsn gate (gossip may not have spread the newest image yet).
  return GetFreshestPage(fabric_, ctx, page_nodes_, id);
}

}  // namespace disagg
