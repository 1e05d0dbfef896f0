#ifndef DISAGG_CORE_ENGINES_H_
#define DISAGG_CORE_ENGINES_H_

#include <memory>
#include <vector>

#include "core/row_engine.h"
#include "log/shared_log.h"
#include "memnode/page_source.h"
#include "storage/gossip.h"
#include "storage/object_store.h"
#include "storage/raft_lite.h"

namespace disagg {

/// Baseline monolithic database: WAL on the local disk, pages on the local
/// disk — nothing crosses a network. The reference point every shared-
/// storage design is compared against (Fig. 1 left-hand side).
class MonolithicDb : public RowEngine {
 public:
  explicit MonolithicDb(EngineLogConfig log = {});

  /// Flushes all dirty pages to the local disk (checkpoint).
  Status CheckpointPages(NetContext* ctx);

 private:
  Result<Page> FetchPage(NetContext* ctx, PageId id) override;

  InMemoryPageSource disk_;
};

/// Amazon Aurora (Sec. 2.1): "the log is the database". The WAL goes to a
/// 6-way/3-AZ quorum segment whose replicas materialize pages from it; the
/// compute node NEVER writes pages anywhere. Reads that miss the buffer
/// fetch materialized pages back from the segment.
class AuroraDb : public RowEngine {
 public:
  /// Shared-log mode replaces the smart segment with a dumb shared-log
  /// fleet plus this many page-materialization replicas.
  static constexpr int kSharedPageReplicas = 3;

  explicit AuroraDb(Fabric* fabric, ReplicatedSegment::Config config = {},
                    EngineLogConfig log = {});

  /// Null in shared-log mode (no quorum segment exists).
  ReplicatedSegment* segment() { return segment_; }

 private:
  Result<Page> FetchPage(NetContext* ctx, PageId id) override;
  Result<Page> FetchPageDegraded(NetContext* ctx, PageId id) override;
  Status OnCommit(NetContext* ctx,
                  std::span<const LogRecord> records) override;

  Fabric* fabric_;
  ReplicatedSegment* segment_;  // owned by the sink; null in shared mode
  // Shared-log mode only: the page-materialization fleet fed at commit.
  std::vector<NodeId> page_nodes_;
  std::vector<std::unique_ptr<PageStoreService>> page_services_;
};

/// Read replica attached to an AuroraDb: shares the writer's metadata
/// (row index, page LSNs) but reads pages directly from shared storage,
/// caching them and revalidating by LSN — adding readers never adds write
/// work (Sec. 2.1: replicas share the same storage).
class AuroraReader {
 public:
  AuroraReader(AuroraDb* writer, size_t cache_pages);

  Result<std::string> Get(NetContext* ctx, uint64_t key);

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t segment_reads() const { return segment_reads_; }

 private:
  AuroraDb* writer_;
  size_t cache_capacity_;
  std::map<PageId, Page> cache_;
  uint64_t cache_hits_ = 0;
  uint64_t segment_reads_ = 0;
};

/// Alibaba PolarDB (Sec. 2.1): ships BOTH the log (to PolarFS, a 3-way
/// RaftLite group) and whole dirty pages (to replicated page stores) — more
/// network traffic per transaction than Aurora, the trade-off the paper
/// calls out.
class PolarDb : public RowEngine {
 public:
  static constexpr int kPageReplicas = 3;

  explicit PolarDb(Fabric* fabric, EngineLogConfig log = {});

  /// Null in shared-log mode (the WAL rides the shared log, not PolarFS).
  RaftLiteGroup* polarfs() { return raft_; }

 private:
  Result<Page> FetchPage(NetContext* ctx, PageId id) override;
  Result<Page> FetchPageDegraded(NetContext* ctx, PageId id) override;
  Status OnCommit(NetContext* ctx,
                  std::span<const LogRecord> records) override;

  Fabric* fabric_;
  RaftLiteGroup* raft_;  // owned by the sink
  std::vector<NodeId> page_nodes_;
  std::vector<std::unique_ptr<PageStoreService>> page_services_;
};

/// Microsoft Socrates (Sec. 2.1): durability and availability separated
/// into four tiers — compute, the XLOG service (fast log landing),
/// page servers (availability, fed asynchronously from XLOG), and XStore
/// (cheap durable object storage for checkpoints).
class SocratesDb : public RowEngine {
 public:
  SocratesDb(Fabric* fabric, int page_servers = 2, EngineLogConfig log = {});

  /// XLOG -> page servers dissemination (runs off the commit path).
  Status PropagateLogs(NetContext* ctx);

  /// Checkpoints current pages to XStore (durability without fast copies).
  Status CheckpointToXStore(NetContext* ctx);

  size_t page_server_count() const { return page_services_.size(); }
  NodeId page_server_node(int i) const { return page_nodes_[i]; }
  ObjectStoreService* xstore() { return xstore_service_.get(); }

 private:
  Result<Page> FetchPage(NetContext* ctx, PageId id) override;
  Result<Page> FetchPageDegraded(NetContext* ctx, PageId id) override;

  Fabric* fabric_;
  NodeId xlog_node_ = 0;                     // 0 in shared-log mode
  LogStoreService* xlog_service_ = nullptr;  // owned by the sink; null shared
  std::vector<NodeId> page_nodes_;
  std::vector<std::unique_ptr<PageStoreService>> page_services_;
  NodeId xstore_node_ = 0;
  std::unique_ptr<ObjectStoreService> xstore_service_;
  Lsn propagated_lsn_ = kInvalidLsn;
};

/// Huawei Taurus (Sec. 2.1): logs and pages get *different* replication.
/// The writer appends to all log stores (majority ack) but propagates each
/// commit's redo to only ONE page store; gossip brings the others up to
/// date, trading write-path work for temporary page-store staleness.
class TaurusDb : public RowEngine {
 public:
  TaurusDb(Fabric* fabric, int log_stores = 3, int page_stores = 3,
           EngineLogConfig log = {});

  /// One gossip round among the page stores.
  size_t RunGossipRound(NetContext* ctx);
  bool PageStoresConverged() const { return gossip_->Converged(); }
  size_t page_store_count() const { return page_services_.size(); }
  NodeId page_store_node(int i) const { return page_nodes_[i]; }

 private:
  Result<Page> FetchPage(NetContext* ctx, PageId id) override;
  Result<Page> FetchPageDegraded(NetContext* ctx, PageId id) override;
  Status OnCommit(NetContext* ctx,
                  std::span<const LogRecord> records) override;

  Fabric* fabric_;
  std::vector<NodeId> page_nodes_;
  std::vector<std::unique_ptr<PageStoreService>> page_services_;
  std::unique_ptr<GossipGroup> gossip_;
  size_t next_page_store_ = 0;  // round-robin target
};

}  // namespace disagg

#endif  // DISAGG_CORE_ENGINES_H_
