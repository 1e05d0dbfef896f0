#ifndef DISAGG_CORE_MULTI_WRITER_H_
#define DISAGG_CORE_MULTI_WRITER_H_

#include <memory>
#include <unordered_map>

#include "log/shared_log.h"
#include "memnode/shared_buffer_pool.h"
#include "storage/quorum.h"

namespace disagg {

/// "Scalable transactions in disaggregated databases" (Sec. 4, future
/// directions): the surveyed cloud databases funnel ALL writes through one
/// primary; with disaggregated shared memory, MULTIPLE writers become
/// feasible. This engine implements that direction:
///  - pages live in the shared remote buffer pool (every writer sees them);
///  - row locks live in a GLOBAL LOCK TABLE in disaggregated memory,
///    acquired with one-sided CAS — no lock server process;
///  - durability is a redo record on the shared storage quorum.
/// Writers on disjoint keys proceed fully in parallel; conflicting writers
/// collide on the remote CAS and retry — exactly the trade-off the paper
/// flags ("concurrency control is still challenging without hardware cache
/// coherence").
class MultiWriterDb {
 public:
  static constexpr size_t kLockSlots = 4096;

  MultiWriterDb(Fabric* fabric, size_t max_pages,
                ReplicatedSegment::Config storage_config = {},
                EngineLogConfig log = {});

  /// A writer client (any number may be attached).
  class Writer {
   public:
    struct Stats {
      uint64_t commits = 0;
      uint64_t lock_conflicts = 0;
    };

    Writer(MultiWriterDb* db, size_t local_cache_pages);

    /// Upserts key -> row under a global row lock. Busy on lock conflict
    /// (caller retries — the no-wait discipline).
    Status Put(NetContext* ctx, uint64_t key, Slice row);
    Result<std::string> Get(NetContext* ctx, uint64_t key);

    const Stats& stats() const { return stats_; }
    uint64_t writer_id() const { return writer_id_; }

    /// Crash recovery for the shared pool tier (see
    /// SharedBufferPoolClient::FenceCrashedWriters).
    Status FencePoolWriters(NetContext* ctx, uint64_t* repaired = nullptr) {
      return pool_client_.FenceCrashedWriters(ctx, repaired);
    }

   private:
    Status LockKey(NetContext* ctx, uint64_t key);
    Status UnlockKey(NetContext* ctx, uint64_t key);

    MultiWriterDb* db_;
    SharedBufferPoolClient pool_client_;
    uint64_t writer_id_;
    PageId insert_page_ = kInvalidPageId;  // writer-private insert page
    Stats stats_;
  };

  std::unique_ptr<Writer> AttachWriter(size_t local_cache_pages = 8);

  /// Crash recovery: releases every row lock still held by `writer_id`,
  /// which must belong to a writer declared dead (its Puts can no longer
  /// race — a live writer must never be fenced). Without this, a lock whose
  /// release verb was lost stays held forever and the key wedges Busy.
  Status FenceWriter(NetContext* ctx, uint64_t writer_id);

  size_t row_count() const { return index_.size(); }
  MemoryNode* pool() { return pool_.get(); }
  /// The redo-durability tier (quorum segment or shared-log tag).
  LogBackend* log_backend() { return log_backend_.get(); }
  /// Null in shared-log mode.
  ReplicatedSegment* segment() { return segment_; }

 private:
  friend class Writer;

  struct RowLoc {
    PageId page;
    uint16_t slot;
  };

  GlobalAddr LockAddr(uint64_t key) const {
    GlobalAddr addr = lock_table_;
    addr.offset += (key * 0x9E3779B97F4A7C15ull % kLockSlots) * 8;
    return addr;
  }

  Fabric* fabric_;
  std::unique_ptr<MemoryNode> pool_;
  std::unique_ptr<SharedBufferPoolHome> home_;
  std::unique_ptr<LogBackend> log_backend_;
  ReplicatedSegment* segment_ = nullptr;  // owned by log_backend_
  GlobalAddr lock_table_{};
  // Shared metadata (a real deployment would host this on the memory node
  // too; keeping it in-process models the metadata service).
  std::unordered_map<uint64_t, RowLoc> index_;
  std::mutex index_mu_;
  std::atomic<PageId> next_page_id_{1};
  std::atomic<uint64_t> next_writer_id_{1};
  std::atomic<Lsn> next_lsn_{1};
};

}  // namespace disagg

#endif  // DISAGG_CORE_MULTI_WRITER_H_
