#ifndef DISAGG_CORE_ROW_ENGINE_H_
#define DISAGG_CORE_ROW_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "common/flat_map.h"
#include "txn/txn_manager.h"

namespace disagg {

class SharedLogService;
class ConcurrencyOffload;

/// Opt-in graceful-degradation ladder for the buffer-miss *read* path: when
/// the strict fetch fails with `Busy`/`Unavailable`/`TimedOut`, the read is
/// served from the freshest reachable replica copy instead — provided its
/// LSN is within `max_staleness_lsn` of the page's `RequiredPageLsn` floor.
/// Accepted copies are accounted in `NetContext::degraded_ops` /
/// `staleness_lsn` and `EngineStats::degraded_fetches`, are never installed
/// in the write-path buffer, and are never used by writes. Only the
/// autocommit read-only path (`GetRow` / `GetRowReadOnly`) degrades: an
/// explicit transaction
/// may write values computed from its reads, and a stale input there would
/// silently corrupt the write — the read-only-session restriction real
/// bounded-staleness replicas impose. Disabled by default: no code path or
/// counter changes until `enabled` is set.
struct DegradePolicy {
  bool enabled = false;
  /// Max LSN staleness a degraded copy may carry below the required floor.
  /// 0 still helps: it admits exactly-fresh copies the strict path could
  /// not reach (e.g. replicas skipped for lagging acks or congestion).
  uint64_t max_staleness_lsn = 0;
};

/// Shared OLTP engine core: a keyed row store (uint64 key -> byte-string
/// row) on slotted pages with strict 2PL and ARIES-style logging. The
/// surveyed architectures differ ONLY in the two virtual hooks:
///
///   - where the write-ahead log goes (the LogBackend passed in), and
///   - what happens to data pages (`FetchPage` miss path + `OnCommit`
///     shipping hook).
///
/// Monolithic: local WAL + local pages.  Aurora: quorum WAL and *nothing*
/// shipped at commit — the log is the database.  PolarDB: Raft WAL + whole
/// pages shipped.  Socrates: XLOG WAL, page servers fed from the log,
/// checkpoints to XStore.  Taurus: replicated log stores + single-page-store
/// propagation with gossip.
class RowEngine {
 public:
  struct EngineStats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t page_fetches = 0;
    uint64_t degraded_fetches = 0;  ///< reads served by the degrade ladder
  };

  virtual ~RowEngine();  // out-of-line: owned_shared_log_ is forward-declared

  // -- Transactions ---------------------------------------------------
  TxnId Begin() { return tm_.Begin(); }
  Status Insert(NetContext* ctx, TxnId txn, uint64_t key, Slice row);
  Status Update(NetContext* ctx, TxnId txn, uint64_t key, Slice row);
  Status Delete(NetContext* ctx, TxnId txn, uint64_t key);
  /// Reads `key`'s row into `*row` (its capacity reused).
  Status Read(NetContext* ctx, TxnId txn, uint64_t key, std::string* row);
  Result<std::string> Read(NetContext* ctx, TxnId txn, uint64_t key);
  Status Commit(NetContext* ctx, TxnId txn);
  Status Abort(NetContext* ctx, TxnId txn);

  // -- Autocommit convenience ------------------------------------------
  Status Put(NetContext* ctx, uint64_t key, Slice row);
  Result<std::string> GetRow(NetContext* ctx, uint64_t key);

  /// `GetRow` without the durability round-trip: the transaction is
  /// read-only by construction, so ending it is just lock release — no
  /// commit record, no WAL flush, no log-quorum traffic. This is the read
  /// path an overloaded replica-read client wants: it may serve from the
  /// degrade ladder (same rules as `GetRow`) and it cannot be failed by
  /// log-tier congestion it never touches.
  Result<std::string> GetRowReadOnly(NetContext* ctx, uint64_t key);

  /// Location of a row (the shared metadata reader nodes consult).
  struct RowLoc {
    PageId page = kInvalidPageId;
    uint16_t slot = 0;
  };
  Result<RowLoc> Lookup(uint64_t key) const {
    const RowLoc* loc = index_.Find(key);
    if (loc == nullptr) return Status::NotFound("no such key");
    return *loc;
  }

  size_t row_count() const { return index_.size(); }
  const EngineStats& stats() const { return stats_; }

  /// Installs (or clears) the read-path degrade ladder. Takes effect for
  /// subsequent reads only; writes never consult it.
  void set_degrade_policy(DegradePolicy policy) { degrade_ = policy; }

  WalManager* wal() { return &wal_; }
  LogBackend* sink() { return sink_.get(); }

  /// Takes ownership of the shared-log fleet backing this engine's sink
  /// (registry-built "+slog" variants), tying its lifetime to the engine's.
  void AdoptSharedLog(std::unique_ptr<SharedLogService> shared_log);
  /// The adopted shared-log service, or null for legacy-log engines.
  SharedLogService* shared_log() { return owned_shared_log_.get(); }

  /// Takes ownership of a memory-node concurrency-offload bundle
  /// (registry-built "+offload" variants) and rewires the transaction
  /// manager's lock backend onto its `OffloadedLockClient`: every row-lock
  /// acquire/release becomes one RPC to the memory-node lock table instead
  /// of a compute-local map operation. Config-time only — call before any
  /// transaction begins. Engines that never adopt keep the compute-local
  /// `LockManager` with bit-identical behavior and counters.
  void AdoptConcurrencyOffload(std::unique_ptr<ConcurrencyOffload> offload);
  /// The adopted offload bundle, or null for local-lock engines.
  ConcurrencyOffload* concurrency_offload() { return owned_offload_.get(); }

  /// LSN of the newest buffered image of `id` (metadata for reader nodes).
  Lsn PageLsn(PageId id) const;

  /// Drops the local page buffer (compute crash / restart simulation);
  /// the index survives as it models the shared metadata service.
  void DropBuffer();

  /// Durable-LSN floor a fetched copy of `id` must carry for a read to be
  /// safe: the highest LSN of this page whose effects a committed
  /// transaction made durable beyond the local buffer. Fetch paths use it
  /// to reject stale replicas under faults (kInvalidLsn when untracked).
  Lsn RequiredPageLsn(PageId id) const {
    const Lsn* floor = durable_page_lsn_.Find(id);
    return floor == nullptr ? kInvalidLsn : *floor;
  }

  /// Full compute restart: drops the buffer and rebuilds page images by
  /// ARIES-replaying the durable log tier (`sink()->ReadAll`), installing
  /// the recovered pages as the new buffer contents. The architectures
  /// whose remote page tiers cannot be trusted after a faulty run (partial
  /// page shipping) recover through this path, exactly like their real
  /// counterparts replay the WAL.
  Status CrashAndRecover(NetContext* ctx);

 protected:
  // Out-of-line like the destructor: owned_shared_log_ is forward-declared.
  explicit RowEngine(std::unique_ptr<LogBackend> sink);

  /// Buffer-miss path: where this architecture reads pages from.
  virtual Result<Page> FetchPage(NetContext* ctx, PageId id) = 0;

  /// Degrade-ladder fallback: the freshest copy of `id` any reachable
  /// replica holds, with NO freshness gate — the caller (`GetPageForRead`)
  /// decides whether its LSN is tolerably stale. Engines with replicated
  /// page tiers override this; the default ends the ladder immediately.
  virtual Result<Page> FetchPageDegraded(NetContext* ctx, PageId id) {
    (void)ctx;
    (void)id;
    return Status::NotSupported("engine has no degraded fetch path");
  }

  /// Post-durability hook: ship pages / redo records per architecture.
  /// `records` are this transaction's stamped data records, valid until
  /// the hook returns.
  virtual Status OnCommit(NetContext* ctx,
                          std::span<const LogRecord> records) {
    (void)ctx;
    (void)records;
    return Status::OK();
  }

  Result<Page*> GetPage(NetContext* ctx, PageId id);

  /// `GetPage` plus the degrade ladder: on an eligible strict-path failure
  /// with a policy enabled, falls back to a bounded-staleness replica copy
  /// held in a read-only scratch slot (never the buffer, so writes cannot
  /// see it). Only read-only paths use this; write paths and transactional
  /// reads stay on `GetPage`.
  Result<Page*> GetPageForRead(NetContext* ctx, PageId id);

  /// The one read implementation, behind `Read`/`GetRow`:
  /// `allow_degraded` selects between the strict fetch and the degrade
  /// ladder.
  Status ReadImpl(NetContext* ctx, TxnId txn, uint64_t key,
                  bool allow_degraded, std::string* row);

  /// True when `st` is a failure the degrade ladder may absorb (the
  /// `Busy`/`Unavailable`/`TimedOut` contract in `src/net/verb.h`).
  static bool DegradeEligible(const Status& st) {
    return st.IsBusy() || st.IsUnavailable() || st.IsTimedOut();
  }

  /// Page with room for `bytes`, appending a fresh page when needed.
  Result<Page*> PageForInsert(NetContext* ctx, size_t bytes);

  /// Marks `records`' pages durably covered up to their LSNs. Engines call
  /// this from OnCommit once the transaction's page effects are
  /// recoverable outside the local buffer. Survives DropBuffer (it models
  /// metadata-service state, like the row index).
  void NoteDurablePageLsns(std::span<const LogRecord> records);

  std::unique_ptr<LogBackend> sink_;
  /// Owned shared-log fleet when built via the registry's "+slog" names
  /// (declared after sink_, destroyed first: the sink never dereferences
  /// the service — it only holds the fabric pointer and node ids).
  std::unique_ptr<SharedLogService> owned_shared_log_;
  /// Owned memory-node lock offload when built via "+offload" names
  /// (forward-declared like the shared log; destroyed before tm_ is never
  /// a hazard — tm_ only calls it during transactions, which end before
  /// teardown).
  std::unique_ptr<ConcurrencyOffload> owned_offload_;
  WalManager wal_;
  LockManager locks_;
  TxnManager tm_;
  FlatMap<RowLoc> index_;
  FlatMap<Lsn> durable_page_lsn_;
  std::map<PageId, Page> buffer_;
  std::set<PageId> dirty_;
  PageId next_page_id_ = 1;
  PageId insert_page_ = kInvalidPageId;
  EngineStats stats_;
  DegradePolicy degrade_;
  /// Last degraded read's page image: read-only, outside the buffer so the
  /// write path never builds on a stale copy. Valid until the next read.
  std::optional<Page> degraded_scratch_;
};

}  // namespace disagg

#endif  // DISAGG_CORE_ROW_ENGINE_H_
