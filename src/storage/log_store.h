#ifndef DISAGG_STORAGE_LOG_STORE_H_
#define DISAGG_STORAGE_LOG_STORE_H_

#include <mutex>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"
#include "storage/log_record.h"

namespace disagg {

/// Durable log service hosted on a log/storage node (Aurora's log tier,
/// Socrates' XLOG landing zone). Exposes RPCs:
///   log.append   -- append a batch, returns the new durable LSN
///   log.read     -- read records with lsn > from_lsn (bounded count)
///   log.tail     -- return the highest durable LSN (no records on the wire)
///
/// Read contract (shared with `LogBackend::ReadFrom` and the shared log's
/// `slog.read`): the bound is EXCLUSIVE — `log.read(from, max)` returns up
/// to `max` records with `lsn > from`, in strictly increasing LSN order.
/// Passing `from = 0` (aka `kInvalidLsn`) therefore reads from the start;
/// passing the LSN of the last record seen resumes without duplicates, so
/// pagination is `from = last_batch.back().lsn`. Appends are idempotent by
/// LSN: records with `lsn <= durable_lsn` are dropped on re-send, which is
/// what makes WAL re-flush after a failed batch safe.
///
/// Records are kept as the bytes they arrived in (`EncodedRecords`), by
/// reference to the request batch (`RpcServerContext::RetainRequest`):
/// `log.read` returns stored bytes without re-encoding, and records are
/// decoded only when a co-located caller asks for them (SnapshotFrom).
/// `log.append` takes its records from the index of an exact `RedoBatch`
/// owner (`RpcServerContext::ExactOwner`) and scans any other request;
/// either way it walks the records one by one. The log keeps the batch's
/// bytes, never its index.
///
/// All state is behind a mutex; handler compute time is charged to callers
/// via RpcServerContext.
class LogStoreService {
 public:
  LogStoreService(Fabric* fabric, NodeId node);

  NodeId node() const { return node_; }

  /// Highest LSN made durable here (test/inspection accessor).
  Lsn durable_lsn() const;
  size_t record_count() const;

  /// Direct (non-fabric) access used by co-located recovery paths.
  std::vector<LogRecord> SnapshotFrom(Lsn from_exclusive) const;

 private:
  Status HandleAppend(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleRead(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleTail(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_;
  NodeId node_;
  mutable std::mutex mu_;
  // In increasing LSN order: appends only accept lsn > durable_lsn_.
  EncodedRecords log_;
  // log.append's scan of an unindexed request, reused across requests (mu_).
  std::vector<LogRecordSpan> scan_;
  Lsn durable_lsn_ = kInvalidLsn;
};

/// Compute-side client for a LogStoreService.
class LogStoreClient {
 public:
  LogStoreClient(Fabric* fabric, NodeId node) : fabric_(fabric), node_(node) {}

  NodeId node() const { return node_; }

  /// Appends an indexed batch. The store keeps a reference to its bytes
  /// rather than a copy and reuses its index rather than scanning, so a
  /// caller fanning one batch out to several stores encodes, scans and
  /// stores it once.
  Result<Lsn> Append(NetContext* ctx, const RedoBatch& batch);
  Result<std::vector<LogRecord>> ReadFrom(NetContext* ctx, Lsn from_exclusive,
                                          uint64_t max_records = 1024);
  /// Highest durable LSN on the node, fetched over the fabric (so deadline
  /// and WFQ accounting apply — recovery probes must not peek service state
  /// directly).
  Result<Lsn> DurableLsn(NetContext* ctx);

 private:
  Fabric* fabric_;
  NodeId node_;
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_LOG_STORE_H_
