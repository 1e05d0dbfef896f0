#ifndef DISAGG_STORAGE_LOG_BACKEND_H_
#define DISAGG_STORAGE_LOG_BACKEND_H_

#include <vector>

#include "common/result.h"
#include "net/net_context.h"
#include "storage/log_record.h"

namespace disagg {

/// The seam between a compute-side WAL and whatever durable log tier an
/// architecture uses. This is exactly what differentiates the surveyed
/// engines: a local disk (monolithic), one log service (Socrates XLOG), an
/// Aurora quorum segment, a Raft group (PolarFS), a majority-ack log-store
/// fleet (Taurus) — or, since the shared-log refactor, a tag partition of
/// the disaggregated `SharedLogService` (`src/log/shared_log.h`) that many
/// engines and ephemeral compute nodes target concurrently.
///
/// Contract (every implementation):
///   - `Append` is the durability point: an OK result means the records are
///     durable per the backend's discipline (fsync, write quorum, majority
///     ack, shared-log replication quorum) and returns the highest LSN the
///     batch made durable. A failure means durability is UNKNOWN — the batch
///     may still land (callers re-buffer and a later Append may persist it),
///     which is the "maybe-committed" semantics the chaos model checks.
///   - Records are appended in LSN order by a single WAL; backends dedup
///     re-sent records by LSN, so re-appending after a failed flush is
///     idempotent.
///   - `ReadAll` returns every durable record in strictly increasing LSN
///     order (ARIES replay input). `ReadFrom(from_exclusive)` returns the
///     suffix with `lsn > from_exclusive` under the same ordering — the
///     exclusive-bound convention shared with `LogStoreClient::ReadFrom`
///     (see `src/storage/log_store.h` for the wire-level contract).
class LogBackend {
 public:
  virtual ~LogBackend() = default;

  /// `records` arrive encoded, as the WAL buffered them, so sinks ship or
  /// store the bytes without re-encoding.
  virtual Result<Lsn> Append(NetContext* ctx,
                             const EncodedRecords& records) = 0;

  virtual Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) = 0;

  /// Durable records with `lsn > from_exclusive`, in LSN order. The default
  /// reads everything and filters client-side; backends with a server-side
  /// bound (log service, shared log) override it so only the tail crosses
  /// the wire.
  virtual Result<std::vector<LogRecord>> ReadFrom(NetContext* ctx,
                                                  Lsn from_exclusive) {
    DISAGG_ASSIGN_OR_RETURN(std::vector<LogRecord> all, ReadAll(ctx));
    std::vector<LogRecord> out;
    for (LogRecord& r : all) {
      if (r.lsn > from_exclusive) out.push_back(std::move(r));
    }
    return out;
  }
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_LOG_BACKEND_H_
