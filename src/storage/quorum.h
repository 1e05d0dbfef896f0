#ifndef DISAGG_STORAGE_QUORUM_H_
#define DISAGG_STORAGE_QUORUM_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"
#include "storage/log_store.h"
#include "storage/page_store.h"

namespace disagg {

/// One replica of an Aurora-style storage segment: a storage node hosting
/// both a log service and a page service (the segment materializes pages
/// from the logs it receives).
struct SegmentReplica {
  NodeId node = 0;
  uint32_t az = 0;
  std::unique_ptr<LogStoreService> log_service;
  std::unique_ptr<PageStoreService> page_service;
};

/// Aurora's replicated segment (Sec. 2.1): V copies spread over `num_azs`
/// availability zones with write quorum W and read quorum R (Aurora uses
/// V=6, AZs=3, W=4, R=3 so that one whole-AZ failure plus one extra node
/// never blocks writes). Writes fan out in parallel; the caller's simulated
/// clock should advance by the W-th fastest ack (we charge the latest
/// branch finish, an over-charge when replicas are uneven).
class ReplicatedSegment {
 public:
  struct Config {
    int replicas = 6;
    int num_azs = 3;
    int write_quorum = 4;
    int read_quorum = 3;
    InterconnectModel model = InterconnectModel::Ssd();
  };

  /// Builds the replica nodes and services on `fabric`.
  ReplicatedSegment(Fabric* fabric, const Config& config,
                    const std::string& name_prefix = "seg");

  const Config& config() const { return config_; }
  size_t replica_count() const { return replicas_.size(); }
  const SegmentReplica& replica(size_t i) const { return replicas_[i]; }

  /// Ships redo records to all replicas; succeeds once `write_quorum` acks
  /// arrive. Records are queued for page materialization on each replica.
  /// Each replica is sent its un-acked suffix of the append history, so a
  /// replica that missed earlier appends (drop, flap, AZ outage) is resynced
  /// before the new records count as acked: an ack always means "this
  /// replica contiguously holds everything up to the acked LSN". In the
  /// fault-free case the suffix is exactly `records`, so costs are
  /// unchanged. Server-side LSN dedup makes re-sends idempotent.
  Result<Lsn> AppendLog(NetContext* ctx, const EncodedRecords& records);

  /// Reads a page from the first reachable replica whose durable LSN covers
  /// `min_lsn` (the compute node tracks acked LSNs, as in Aurora where reads
  /// normally touch a single replica).
  Result<Page> ReadPage(NetContext* ctx, PageId id, Lsn min_lsn);

  /// Degrade-ladder fallback: fans out to every reachable replica in
  /// parallel and returns the freshest materialized copy, with no acked-LSN
  /// or freshness gate — the caller judges the returned page's own LSN
  /// against its staleness bound.
  Result<Page> ReadPageFreshest(NetContext* ctx, PageId id);

  /// Establishes the recovery LSN by polling a read quorum — the crash
  /// recovery path where R + W > V guarantees the result is at least the
  /// highest quorum-committed LSN (it may exceed it if an interrupted write
  /// reached some replicas; Aurora completes or truncates those during
  /// repair).
  Result<Lsn> RecoverDurableLsn(NetContext* ctx);

  /// Recovery read: probes every replica's durable LSN in parallel, then
  /// streams the whole log from the replica with the highest one. Under
  /// fault schedules single replicas may lag, and resync keeps each one
  /// gap-free, so that replica is the most complete. Probes and read ride
  /// `Fabric::Execute`: recovery traffic is charged, traced and
  /// fault-injected like any other.
  Result<std::vector<LogRecord>> ReadLog(NetContext* ctx);

  /// Fails / revives every replica in an AZ (failure-injection helper).
  void FailAz(uint32_t az);
  void ReviveAz(uint32_t az);

  /// Number of replicas that currently acknowledge `lsn` as durable.
  int CountDurable(Lsn lsn) const;

 private:
  Fabric* fabric_;
  Config config_;
  std::vector<SegmentReplica> replicas_;
  // Writers may share one segment client (MultiWriterDb attaches any number
  // of threads); the append history and per-replica cursors below must move
  // as one unit, so appends hold this for their full fan-out.
  mutable std::mutex mu_;
  std::vector<Lsn> acked_lsn_;  // per-replica contiguously-acked LSN
  // Client-side append history driving per-replica resync: references into
  // each append's wire batch, which the replicas' stores share. Only what
  // some replica has not acked is kept: once every replica acks, the history
  // empties.
  EncodedRecords history_;
  std::vector<size_t> next_idx_;  // per-replica: first history_ index not acked
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_QUORUM_H_
