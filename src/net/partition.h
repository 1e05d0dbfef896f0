#ifndef DISAGG_NET_PARTITION_H_
#define DISAGG_NET_PARTITION_H_

#include <map>
#include <memory>

#include "net/congestion.h"

namespace disagg {

/// The per-node congestion state one client partition accumulates while it
/// executes an epoch under the epoch-parallel driver (DESIGN.md "Parallel
/// simulation"): a `CongestionState::Shard` per congestion model touched,
/// created lazily on first use. With more than one partition the driver
/// installs one of these per partition via `PartitionEffectsScope` before
/// running the partition's slice of an epoch, and replays every shard into
/// the authoritative state at the barrier — in partition-id order, so the
/// merged evolution is a pure function of the simulation config, not of
/// thread scheduling.
///
/// Shards are keyed by the authoritative object's address, which makes the
/// routing workload-agnostic: the driver never needs to know which fabrics
/// (or how many) the client closure touches. Iteration order of this map
/// only interleaves shards of *independent* objects, so it cannot affect
/// results; the order that matters — partitions within one object — is
/// fixed by the driver's merge loop.
struct PartitionEffects {
  std::map<CongestionState*, std::unique_ptr<CongestionState::Shard>>
      congestion_shards;

  /// This partition's shard of `state`, created on first touch.
  CongestionState::Shard* ShardFor(CongestionState* state);
};

/// The calling thread's installed effects container (see
/// `PartitionEffectsScope`); read inline on every congested op.
inline thread_local PartitionEffects* current_partition_effects = nullptr;

/// The effects container installed for the calling thread, or null when no
/// partition of a multi-partition run is executing (single-partition runs
/// and all code outside the load driver see null and run the authoritative,
/// single-writer logic).
inline PartitionEffects* CurrentPartitionEffects() {
  return current_partition_effects;
}

/// RAII install/restore of the calling thread's `PartitionEffects`.
class PartitionEffectsScope {
 public:
  explicit PartitionEffectsScope(PartitionEffects* effects);
  ~PartitionEffectsScope();

  PartitionEffectsScope(const PartitionEffectsScope&) = delete;
  PartitionEffectsScope& operator=(const PartitionEffectsScope&) = delete;

 private:
  PartitionEffects* prev_;
};

}  // namespace disagg

#endif  // DISAGG_NET_PARTITION_H_
