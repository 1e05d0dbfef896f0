#ifndef DISAGG_MEMNODE_OFFLOAD_PROTOCOL_H_
#define DISAGG_MEMNODE_OFFLOAD_PROTOCOL_H_

#include <cstdint>

#include "net/rpc_method.h"

namespace disagg {
namespace offload {

/// Wire contract between compute-side offload clients (`RemoteBTree` in
/// offload mode, `OffloadedLockClient`) and the memory-node executor
/// (`src/memnode/executor.h`). Kept in its own header so the client side
/// does not need the executor's definition — only the verbs, outcome codes,
/// and the weak-CPU cost constants the conformance tests check against.

// ---- RPC methods (registered on the pool node) -----------------------------

inline const RpcMethod kIdxGet("exec.idx.get");
inline const RpcMethod kIdxScan("exec.idx.scan");
inline const RpcMethod kIdxPut("exec.idx.put");
inline const RpcMethod kIdxDelete("exec.idx.del");
inline const RpcMethod kLockAcquire("exec.lock.acquire");
inline const RpcMethod kLockRelease("exec.lock.release");

// ---- Lock-service outcome codes -------------------------------------------

/// First byte of every lock reply. The client maps them onto the fabric
/// status contract (src/net/verb.h): granted -> OK, conflict -> Busy
/// (retryable contention), wounded/fenced -> Aborted (the transaction must
/// abort; retrying the same txn id cannot succeed).
enum class LockOutcome : uint8_t {
  kGranted = 0,   ///< lock held by `txn` on return
  kConflict = 1,  ///< held by a conflicting txn; wound-wait says requester
                  ///< waits (abort-and-retry in the no-blocking RPC setting)
  kWounded = 2,   ///< requester was wounded by an older txn: abort now
  kFenced = 3,    ///< request carried a pre-crash epoch: every grant that
                  ///< epoch issued is void; abort and start over
};

/// Lock request modes (mirrors `LockMode` ordinals; a byte on the wire).
inline constexpr uint8_t kModeShared = 0;
inline constexpr uint8_t kModeExclusive = 1;

/// Epoch value a client sends for a transaction that holds no grants yet:
/// the executor adopts the current epoch for it instead of fencing.
inline constexpr uint64_t kFreshEpoch = 0;

// ---- Weak-CPU cost model ---------------------------------------------------

/// Compute charged by the executor per request, in wimpy-CPU nanoseconds
/// BEFORE the fabric scales it by the pool node's `cpu_scale` (1.5 for
/// `MemoryNode`, Sec. 1: pool-side cores run at lower clocks). The
/// traversal-RPC cost arithmetic test pins these exactly:
///
///   lookup/put/delete:  kDispatchNs + kNodeVisitNs * nodes_visited
///   scan:               kDispatchNs + kNodeVisitNs * nodes_visited
///                                   + kEntryNs * entries_returned
///   lock acquire/release: kDispatchNs + kLockOpNs * (1 + piggybacked
///                                                        releases)
inline constexpr uint64_t kDispatchNs = 150;  ///< request decode + dispatch
inline constexpr uint64_t kNodeVisitNs = 60;  ///< one B+tree node inspected
inline constexpr uint64_t kEntryNs = 4;       ///< one scan entry encoded
inline constexpr uint64_t kLockOpNs = 120;    ///< one lock-table operation

}  // namespace offload
}  // namespace disagg

#endif  // DISAGG_MEMNODE_OFFLOAD_PROTOCOL_H_
