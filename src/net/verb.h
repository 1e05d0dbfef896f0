#ifndef DISAGG_NET_VERB_H_
#define DISAGG_NET_VERB_H_

#include <cstddef>
#include <cstdint>

namespace disagg {

/// The complete set of fabric operations. Every one-sided verb, doorbell
/// batch, and RPC is lowered to a `FabricOp` tagged with one of these and
/// executed by the single `Fabric::Execute()` path, so interceptors and
/// per-verb accounting see a uniform stream of operations.
///
/// Failure-status contract for fabric ops (two interceptors and the engine
/// degrade ladders branch on it, so the distinctions are load-bearing):
///
///  - `Status::Busy` — retryable *contention*: app-level conflicts (seqlock /
///    CAS convergence, lock conflicts, raft non-convergence) and congestion
///    admission control ("queue full", `FabricOp::admission_rejected`).
///    The target is healthy; backing off and retrying can succeed, though
///    retrying an admission rejection is budgeted tighter
///    (`RetryPolicy::max_admission_attempts`) since it amplifies overload.
///  - `Status::Unavailable` — a *fault*: the target node is failed, flapping,
///    or the packet was dropped.
///    Retry against the same node may succeed after recovery; falling over
///    to a replica (the degrade ladder) is usually better.
///  - `Status::TimedOut` — a genuine *deadline* expiry: the op's
///    `deadline_ns` budget ran out. The fabric emits it only when it refuses
///    an op before issue, and it then sets `FabricOp::deadline_exhausted`.
///    `RetryInterceptor` stops on that flag without re-issuing the op and
///    counts the op as given up (`gave_up()`): waiting longer cannot cure
///    it, so the only useful responses are degrading or reporting the miss.
///    A TimedOut without the flag (none is emitted today) would be retried
///    with backoff like Unavailable.
///
/// Engines must never surface `TimedOut` for contention (pinned by the chaos
/// suite's status-contract test).
enum class FabricVerb : uint8_t {
  kRead = 0,
  kWrite,
  kCas,
  kFetchAdd,
  kReadAtomic,
  kWriteBatch,
  kRpc,
  kBatch,  ///< doorbell-coalesced multi-op descriptor (`Fabric::ExecuteBatch`)
};

inline constexpr size_t kNumFabricVerbs = 8;

constexpr size_t VerbIndex(FabricVerb v) { return static_cast<size_t>(v); }

constexpr const char* FabricVerbName(FabricVerb v) {
  switch (v) {
    case FabricVerb::kRead:
      return "read";
    case FabricVerb::kWrite:
      return "write";
    case FabricVerb::kCas:
      return "cas";
    case FabricVerb::kFetchAdd:
      return "faa";
    case FabricVerb::kReadAtomic:
      return "read_atomic";
    case FabricVerb::kWriteBatch:
      return "write_batch";
    case FabricVerb::kRpc:
      return "rpc";
    case FabricVerb::kBatch:
      return "batch";
  }
  return "?";
}

}  // namespace disagg

#endif  // DISAGG_NET_VERB_H_
