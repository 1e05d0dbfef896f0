#ifndef DISAGG_QUERY_PUSHDOWN_H_
#define DISAGG_QUERY_PUSHDOWN_H_

#include <string>
#include <vector>

#include "memnode/memory_node.h"
#include "query/operators.h"

namespace disagg {

/// A relation resident in disaggregated memory, with the two access paths
/// the paper contrasts for memory-disaggregated OLAP (Sec. 3.2):
///
///  - `FetchAll` + client-side operators: every byte crosses the network —
///    the baseline whose cost TELEPORT calls out;
///  - `Pushdown`: serialize the operator fragment and execute it next to the
///    data on the pool-side CPU (TELEPORT's function shipping; with a deep
///    fragment this is also Farview's pipelined operator stack, the compute
///    device being an FPGA there and a wimpy core here). Only results cross
///    the network.
class RemoteTable {
 public:
  /// Materializes `rows` into `pool` and registers this table's pushdown
  /// handler on the pool node.
  static Result<RemoteTable> Create(NetContext* ctx, Fabric* fabric,
                                    MemoryNode* pool, Schema schema,
                                    const std::vector<Tuple>& rows);

  const Schema& schema() const { return schema_; }
  size_t row_count() const { return row_count_; }
  size_t bytes() const { return bytes_; }

  /// Baseline: pull all rows to the compute node (then operate locally).
  Result<std::vector<Tuple>> FetchAll(NetContext* ctx);

  /// TELEPORT/Farview: execute the fragment on the memory node.
  Result<std::vector<Tuple>> Pushdown(NetContext* ctx,
                                      const ops::Fragment& fragment);

 private:
  explicit RemoteTable(RpcMethod method) : method_(method) {}

  Status HandleExec(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_ = nullptr;
  NodeId pool_node_ = 0;
  Schema schema_;
  GlobalAddr data_{};
  size_t bytes_ = 0;
  size_t row_count_ = 0;
  RpcMethod method_;  // unique per table
};

/// Dremel-style distributed shuffle (Sec. 3.2): P producers exchange
/// partitioned data with C consumers.
///  - Coupled mode: direct producer-to-consumer links; P*C connections, each
///    with setup cost and per-message overhead — the quadratic growth that
///    bottlenecked Dremel's joins.
///  - Disaggregated mode: producers write partitions into a shuffle region
///    in the memory pool; consumers read their partition ranges — P + C
///    sessions, no pairwise coupling, and shuffle state survives worker
///    restarts.
/// Data movement is real in both modes; connection and message overheads
/// come from the interconnect model.
class Shuffle {
 public:
  struct Report {
    uint64_t connections = 0;
    uint64_t sim_ns = 0;       // critical-path simulated time
    uint64_t bytes_moved = 0;
    size_t rows_delivered = 0;
  };

  /// Per-connection TCP/RDMA session establishment cost.
  static constexpr uint64_t kConnectionSetupNs = 50'000;

  /// Runs a full exchange of `rows` (each producer holds rows_per_producer
  /// tuples of `row_bytes`) hash-partitioned across consumers.
  static Result<Report> RunCoupled(Fabric* fabric, int producers,
                                   int consumers, size_t rows_per_producer,
                                   size_t row_bytes);
  static Result<Report> RunDisaggregated(Fabric* fabric, MemoryNode* pool,
                                         int producers, int consumers,
                                         size_t rows_per_producer,
                                         size_t row_bytes);
};

}  // namespace disagg

#endif  // DISAGG_QUERY_PUSHDOWN_H_
