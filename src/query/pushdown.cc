#include "query/pushdown.h"

#include <algorithm>
#include <atomic>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kShufRecv("shuf.recv");

std::atomic<uint64_t> g_table_counter{0};

// Self-describing row serialization (per row: column count + tagged values),
// usable when the consumer does not know the output schema (projections,
// aggregates).
void EncodeRows(const std::vector<Tuple>& rows, std::string* dst) {
  PutVarint64(dst, rows.size());
  for (const Tuple& row : rows) {
    PutVarint64(dst, row.size());
    EncodeTuple(row, dst);
  }
}

Result<std::vector<Tuple>> DecodeRows(Slice input) {
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) return Status::Corruption("row count");
  // Both counts come off the wire: bound each reserve by the bytes left
  // (a row takes at least its count byte, a value at least its tag byte),
  // so a forged count fails below as Corruption instead of allocating.
  std::vector<Tuple> rows;
  rows.reserve(std::min<uint64_t>(count, input.size()));
  for (uint64_t r = 0; r < count; r++) {
    uint64_t ncols = 0;
    if (!GetVarint64(&input, &ncols)) return Status::Corruption("col count");
    Tuple row;
    row.reserve(std::min<uint64_t>(ncols, input.size()));
    for (uint64_t c = 0; c < ncols; c++) {
      if (input.empty()) return Status::Corruption("value tag");
      Schema one;
      one.columns.push_back({"c", static_cast<ColumnType>(input[0])});
      auto v = DecodeTuple(one, &input);
      if (!v.ok()) return v.status();
      row.push_back(std::move((*v)[0]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

constexpr uint64_t kDecodeNsPerRow = 2;

}  // namespace

Result<RemoteTable> RemoteTable::Create(NetContext* ctx, Fabric* fabric,
                                        MemoryNode* pool, Schema schema,
                                        const std::vector<Tuple>& rows) {
  RemoteTable table(RpcMethod(
      "tele.exec." + std::to_string(g_table_counter.fetch_add(1))));
  table.fabric_ = fabric;
  table.pool_node_ = pool->node();
  table.schema_ = std::move(schema);
  table.row_count_ = rows.size();

  std::string blob;
  PutVarint64(&blob, rows.size());
  for (const Tuple& row : rows) EncodeTuple(row, &blob);
  table.bytes_ = blob.size();
  auto addr = pool->AllocLocal(blob.size());
  if (!addr.ok()) return addr.status();
  table.data_ = *addr;
  Status st = fabric->Write(ctx, table.data_, blob.data(), blob.size());
  if (!st.ok()) return st;
  return table;
}

Result<std::vector<Tuple>> RemoteTable::FetchAll(NetContext* ctx) {
  std::string blob(bytes_, '\0');
  DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, data_, blob.data(), blob.size()));
  Slice input(blob);
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) return Status::Corruption("row count");
  std::vector<Tuple> rows;  // count is pool data: bounded as in DecodeRows
  rows.reserve(std::min<uint64_t>(count, input.size()));
  for (uint64_t r = 0; r < count; r++) {
    auto row = DecodeTuple(schema_, &input);
    if (!row.ok()) return row.status();
    rows.push_back(std::move(row).value());
  }
  ctx->Charge(kDecodeNsPerRow * count);
  return rows;
}

Status RemoteTable::HandleExec(Slice req, std::string* resp,
                               RpcServerContext* sctx) {
  auto fragment = ops::Fragment::DecodeFrom(&req);
  if (!fragment.ok()) return fragment.status();

  // Scan the resident blob directly — this is the point: no network hop.
  MemoryRegion* region = fabric_->node(pool_node_)->region(data_.region);
  Slice input(region->data() + data_.offset, bytes_);
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) return Status::Corruption("row count");
  std::vector<Tuple> rows;  // count is pool data: bounded as in DecodeRows
  rows.reserve(std::min<uint64_t>(count, input.size()));
  for (uint64_t r = 0; r < count; r++) {
    auto row = DecodeTuple(schema_, &input);
    if (!row.ok()) return row.status();
    rows.push_back(std::move(row).value());
  }

  NetContext pool_cpu;
  std::vector<Tuple> result = fragment->Execute(&pool_cpu, rows);
  // The pool CPU paid for decode + operators (scaled by node cpu_scale).
  sctx->ChargeCompute(pool_cpu.sim_ns + kDecodeNsPerRow * count);
  EncodeRows(result, resp);
  return Status::OK();
}

Result<std::vector<Tuple>> RemoteTable::Pushdown(NetContext* ctx,
                                                 const ops::Fragment& fragment) {
  // Lazily register the handler (Create returns by value; `this` must be
  // stable when the handler binds, so bind at first use).
  Node* node = fabric_->node(pool_node_);
  if (node->handler(method_) == nullptr) {
    node->RegisterHandler(method_, [this](Slice req, std::string* resp,
                                          RpcServerContext* sctx) {
      return HandleExec(req, resp, sctx);
    });
  }
  std::string req;
  fragment.EncodeTo(&req);
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, pool_node_, method_, req, &resp));
  return DecodeRows(resp);
}

Result<Shuffle::Report> Shuffle::RunCoupled(Fabric* fabric, int producers,
                                            int consumers,
                                            size_t rows_per_producer,
                                            size_t row_bytes) {
  Report report;
  // Consumers: passive receive buffers.
  std::vector<NodeId> consumer_nodes;
  std::vector<std::unique_ptr<std::string>> received(consumers);
  for (int c = 0; c < consumers; c++) {
    NodeId n = fabric->AddNode("shuf-consumer" + std::to_string(c),
                               NodeKind::kCompute, InterconnectModel::Rdma());
    received[c] = std::make_unique<std::string>();
    std::string* sink = received[c].get();
    fabric->node(n)->RegisterHandler(
        kShufRecv, [sink](Slice req, std::string* resp,
                          RpcServerContext* sctx) {
          sink->append(req.data(), req.size());
          sctx->ChargeCompute(50 + req.size() / 64);
          resp->clear();
          return Status::OK();
        });
    consumer_nodes.push_back(n);
  }

  const size_t partition_rows =
      (rows_per_producer + consumers - 1) / consumers;
  const std::string partition(partition_rows * row_bytes, 'x');
  std::vector<NetContext> producer_ctx(producers);
  for (int p = 0; p < producers; p++) {
    for (int c = 0; c < consumers; c++) {
      producer_ctx[p].Charge(kConnectionSetupNs);  // pairwise session
      report.connections++;
      std::string resp;
      DISAGG_RETURN_NOT_OK(fabric->Call(&producer_ctx[p], consumer_nodes[c],
                                        kShufRecv, partition, &resp));
    }
  }
  NetContext total;
  MergeParallel(&total, producer_ctx.data(), producer_ctx.size());
  report.sim_ns = total.sim_ns;
  report.bytes_moved = total.bytes_out;
  report.rows_delivered = size_t{static_cast<size_t>(producers)} *
                          consumers * partition_rows;
  return report;
}

Result<Shuffle::Report> Shuffle::RunDisaggregated(Fabric* fabric,
                                                  MemoryNode* pool,
                                                  int producers, int consumers,
                                                  size_t rows_per_producer,
                                                  size_t row_bytes) {
  Report report;
  const size_t partition_rows =
      (rows_per_producer + consumers - 1) / consumers;
  const size_t partition_bytes = partition_rows * row_bytes;
  const std::string partition(partition_bytes, 'x');

  // Layout: partition (p, c) at a fixed offset in the shuffle region.
  DISAGG_ASSIGN_OR_RETURN(
      GlobalAddr base,
      pool->AllocLocal(size_t{static_cast<size_t>(producers)} * consumers *
                       partition_bytes));

  // Producers: one doorbell-batched write covering all partitions, one
  // session to the pool each.
  std::vector<NetContext> producer_ctx(producers);
  for (int p = 0; p < producers; p++) {
    producer_ctx[p].Charge(kConnectionSetupNs);
    report.connections++;
    std::vector<Fabric::WriteOp> ops;
    for (int c = 0; c < consumers; c++) {
      const uint64_t offset =
          base.offset +
          (static_cast<uint64_t>(p) * consumers + c) * partition_bytes;
      ops.push_back(Fabric::WriteOp{RemoteAddr{base.region, offset},
                                    partition.data(), partition_bytes});
    }
    DISAGG_RETURN_NOT_OK(
        fabric->WriteBatch(&producer_ctx[p], pool->node(), ops));
  }
  NetContext produce_total;
  MergeParallel(&produce_total, producer_ctx.data(), producer_ctx.size());

  // Consumers: read their column of partitions, one session each.
  std::vector<NetContext> consumer_ctx(consumers);
  std::string buf(partition_bytes, '\0');
  for (int c = 0; c < consumers; c++) {
    consumer_ctx[c].Charge(kConnectionSetupNs);
    report.connections++;
    for (int p = 0; p < producers; p++) {
      const uint64_t offset =
          base.offset +
          (static_cast<uint64_t>(p) * consumers + c) * partition_bytes;
      GlobalAddr addr{base.node, base.region, offset};
      DISAGG_RETURN_NOT_OK(
          fabric->Read(&consumer_ctx[c], addr, buf.data(), partition_bytes));
    }
  }
  NetContext consume_total;
  MergeParallel(&consume_total, consumer_ctx.data(), consumer_ctx.size());

  report.sim_ns = produce_total.sim_ns + consume_total.sim_ns;
  report.bytes_moved = produce_total.bytes_out + consume_total.bytes_in;
  report.rows_delivered = size_t{static_cast<size_t>(producers)} *
                          consumers * partition_rows;
  return report;
}

}  // namespace disagg
