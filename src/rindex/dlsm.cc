#include "rindex/dlsm.h"

#include <atomic>
#include <cstring>

#include "common/coding.h"

namespace disagg {

namespace {
std::atomic<uint64_t> g_shard_counter{0};

RpcMethod ShardMethod() {
  return RpcMethod("lsm.compact." +
                   std::to_string(g_shard_counter.fetch_add(1)));
}
}  // namespace

DLsmShard::DLsmShard(Fabric* fabric, MemoryNode* pool, size_t memtable_limit)
    : fabric_(fabric),
      pool_(pool),
      memtable_limit_(memtable_limit),
      compact_method_(ShardMethod()) {
  fabric_->node(pool_->node())
      ->RegisterHandler(compact_method_,
                        [this](Slice req, std::string* resp,
                               RpcServerContext* sctx) {
                          return HandleCompact(req, resp, sctx);
                        });
}

Status DLsmShard::Put(NetContext* ctx, uint64_t key, uint64_t value) {
  memtable_[key] = value;
  ctx->Charge(150);  // local memtable insert
  if (memtable_.size() >= memtable_limit_) return Flush(ctx);
  return Status::OK();
}

Status DLsmShard::Delete(NetContext* ctx, uint64_t key) {
  return Put(ctx, key, kTombstone);
}

Status DLsmShard::WriteRun(
    NetContext* ctx, const std::vector<std::pair<uint64_t, uint64_t>>& entries,
    Run* out) {
  std::string buf(entries.size() * 16, '\0');
  for (size_t i = 0; i < entries.size(); i++) {
    EncodeFixed64(buf.data() + i * 16, entries[i].first);
    EncodeFixed64(buf.data() + i * 16 + 8, entries[i].second);
  }
  DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr, pool_->AllocLocal(buf.size()));
  DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, buf.data(), buf.size()));
  out->addr = addr;
  out->count = entries.size();
  return Status::OK();
}

Status DLsmShard::Flush(NetContext* ctx) {
  if (memtable_.empty()) return Status::OK();
  std::vector<std::pair<uint64_t, uint64_t>> entries(memtable_.begin(),
                                                     memtable_.end());
  Run run;
  DISAGG_RETURN_NOT_OK(WriteRun(ctx, entries, &run));
  runs_.push_back(run);
  memtable_.clear();
  stats_.flushes++;
  return Status::OK();
}

Result<std::optional<uint64_t>> DLsmShard::SearchRun(NetContext* ctx,
                                                     const Run& run,
                                                     uint64_t key) {
  uint64_t lo = 0, hi = run.count;
  char entry[16];
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    GlobalAddr addr = run.addr;
    addr.offset += mid * 16;
    Status st = fabric_->Read(ctx, addr, entry, 16);
    if (!st.ok()) return st;
    stats_.run_probes++;
    const uint64_t k = DecodeFixed64(entry);
    if (k == key) return std::optional<uint64_t>(DecodeFixed64(entry + 8));
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::optional<uint64_t>();
}

Result<uint64_t> DLsmShard::Get(NetContext* ctx, uint64_t key) {
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    stats_.memtable_hits++;
    ctx->Charge(100);
    if (it->second == kTombstone) return Status::NotFound("deleted");
    return it->second;
  }
  for (auto rit = runs_.rbegin(); rit != runs_.rend(); ++rit) {
    DISAGG_ASSIGN_OR_RETURN(std::optional<uint64_t> hit,
                            SearchRun(ctx, *rit, key));
    if (hit.has_value()) {
      if (*hit == kTombstone) return Status::NotFound("deleted");
      return *hit;
    }
  }
  return Status::NotFound("key absent");
}

Status DLsmShard::CompactLocal(NetContext* ctx) {
  if (runs_.size() < 2) return Status::OK();
  // Download every run (newest last so it wins merges). The merge itself is
  // memory-bandwidth bound on the compute node (~10 ns/entry).
  std::map<uint64_t, uint64_t> merged;
  uint64_t total_entries = 0;
  for (const Run& run : runs_) total_entries += run.count;
  ctx->Charge(10 * total_entries);
  for (const Run& run : runs_) {
    std::string buf(run.count * 16, '\0');
    DISAGG_RETURN_NOT_OK(
        fabric_->Read(ctx, run.addr, buf.data(), buf.size()));
    for (uint64_t i = 0; i < run.count; i++) {
      merged[DecodeFixed64(buf.data() + i * 16)] =
          DecodeFixed64(buf.data() + i * 16 + 8);
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (const auto& [k, v] : merged) {
    if (v != kTombstone) entries.emplace_back(k, v);  // full compaction
  }
  for (const Run& run : runs_) {
    (void)pool_->FreeLocal(run.addr, run.count * 16);
  }
  runs_.clear();
  if (!entries.empty()) {
    Run run;
    DISAGG_RETURN_NOT_OK(WriteRun(ctx, entries, &run));
    runs_.push_back(run);
  }
  stats_.compactions++;
  return Status::OK();
}

Status DLsmShard::CompactRemote(NetContext* ctx) {
  if (runs_.size() < 2) return Status::OK();
  std::string resp;
  DISAGG_RETURN_NOT_OK(
      fabric_->Call(ctx, pool_->node(), compact_method_, "", &resp));
  stats_.compactions++;
  return Status::OK();
}

Status DLsmShard::HandleCompact(Slice req, std::string* resp,
                                RpcServerContext* sctx) {
  (void)req;
  // Runs live on this node: merge with direct memory access.
  MemoryRegion* region = fabric_->node(pool_->node())->region(0);
  std::map<uint64_t, uint64_t> merged;
  uint64_t total = 0;
  for (const Run& run : runs_) {
    const char* base = region->data() + run.addr.offset;
    for (uint64_t i = 0; i < run.count; i++) {
      merged[DecodeFixed64(base + i * 16)] = DecodeFixed64(base + i * 16 + 8);
    }
    total += run.count;
  }
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (const auto& [k, v] : merged) {
    if (v != kTombstone) entries.emplace_back(k, v);
  }
  for (const Run& run : runs_) {
    (void)pool_->FreeLocal(run.addr, run.count * 16);
  }
  runs_.clear();
  if (!entries.empty()) {
    auto addr = pool_->AllocLocal(entries.size() * 16);
    if (!addr.ok()) return addr.status();
    char* base = region->data() + addr->offset;
    for (size_t i = 0; i < entries.size(); i++) {
      EncodeFixed64(base + i * 16, entries[i].first);
      EncodeFixed64(base + i * 16 + 8, entries[i].second);
    }
    runs_.push_back(Run{*addr, entries.size()});
  }
  sctx->ChargeCompute(10 * total);  // bandwidth-bound server-side merge
  resp->clear();
  return Status::OK();
}

DLsm::DLsm(Fabric* fabric, MemoryNode* pool, size_t shards,
           size_t memtable_limit) {
  for (size_t i = 0; i < shards; i++) {
    shards_.push_back(
        std::make_unique<DLsmShard>(fabric, pool, memtable_limit));
  }
}

Status DLsm::Put(NetContext* ctx, uint64_t key, uint64_t value) {
  return ShardFor(key)->Put(ctx, key, value);
}

Status DLsm::Delete(NetContext* ctx, uint64_t key) {
  return ShardFor(key)->Delete(ctx, key);
}

Result<uint64_t> DLsm::Get(NetContext* ctx, uint64_t key) {
  return ShardFor(key)->Get(ctx, key);
}

}  // namespace disagg
