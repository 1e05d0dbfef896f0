#include "log/shared_log.h"

#include <algorithm>
#include <span>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kSlogView("slog.view");
const RpcMethod kSlogAppend("slog.append");
const RpcMethod kSlogReplicate("slog.replicate");
const RpcMethod kSlogRead("slog.read");
const RpcMethod kSlogTrim("slog.trim");
const RpcMethod kSlogSeal("slog.seal");
const RpcMethod kSlogInstall("slog.install");

// Modeled CPU cost on the log-tier nodes (mirrors LogStoreService's costs so
// shared vs private log comparisons isolate the *replication topology*, not
// a different per-record price).
constexpr uint64_t kAppendNsPerRecord = 150;
constexpr uint64_t kScanNsPerRecord = 40;
constexpr uint64_t kCtlNs = 100;  // view lookup / install bookkeeping

// Replica set for `tag` under a view, primary first: `members[tag % n]` and
// its `replication - 1` ring successors. Shared by the client and the
// control plane so both always agree on placement.
std::vector<NodeId> TagReplicas(const std::vector<NodeId>& members,
                                LogTag tag, int replication) {
  std::vector<NodeId> out;
  if (members.empty()) return out;
  const size_t n = members.size();
  const size_t p = static_cast<size_t>(tag % n);
  const size_t r = std::min<size_t>(static_cast<size_t>(replication), n);
  for (size_t i = 0; i < r; i++) out.push_back(members[(p + i) % n]);
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// SharedLogService
// ---------------------------------------------------------------------------

SharedLogService::SharedLogService(Fabric* fabric, const Config& config,
                                   const std::string& name_prefix)
    : fabric_(fabric), config_(config) {
  ctl_node_ =
      fabric_->AddNode(name_prefix + "-ctl", NodeKind::kLog, config_.model);
  fabric_->node(ctl_node_)
      ->RegisterHandler(kSlogView, [this](Slice req, std::string* resp,
                                          RpcServerContext* sctx) {
        return HandleView(req, resp, sctx);
      });
  for (int i = 0; i < config_.log_nodes; i++) {
    auto ns = std::make_unique<NodeState>();
    ns->node = fabric_->AddNode(name_prefix + "-" + std::to_string(i),
                                NodeKind::kLog, config_.model,
                                static_cast<uint32_t>(i));
    fabric_->node(ns->node)->set_cpu_scale(2.0);  // wimpy log-tier CPU
    ns->epoch = 1;
    RegisterHandlers(ns.get());
    members_.push_back(ns->node);
    nodes_.push_back(std::move(ns));
  }
  for (auto& ns : nodes_) ns->members = members_;
}

void SharedLogService::RegisterHandlers(NodeState* ns) {
  Node* n = fabric_->node(ns->node);
  n->RegisterHandler(kSlogAppend, [this, ns](Slice req, std::string* resp,
                                             RpcServerContext* sctx) {
    return HandleAppend(ns, req, resp, sctx);
  });
  n->RegisterHandler(kSlogReplicate, [this, ns](Slice req, std::string* resp,
                                                RpcServerContext* sctx) {
    return HandleReplicate(ns, req, resp, sctx);
  });
  n->RegisterHandler(kSlogRead, [this, ns](Slice req, std::string* resp,
                                           RpcServerContext* sctx) {
    return HandleRead(ns, req, resp, sctx);
  });
  n->RegisterHandler(kSlogTrim, [this, ns](Slice req, std::string* resp,
                                           RpcServerContext* sctx) {
    return HandleTrim(ns, req, resp, sctx);
  });
  n->RegisterHandler(kSlogSeal, [this, ns](Slice req, std::string* resp,
                                           RpcServerContext* sctx) {
    return HandleSeal(ns, req, resp, sctx);
  });
  n->RegisterHandler(kSlogInstall, [this, ns](Slice req, std::string* resp,
                                              RpcServerContext* sctx) {
    return HandleInstall(ns, req, resp, sctx);
  });
}

uint64_t SharedLogService::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return epoch_;
}

Status SharedLogService::HandleAppend(NodeState* ns, Slice req,
                                      std::string* resp,
                                      RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag)) {
    return Status::InvalidArgument("malformed slog.append");
  }
  auto batch = LogRecord::DecodeBatch(req);
  if (!batch.ok()) return batch.status();
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  if (ns->members.empty() ||
      ns->members[tag % ns->members.size()] != ns->node) {
    return Status::Aborted("not primary for tag");
  }
  TagStore& ts = ns->tags[tag];
  uint64_t stored = 0;
  SeqNum base = kInvalidSeqNum;
  for (LogRecord& r : *batch) {
    if (r.lsn <= ts.tail_lsn) continue;  // idempotent re-send
    const SeqNum seq = ts.tail_seq + 1;
    if (stored == 0) base = seq;
    ts.tail_lsn = r.lsn;
    ts.records.emplace_back(seq, std::move(r));
    ts.tail_seq = seq;
    stored++;
  }
  sctx->ChargeCompute(kAppendNsPerRecord * batch->size());
  resp->clear();
  PutVarint64(resp, stored);
  PutVarint64(resp, ts.tail_seq);
  PutVarint64(resp, ts.tail_lsn);
  PutVarint64(resp, base);
  return Status::OK();
}

Status SharedLogService::HandleReplicate(NodeState* ns, Slice req,
                                         std::string* resp,
                                         RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0, base = 0, trimmed = 0, trimmed_lsn = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag) ||
      !GetVarint64(&req, &base) || !GetVarint64(&req, &trimmed) ||
      !GetVarint64(&req, &trimmed_lsn)) {
    return Status::InvalidArgument("malformed slog.replicate");
  }
  auto batch = LogRecord::DecodeBatch(req);
  if (!batch.ok()) return batch.status();
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  TagStore& ts = ns->tags[tag];
  if (trimmed > ts.trimmed) {
    ts.trimmed = trimmed;
    ts.trimmed_lsn = std::max(ts.trimmed_lsn, static_cast<Lsn>(trimmed_lsn));
    if (ts.tail_seq < ts.trimmed) ts.tail_seq = ts.trimmed;
    while (!ts.records.empty() && ts.records.front().first <= ts.trimmed) {
      ts.records.erase(ts.records.begin());
    }
  }
  uint64_t i = 0;
  for (LogRecord& r : *batch) {
    const SeqNum seq = base + i++;
    if (seq <= ts.tail_seq) continue;    // idempotent re-send
    if (seq != ts.tail_seq + 1) break;   // gap: caller must resync first
    ts.tail_lsn = r.lsn;
    ts.records.emplace_back(seq, std::move(r));
    ts.tail_seq = seq;
  }
  sctx->ChargeCompute(kAppendNsPerRecord * batch->size());
  resp->clear();
  PutVarint64(resp, ts.tail_seq);
  return Status::OK();
}

Status SharedLogService::HandleRead(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0, from_seq = 0, from_lsn = 0, max_records = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag) ||
      !GetVarint64(&req, &from_seq) || !GetVarint64(&req, &from_lsn) ||
      !GetVarint64(&req, &max_records)) {
    return Status::InvalidArgument("malformed slog.read");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch) return Status::Aborted("stale epoch");
  auto it = ns->tags.find(tag);
  if (it == ns->tags.end()) {
    sctx->ChargeCompute(kScanNsPerRecord);
    resp->clear();
    PutVarint64(resp, kInvalidSeqNum);
    *resp += LogRecord::EncodeBatch({});
    return Status::OK();
  }
  const TagStore& ts = it->second;
  sctx->ChargeCompute(kScanNsPerRecord * std::max<size_t>(1, ts.records.size()));
  // Retention: a range reaching below the trim watermark cannot be served
  // completely — fail loudly instead of silently returning a gapped suffix.
  if (from_seq < ts.trimmed && from_lsn == 0) {
    return Status::NotFound("slog.read below trim point");
  }
  if (from_lsn > 0 && from_lsn < ts.trimmed_lsn) {
    return Status::NotFound("slog.read below trim point");
  }
  std::vector<LogRecord> out;
  SeqNum out_base = kInvalidSeqNum;
  for (const auto& [seq, rec] : ts.records) {
    if (seq <= from_seq || rec.lsn <= from_lsn) continue;
    if (out.empty()) out_base = seq;
    out.push_back(rec);
    if (out.size() >= max_records) break;
  }
  resp->clear();
  PutVarint64(resp, out_base);
  *resp += LogRecord::EncodeBatch(out);
  return Status::OK();
}

Status SharedLogService::HandleTrim(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  uint64_t tag = 0, up_to = 0;
  if (!GetVarint64(&req, &tag) || !GetVarint64(&req, &up_to)) {
    return Status::InvalidArgument("malformed slog.trim");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  TagStore& ts = ns->tags[tag];
  sctx->ChargeCompute(kScanNsPerRecord * std::max<size_t>(1, ts.records.size()));
  if (up_to > ts.trimmed) {
    ts.trimmed = up_to;
    if (ts.tail_seq < ts.trimmed) ts.tail_seq = ts.trimmed;
    while (!ts.records.empty() && ts.records.front().first <= ts.trimmed) {
      ts.trimmed_lsn = std::max(ts.trimmed_lsn, ts.records.front().second.lsn);
      ts.records.erase(ts.records.begin());
    }
  }
  resp->clear();
  return Status::OK();
}

Status SharedLogService::HandleSeal(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  (void)req;  // seals whatever epoch the node is in (idempotent)
  std::lock_guard<std::mutex> lock(ns->mu);
  ns->sealed_epoch = std::max(ns->sealed_epoch, ns->epoch);
  sctx->ChargeCompute(kCtlNs + kScanNsPerRecord * ns->tags.size());
  resp->clear();
  PutVarint64(resp, ns->epoch);
  PutVarint64(resp, ns->tags.size());
  for (const auto& [tag, ts] : ns->tags) {
    PutVarint64(resp, tag);
    PutVarint64(resp, ts.tail_seq);
    PutVarint64(resp, ts.tail_lsn);
    PutVarint64(resp, ts.trimmed);
    PutVarint64(resp, ts.trimmed_lsn);
  }
  return Status::OK();
}

Status SharedLogService::HandleInstall(NodeState* ns, Slice req,
                                       std::string* resp,
                                       RpcServerContext* sctx) {
  uint64_t e = 0, n = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &n)) {
    return Status::InvalidArgument("malformed slog.install");
  }
  std::vector<NodeId> members;
  for (uint64_t i = 0; i < n; i++) {
    uint64_t m = 0;
    if (!GetVarint64(&req, &m)) {
      return Status::InvalidArgument("malformed slog.install");
    }
    members.push_back(static_cast<NodeId>(m));
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  ns->epoch = e;  // > sealed_epoch, so the node is open for the new view
  ns->members = std::move(members);
  sctx->ChargeCompute(kCtlNs);
  resp->clear();
  return Status::OK();
}

Status SharedLogService::HandleView(Slice req, std::string* resp,
                                    RpcServerContext* sctx) {
  (void)req;
  std::lock_guard<std::mutex> lock(view_mu_);
  sctx->ChargeCompute(kCtlNs);
  resp->clear();
  PutVarint64(resp, epoch_);
  PutVarint64(resp, static_cast<uint64_t>(config_.replication));
  PutVarint64(resp, static_cast<uint64_t>(config_.write_quorum));
  PutVarint64(resp, members_.size());
  for (NodeId m : members_) PutVarint64(resp, m);
  return Status::OK();
}

Status SharedLogService::SealAndReconfigure(NetContext* ctx) {
  // 1. The new membership: every currently-live log node (crashed nodes
  //    drop out, revived ones rejoin and get re-filled below).
  std::vector<NodeState*> live;
  for (auto& ns : nodes_) {
    if (!fabric_->node(ns->node)->failed()) live.push_back(ns.get());
  }
  if (live.empty()) return Status::Unavailable("no live log nodes");

  // 2. Seal every live node and collect its per-tag tails. The response
  //    carries the node's current epoch so a re-run after a partial,
  //    failed reconfigure still picks a strictly newer epoch.
  struct TailInfo {
    SeqNum tail = kInvalidSeqNum;
    Lsn tail_lsn = kInvalidLsn;
    SeqNum trimmed = kInvalidSeqNum;
    Lsn trimmed_lsn = kInvalidLsn;
  };
  std::map<LogTag, std::map<NodeId, TailInfo>> tails;
  uint64_t max_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    max_epoch = epoch_;
  }
  for (NodeState* ns : live) {
    std::string resp;
    Status st = fabric_->Call(ctx, ns->node, kSlogSeal, "", &resp);
    if (!st.ok()) return st;
    Slice in(resp);
    uint64_t node_epoch = 0, ntags = 0;
    if (!GetVarint64(&in, &node_epoch) || !GetVarint64(&in, &ntags)) {
      return Status::Corruption("slog.seal response");
    }
    max_epoch = std::max(max_epoch, node_epoch);
    for (uint64_t i = 0; i < ntags; i++) {
      uint64_t tag = 0;
      TailInfo info;
      if (!GetVarint64(&in, &tag) || !GetVarint64(&in, &info.tail) ||
          !GetVarint64(&in, &info.tail_lsn) || !GetVarint64(&in, &info.trimmed) ||
          !GetVarint64(&in, &info.trimmed_lsn)) {
        return Status::Corruption("slog.seal response");
      }
      tails[tag][ns->node] = info;
    }
  }
  const uint64_t new_epoch = max_epoch + 1;
  std::vector<NodeId> new_members;
  for (NodeState* ns : live) new_members.push_back(ns->node);

  // 3. Install the new view on every live node (opens them for new_epoch).
  std::string inst;
  PutVarint64(&inst, new_epoch);
  PutVarint64(&inst, new_members.size());
  for (NodeId m : new_members) PutVarint64(&inst, m);
  for (NodeState* ns : live) {
    std::string resp;
    Status st = fabric_->Call(ctx, ns->node, kSlogInstall, inst, &resp);
    if (!st.ok()) return st;
  }

  // 4. Recover each tag: its tail is the max across live nodes (suffixes
  //    acked by fewer than write_quorum nodes may survive — that is the
  //    WAL's maybe-committed region and is safe to keep), and every replica
  //    in the tag's new placement is brought up to that tail.
  for (const auto& [tag, per_node] : tails) {
    NodeId src = 0;
    TailInfo best;
    bool first = true;
    for (const auto& [node, info] : per_node) {
      if (first || info.tail > best.tail) {
        src = node;
        best = info;
        first = false;
      }
    }
    const std::vector<NodeId> replicas =
        TagReplicas(new_members, tag, config_.replication);
    for (NodeId dest : replicas) {
      TailInfo dinfo;
      auto it = per_node.find(dest);
      if (it != per_node.end()) dinfo = it->second;
      if (dest == src || dinfo.tail >= best.tail) continue;
      const SeqNum from = std::max(dinfo.tail, best.trimmed);
      std::string read_req;
      PutVarint64(&read_req, new_epoch);
      PutVarint64(&read_req, tag);
      PutVarint64(&read_req, from);
      PutVarint64(&read_req, 0);     // no LSN bound
      PutVarint64(&read_req, ~0ull);  // full suffix
      std::string read_resp;
      Status st = fabric_->Call(ctx, src, kSlogRead, read_req, &read_resp);
      if (!st.ok()) return st;
      Slice in(read_resp);
      uint64_t base = 0;
      if (!GetVarint64(&in, &base)) return Status::Corruption("slog.read");
      auto recs = LogRecord::DecodeBatch(in);
      if (!recs.ok()) return recs.status();
      if (recs->empty() && best.trimmed <= dinfo.trimmed) continue;
      std::string rep_req;
      PutVarint64(&rep_req, new_epoch);
      PutVarint64(&rep_req, tag);
      PutVarint64(&rep_req, base);
      PutVarint64(&rep_req, best.trimmed);
      PutVarint64(&rep_req, best.trimmed_lsn);
      rep_req += LogRecord::EncodeBatch(*recs);
      std::string rep_resp;
      st = fabric_->Call(ctx, dest, kSlogReplicate, rep_req, &rep_resp);
      if (!st.ok()) return st;
    }
  }

  // 5. Publish the new view; clients pick it up via slog.view on their
  //    next Aborted epoch check.
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    epoch_ = new_epoch;
    members_ = new_members;
  }
  return Status::OK();
}

size_t SharedLogService::CountDurable(LogTag tag, Lsn lsn) const {
  size_t count = 0;
  for (const auto& ns : nodes_) {
    if (fabric_->node(ns->node)->failed()) continue;
    std::lock_guard<std::mutex> lock(ns->mu);
    auto it = ns->tags.find(tag);
    if (it != ns->tags.end() && it->second.tail_lsn >= lsn) count++;
  }
  return count;
}

// ---------------------------------------------------------------------------
// SharedLogClient
// ---------------------------------------------------------------------------

Status SharedLogClient::EnsureView(NetContext* ctx) {
  if (!view_.members.empty()) return Status::OK();
  return RefreshView(ctx);
}

Status SharedLogClient::RefreshView(NetContext* ctx) {
  std::string resp;
  Status st = fabric_->Call(ctx, ctl_, kSlogView, "", &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t epoch = 0, repl = 0, w = 0, n = 0;
  if (!GetVarint64(&in, &epoch) || !GetVarint64(&in, &repl) ||
      !GetVarint64(&in, &w) || !GetVarint64(&in, &n)) {
    return Status::Corruption("slog.view response");
  }
  View v;
  v.epoch = epoch;
  v.replication = static_cast<int>(repl);
  v.write_quorum = static_cast<int>(w);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t m = 0;
    if (!GetVarint64(&in, &m)) return Status::Corruption("slog.view response");
    v.members.push_back(static_cast<NodeId>(m));
  }
  view_ = std::move(v);
  return Status::OK();
}

std::vector<NodeId> SharedLogClient::ReplicasFor(LogTag tag) const {
  return TagReplicas(view_.members, tag, view_.replication);
}

Status SharedLogClient::CallPrimary(NetContext* ctx, LogTag tag,
                                    const RpcMethod& method,
                                    const std::string& body,
                                    std::string* resp) {
  Status last = Status::Unavailable("shared log: no view");
  for (int attempt = 0; attempt < 3; attempt++) {
    Status st = EnsureView(ctx);
    if (!st.ok()) return st;
    const std::vector<NodeId> replicas = ReplicasFor(tag);
    if (replicas.empty()) return Status::Unavailable("shared log: empty view");
    std::string req;
    PutVarint64(&req, view_.epoch);
    PutVarint64(&req, tag);
    req += body;
    st = fabric_->Call(ctx, replicas[0], method, req, resp);
    if (st.ok()) return st;
    // Epoch staleness and primary crashes are view problems: refresh and
    // retry. Everything else (NotFound below trim, TimedOut, ...) is the
    // caller's answer.
    if (!st.IsAborted() && !st.IsUnavailable()) return st;
    last = st;
    Status r = RefreshView(ctx);
    if (!r.ok()) return r;
  }
  return last;
}

Result<Lsn> SharedLogClient::Append(NetContext* ctx, LogTag tag,
                                    const EncodedRecords& records) {
  const std::string batch = records.Batch(0, records.size());
  Status last = Status::Unavailable("shared log: no view");
  for (int attempt = 0; attempt < 3; attempt++) {
    Status st = EnsureView(ctx);
    if (!st.ok()) return st;
    const std::vector<NodeId> replicas = ReplicasFor(tag);
    if (replicas.empty()) return Status::Unavailable("shared log: empty view");
    std::string req;
    PutVarint64(&req, view_.epoch);
    PutVarint64(&req, tag);
    req += batch;
    std::string resp;
    st = fabric_->Call(ctx, replicas[0], kSlogAppend, req, &resp);
    if (!st.ok()) {
      // Stale epoch (Aborted) or crashed primary (Unavailable): the view
      // may have moved — refresh and retry; a reconfigure will have
      // installed a new primary for the tag.
      if (!st.IsAborted() && !st.IsUnavailable()) return st;
      last = st;
      Status r = RefreshView(ctx);
      if (!r.ok()) return r;
      continue;
    }
    Slice in(resp);
    uint64_t stored = 0, tail_seq = 0, tail_lsn = 0, base = 0;
    if (!GetVarint64(&in, &stored) || !GetVarint64(&in, &tail_seq) ||
        !GetVarint64(&in, &tail_lsn) || !GetVarint64(&in, &base) ||
        stored > records.size()) {
      return Status::Corruption("slog.append response");
    }
    // The primary deduplicated a (possibly complete) prefix; backups get
    // exactly the stored suffix at the assigned seqnums. A fully-deduped
    // re-send (stored == 0) may sit on the primary alone — left there by an
    // earlier attempt that died below the write quorum — so the fan-out
    // runs regardless: an empty suffix acts as a tail probe, and the
    // gap-resync path pulls whatever a lagging backup is missing from the
    // primary. Returning early on duplicates would declare one copy
    // durable.
    std::string rep_req;
    PutVarint64(&rep_req, view_.epoch);
    PutVarint64(&rep_req, tag);
    PutVarint64(&rep_req, base);
    PutVarint64(&rep_req, 0);  // no trim watermark on the append path
    PutVarint64(&rep_req, 0);
    rep_req += records.Batch(records.size() - stored, stored);

    const uint64_t epoch = view_.epoch;
    const NodeId primary = replicas[0];
    auto replicate_to = [&](NetContext* bctx, NodeId backup) -> bool {
      std::string rep_resp;
      if (!fabric_->Call(bctx, backup, kSlogReplicate, rep_req, &rep_resp)
               .ok()) {
        return false;
      }
      Slice rin(rep_resp);
      uint64_t btail = 0;
      if (!GetVarint64(&rin, &btail)) return false;
      if (btail >= tail_seq) return true;
      // The backup is behind (it missed earlier batches): fetch the gap
      // from the primary and re-send the full missing suffix.
      std::string read_req;
      PutVarint64(&read_req, epoch);
      PutVarint64(&read_req, tag);
      PutVarint64(&read_req, btail);
      PutVarint64(&read_req, 0);
      PutVarint64(&read_req, ~0ull);
      std::string read_resp;
      if (!fabric_->Call(bctx, primary, kSlogRead, read_req, &read_resp)
               .ok()) {
        return false;
      }
      Slice in2(read_resp);
      uint64_t base2 = 0;
      if (!GetVarint64(&in2, &base2)) return false;
      auto gap = LogRecord::DecodeBatch(in2);
      if (!gap.ok()) return false;
      std::string rep2;
      PutVarint64(&rep2, epoch);
      PutVarint64(&rep2, tag);
      PutVarint64(&rep2, base2);
      PutVarint64(&rep2, 0);
      PutVarint64(&rep2, 0);
      rep2 += LogRecord::EncodeBatch(*gap);
      if (!fabric_->Call(bctx, backup, kSlogReplicate, rep2, &rep_resp)
               .ok()) {
        return false;
      }
      Slice rin2(rep_resp);
      return GetVarint64(&rin2, &btail) && btail >= tail_seq;
    };

    int acks = 1;  // the primary's copy
    const std::span<const NodeId> backups(replicas.begin() + 1, replicas.end());
    (void)FanOut(ctx, backups, [&](NodeId backup, NetContext* bctx) {
      if (replicate_to(bctx, backup)) acks++;
      return Status::OK();
    });
    if (acks >= view_.write_quorum) return static_cast<Lsn>(tail_lsn);
    last = Status::Unavailable("shared log: append below write quorum");
    Status r = RefreshView(ctx);
    if (!r.ok()) return r;
  }
  return last;
}

Result<std::vector<LogRecord>> SharedLogClient::ReadFrom(NetContext* ctx,
                                                         LogTag tag,
                                                         SeqNum from_exclusive,
                                                         uint64_t max_records) {
  std::string body;
  PutVarint64(&body, from_exclusive);
  PutVarint64(&body, 0);  // no LSN bound
  PutVarint64(&body, max_records);
  std::string resp;
  Status st = CallPrimary(ctx, tag, kSlogRead, body, &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t base = 0;
  if (!GetVarint64(&in, &base)) return Status::Corruption("slog.read response");
  return LogRecord::DecodeBatch(in);
}

Result<std::vector<LogRecord>> SharedLogClient::ReadFromLsn(NetContext* ctx,
                                                            LogTag tag,
                                                            Lsn from_exclusive) {
  std::string body;
  PutVarint64(&body, 0);  // no seqnum bound
  PutVarint64(&body, from_exclusive);
  PutVarint64(&body, ~0ull);
  std::string resp;
  Status st = CallPrimary(ctx, tag, kSlogRead, body, &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t base = 0;
  if (!GetVarint64(&in, &base)) return Status::Corruption("slog.read response");
  return LogRecord::DecodeBatch(in);
}

Status SharedLogClient::Trim(NetContext* ctx, LogTag tag,
                             SeqNum up_to_inclusive) {
  Status st = EnsureView(ctx);
  if (!st.ok()) return st;
  std::string req;
  PutVarint64(&req, tag);
  PutVarint64(&req, up_to_inclusive);
  const std::vector<NodeId> replicas = ReplicasFor(tag);
  if (replicas.empty()) return Status::Unavailable("shared log: empty view");
  size_t oks = 0;
  Status last = Status::OK();
  for (NodeId r : replicas) {
    std::string resp;
    Status ts = fabric_->Call(ctx, r, kSlogTrim, req, &resp);
    if (ts.ok()) {
      oks++;
    } else {
      last = ts;  // best effort: a crashed replica catches up at reconfigure
    }
  }
  return oks > 0 ? Status::OK() : last;
}

}  // namespace disagg
