#include "log/shared_log.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>

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

std::string Varints(std::initializer_list<uint64_t> values) {
  std::string out;
  for (uint64_t v : values) PutVarint64(&out, v);
  return out;
}

// Every tag-addressed request but slog.trim starts with the view epoch and
// the tag.
std::string ReadRequest(uint64_t epoch, LogTag tag, SeqNum from_seq,
                        Lsn from_lsn, uint64_t max_records) {
  return Varints({epoch, tag, from_seq, from_lsn, max_records});
}

// `batch` (EncodeBatch's format) stored from seq `base` on, carrying the
// tag's trim watermark (0, 0 for none).
std::string ReplicateRequest(uint64_t epoch, LogTag tag, SeqNum base,
                             SeqNum trimmed, Lsn trimmed_lsn, Slice batch) {
  std::string req = Varints({epoch, tag, base, trimmed, trimmed_lsn});
  req.append(batch.data(), batch.size());
  return req;
}

// Gap fill: reads `tag`'s records after seq `from` from `src` and forwards
// the reply's batch, bytes unchanged, to `dest` at the seqs `src` reported,
// with the trim watermark. An empty suffix is forwarded only when
// `send_empty` (it still carries the watermark, or probes `dest`'s tail).
// Returns `dest`'s tail as its reply reports it, or `from` if nothing was
// sent.
Result<SeqNum> FillGap(Fabric* fabric, NetContext* ctx, uint64_t epoch,
                       LogTag tag, NodeId src, NodeId dest, SeqNum from,
                       SeqNum trimmed, Lsn trimmed_lsn, bool send_empty) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric->Call(
      ctx, src, kSlogRead, ReadRequest(epoch, tag, from, 0, ~0ull), &resp));
  Slice in(resp);
  uint64_t base = 0;
  if (!GetVarint64(&in, &base)) return Status::Corruption("slog.read");
  const Slice batch = in;
  uint64_t count = 0;
  if (!GetVarint64(&in, &count)) return Status::Corruption("slog.read");
  if (count == 0 && !send_empty) return from;
  DISAGG_RETURN_NOT_OK(fabric->Call(
      ctx, dest, kSlogReplicate,
      ReplicateRequest(epoch, tag, base, trimmed, trimmed_lsn, batch), &resp));
  in = Slice(resp);
  uint64_t tail = 0;
  if (!GetVarint64(&in, &tail)) return Status::Corruption("slog.replicate");
  return tail;
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
  using Handler = Status (SharedLogService::*)(NodeState*, Slice,
                                               std::string*, RpcServerContext*);
  const std::pair<const RpcMethod*, Handler> handlers[] = {
      {&kSlogAppend, &SharedLogService::HandleAppend},
      {&kSlogReplicate, &SharedLogService::HandleReplicate},
      {&kSlogRead, &SharedLogService::HandleRead},
      {&kSlogTrim, &SharedLogService::HandleTrim},
      {&kSlogSeal, &SharedLogService::HandleSeal},
      {&kSlogInstall, &SharedLogService::HandleInstall}};
  for (const auto& [method, handler] : handlers) {
    fabric_->node(ns->node)->RegisterHandler(
        *method, [this, ns, handler = handler](Slice req, std::string* resp,
                                               RpcServerContext* sctx) {
          return (this->*handler)(ns, req, resp, sctx);
        });
  }
}

uint64_t SharedLogService::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return epoch_;
}

size_t SharedLogService::TagStore::CountThrough(SeqNum seq) const {
  if (seq >= tail_seq) return records.size();
  const uint64_t behind = tail_seq - seq;  // records above `seq`
  return behind >= records.size() ? 0 : records.size() - behind;
}

void SharedLogService::TagStore::Push(const LogRecordSpan& r, Slice request,
                                      SharedBytes* retained,
                                      const RpcServerContext& sctx) {
  if (*retained == nullptr) *retained = sctx.RetainRequest(request);
  records.Append(r.lsn, *retained, r.bytes.data() - request.data(),
                 r.bytes.size());
  tail_lsn = r.lsn;
  tail_seq++;
}

void SharedLogService::TagStore::DropTrimmed() {
  records.EraseFront(CountThrough(trimmed));
  tail_seq = std::max(tail_seq, trimmed);
}

Status SharedLogService::HandleAppend(NodeState* ns, Slice req,
                                      std::string* resp,
                                      RpcServerContext* sctx) {
  const Slice request = req;
  uint64_t e = 0, tag = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag)) {
    return Status::InvalidArgument("malformed slog.append");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  DISAGG_RETURN_NOT_OK(LogRecord::ScanBatch(req, &ns->scan));
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  if (ns->members.empty() ||
      ns->members[tag % ns->members.size()] != ns->node) {
    return Status::Aborted("not primary for tag");
  }
  TagStore& ts = ns->tags[tag];
  const SeqNum base = ts.tail_seq + 1;
  uint64_t stored = 0;
  SharedBytes retained;
  for (const LogRecordSpan& r : ns->scan) {
    if (r.lsn <= ts.tail_lsn) continue;  // idempotent re-send
    ts.Push(r, request, &retained, *sctx);
    stored++;
  }
  sctx->ChargeCompute(kAppendNsPerRecord * ns->scan.size());
  *resp = Varints({stored, ts.tail_seq, ts.tail_lsn,
                   stored == 0 ? kInvalidSeqNum : base});
  return Status::OK();
}

Status SharedLogService::HandleReplicate(NodeState* ns, Slice req,
                                         std::string* resp,
                                         RpcServerContext* sctx) {
  const Slice request = req;
  uint64_t e = 0, tag = 0, base = 0, trimmed = 0, trimmed_lsn = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag) ||
      !GetVarint64(&req, &base) || !GetVarint64(&req, &trimmed) ||
      !GetVarint64(&req, &trimmed_lsn)) {
    return Status::InvalidArgument("malformed slog.replicate");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  DISAGG_RETURN_NOT_OK(LogRecord::ScanBatch(req, &ns->scan));
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  TagStore& ts = ns->tags[tag];
  if (trimmed > ts.trimmed) {
    ts.trimmed = trimmed;
    ts.trimmed_lsn = std::max(ts.trimmed_lsn, static_cast<Lsn>(trimmed_lsn));
    ts.DropTrimmed();
  }
  SharedBytes retained;
  for (size_t i = 0; i < ns->scan.size(); i++) {
    const SeqNum seq = base + i;
    if (seq <= ts.tail_seq) continue;  // idempotent re-send
    // A gap, or a record that would break the tag's LSN order (which reads
    // rely on): the caller must resync first.
    if (seq != ts.tail_seq + 1 || ns->scan[i].lsn <= ts.tail_lsn) break;
    ts.Push(ns->scan[i], request, &retained, *sctx);
  }
  sctx->ChargeCompute(kAppendNsPerRecord * ns->scan.size());
  *resp = Varints({ts.tail_seq});
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
    *resp = Varints({kInvalidSeqNum, 0});  // no base, an empty batch
    return Status::OK();
  }
  const TagStore& ts = it->second;
  const size_t size = ts.records.size();
  sctx->ChargeCompute(kScanNsPerRecord * std::max<size_t>(1, size));
  // Retention: a range reaching below the trim watermark cannot be served
  // completely — fail loudly instead of silently returning a gapped suffix.
  if (from_lsn == 0 ? from_seq < ts.trimmed : from_lsn < ts.trimmed_lsn) {
    return Status::NotFound("slog.read below trim point");
  }
  // A bound of 0 reads as 1, as in log.read.
  const size_t first =
      std::max(ts.CountThrough(from_seq), ts.records.FirstAfter(from_lsn));
  const size_t count = static_cast<size_t>(std::min<uint64_t>(
      std::max<uint64_t>(max_records, 1), size - first));
  *resp = Varints({count == 0 ? kInvalidSeqNum
                              : ts.tail_seq - size + 1 + first});
  *resp += ts.records.Batch(first, count);
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
  sctx->ChargeCompute(kScanNsPerRecord *
                      std::max<size_t>(1, ts.records.size()));
  if (up_to > ts.trimmed) {
    ts.trimmed = up_to;
    if (const size_t n = ts.CountThrough(up_to); n > 0) {
      ts.trimmed_lsn = std::max(ts.trimmed_lsn, ts.records.lsn(n - 1));
    }
    ts.DropTrimmed();
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
  *resp = Varints({ns->epoch, ns->tags.size()});
  for (const auto& [tag, ts] : ns->tags) {
    *resp += Varints(
        {tag, ts.tail_seq, ts.tail_lsn, ts.trimmed, ts.trimmed_lsn});
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
  *resp = Varints({epoch_, static_cast<uint64_t>(config_.replication),
                   static_cast<uint64_t>(config_.write_quorum),
                   members_.size()});
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
  std::string inst = Varints({new_epoch, new_members.size()});
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
      // Forward the trim watermark even with no records when it advances.
      auto filled = FillGap(fabric_, ctx, new_epoch, tag, src, dest,
                            std::max(dinfo.tail, best.trimmed), best.trimmed,
                            best.trimmed_lsn, best.trimmed > dinfo.trimmed);
      if (!filled.ok()) return filled.status();
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

template <typename MakeRequest, typename OnReply>
Status SharedLogClient::CallPrimary(NetContext* ctx, LogTag tag,
                                    const RpcMethod& method,
                                    MakeRequest make_request,
                                    OnReply on_reply) {
  Status last = Status::Unavailable("shared log: no view");
  for (int attempt = 0; attempt < 3; attempt++) {
    Status st = EnsureView(ctx);
    if (!st.ok()) return st;
    const std::vector<NodeId> replicas = ReplicasFor(tag);
    if (replicas.empty()) return Status::Unavailable("shared log: empty view");
    std::string resp;
    st = fabric_->Call(ctx, replicas[0], method, make_request(view_.epoch),
                       &resp);
    if (st.ok()) st = on_reply(Slice(resp), replicas);
    // Epoch staleness, primary crashes and appends short of the write
    // quorum are view problems: refresh and retry (a reconfigure will have
    // installed a new primary for the tag). Everything else (NotFound below
    // trim, TimedOut, ...) is the caller's answer.
    if (st.ok() || (!st.IsAborted() && !st.IsUnavailable())) return st;
    last = st;
    Status r = RefreshView(ctx);
    if (!r.ok()) return r;
  }
  return last;
}

Result<Lsn> SharedLogClient::Append(NetContext* ctx, LogTag tag,
                                    const EncodedRecords& records) {
  const std::string batch = records.Batch(0, records.size());
  Lsn durable = kInvalidLsn;
  Status st = CallPrimary(
      ctx, tag, kSlogAppend,
      [&](uint64_t epoch) { return Varints({epoch, tag}) + batch; },
      [&](Slice in, const std::vector<NodeId>& replicas) -> Status {
        uint64_t stored = 0, tail_seq = 0, tail_lsn = 0, base = 0;
        if (!GetVarint64(&in, &stored) || !GetVarint64(&in, &tail_seq) ||
            !GetVarint64(&in, &tail_lsn) || !GetVarint64(&in, &base) ||
            stored > records.size()) {
          return Status::Corruption("slog.append response");
        }
        // The primary deduplicated a (possibly complete) prefix; backups get
        // exactly the stored suffix at the assigned seqnums. A fully-deduped
        // re-send (stored == 0) may sit on the primary alone — left there by
        // an earlier attempt that died below the write quorum — so the
        // fan-out runs regardless: an empty suffix acts as a tail probe, and
        // the gap fill pulls whatever a lagging backup is missing from the
        // primary. Returning early on duplicates would declare one copy
        // durable.
        const uint64_t epoch = view_.epoch;
        const NodeId primary = replicas[0];
        const std::string rep_req = ReplicateRequest(
            epoch, tag, base, 0, 0,  // no trim watermark on the append path
            records.Batch(records.size() - stored, stored));
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
          // The backup is behind (it missed earlier batches): fill the gap
          // from the primary.
          auto filled = FillGap(fabric_, bctx, epoch, tag, primary, backup,
                                btail, 0, 0, /*send_empty=*/true);
          return filled.ok() && *filled >= tail_seq;
        };
        int acks = 1;  // the primary's copy
        const std::span<const NodeId> backups(replicas.begin() + 1,
                                              replicas.end());
        (void)FanOut(ctx, backups, [&](NodeId backup, NetContext* bctx) {
          if (replicate_to(bctx, backup)) acks++;
          return Status::OK();
        });
        if (acks < view_.write_quorum) {
          return Status::Unavailable("shared log: append below write quorum");
        }
        durable = static_cast<Lsn>(tail_lsn);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return durable;
}

Result<std::vector<LogRecord>> SharedLogClient::Read(NetContext* ctx,
                                                     LogTag tag,
                                                     SeqNum from_seq,
                                                     Lsn from_lsn,
                                                     uint64_t max_records) {
  std::vector<LogRecord> out;
  Status st = CallPrimary(
      ctx, tag, kSlogRead,
      [&](uint64_t epoch) {
        return ReadRequest(epoch, tag, from_seq, from_lsn, max_records);
      },
      [&](Slice in, const std::vector<NodeId>&) -> Status {
        uint64_t base = 0;
        if (!GetVarint64(&in, &base)) {
          return Status::Corruption("slog.read response");
        }
        DISAGG_ASSIGN_OR_RETURN(out, LogRecord::DecodeBatch(in));
        return Status::OK();
      });
  if (!st.ok()) return st;
  return out;
}

Status SharedLogClient::Trim(NetContext* ctx, LogTag tag,
                             SeqNum up_to_inclusive) {
  Status st = EnsureView(ctx);
  if (!st.ok()) return st;
  const std::string req = Varints({tag, up_to_inclusive});
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
