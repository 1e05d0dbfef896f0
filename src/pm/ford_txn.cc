#include "pm/ford_txn.h"

#include <cstring>
#include <set>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

FordTxnManager::FordTxnManager(Fabric* fabric, std::vector<PmNode*> pm_nodes,
                               size_t records_per_node)
    : fabric_(fabric), pm_nodes_(std::move(pm_nodes)) {
  for (PmNode* node : pm_nodes_) {
    for (size_t r = 0; r < records_per_node; r++) {
      auto addr = node->AllocLocal(kRecordBytes);
      DISAGG_CHECK(addr.ok());
      record_addrs_.push_back(*addr);
      record_nodes_.push_back(node);
    }
  }
}

Result<std::string> FordTxnManager::ReadCommitted(NetContext* ctx,
                                                  uint64_t rid) {
  if (rid >= record_addrs_.size()) return Status::InvalidArgument("rid");
  char buf[kRecordBytes];
  PmClient client(fabric_, NodeOf(rid));
  DISAGG_RETURN_NOT_OK(client.ReadRemote(ctx, AddrOf(rid), buf,
                                         kRecordBytes));
  return std::string(buf + 16, strnlen(buf + 16, kValueBytes));
}

Result<std::string> FordTxnManager::Txn::Read(uint64_t rid) {
  if (rid >= mgr_->record_addrs_.size()) {
    return Status::InvalidArgument("rid out of range");
  }
  // One one-sided READ fetches lock, version, and value together.
  char buf[kRecordBytes];
  PmClient client(mgr_->fabric_, mgr_->NodeOf(rid));
  DISAGG_RETURN_NOT_OK(client.ReadRemote(ctx_, mgr_->AddrOf(rid), buf,
                                         kRecordBytes));
  const uint64_t version = DecodeFixed64(buf + 8);
  read_versions_[rid] = version;
  // Read-your-writes within the transaction.
  auto wit = writes_.find(rid);
  if (wit != writes_.end()) return wit->second;
  return std::string(buf + 16, strnlen(buf + 16, kValueBytes));
}

Status FordTxnManager::Txn::Write(uint64_t rid, const std::string& value) {
  if (rid >= mgr_->record_addrs_.size()) {
    return Status::InvalidArgument("rid out of range");
  }
  if (value.size() > kValueBytes) {
    return Status::InvalidArgument("value too large for FORD record");
  }
  writes_[rid] = value;
  // Blind writes still validate: record the version we are overwriting.
  if (!read_versions_.count(rid)) {
    DISAGG_RETURN_NOT_OK(Read(rid).status());
  }
  return Status::OK();
}

void FordTxnManager::Txn::Abort() {
  finished_ = true;
  writes_.clear();
  read_versions_.clear();
}

Status FordTxnManager::Txn::Commit() {
  DISAGG_CHECK(!finished_);
  finished_ = true;
  if (writes_.empty()) {
    mgr_->stats_.commits++;
    return Status::OK();
  }

  // --- Lock phase: CAS lock words 0 -> txn id, in rid order (no deadlock;
  // parallel across nodes so charge the max branch).
  std::vector<uint64_t> locked;
  bool lock_failed = false;
  Status st = FanOut(ctx_, writes_, [&](const auto& write, NetContext* b) {
    auto observed =
        mgr_->fabric_->CompareAndSwap(b, mgr_->AddrOf(write.first), 0, id_);
    if (!observed.ok()) return observed.status();
    if (*observed != 0) {
      lock_failed = true;
      return Status::Aborted("lock conflict");
    }
    locked.push_back(write.first);
    return Status::OK();
  });

  // --- Validate phase: read-set versions unchanged (one READ per record,
  // parallel).
  bool validate_failed = false;
  if (st.ok()) {
    st = FanOut(ctx_, read_versions_, [&](const auto& read, NetContext* b) {
      char buf[16];
      DISAGG_RETURN_NOT_OK(
          mgr_->fabric_->Read(b, mgr_->AddrOf(read.first), buf, 16));
      const uint64_t lock = DecodeFixed64(buf);
      const uint64_t current = DecodeFixed64(buf + 8);
      // A record we hold the lock on is "locked by us" — fine; any other
      // lock holder or version change kills the transaction.
      if (current != read.second || (lock != 0 && lock != id_)) {
        validate_failed = true;
      }
      return Status::OK();
    });
  }

  if (!st.ok() || validate_failed) {
    // Release whatever we locked, on conflicts and fabric errors alike: a
    // lock word left set would abort every later transaction on its record.
    for (uint64_t rid : locked) {
      (void)mgr_->fabric_->CompareAndSwap(ctx_, mgr_->AddrOf(rid), id_, 0);
    }
    if (lock_failed) mgr_->stats_.aborts_lock++;
    if (!st.ok()) return st;  // the lock conflict, or a fabric error
    mgr_->stats_.aborts_validate++;
    return Status::Aborted("validation failed");
  }

  // --- Write + persist phase: WRITE {version+1, value} for each record;
  // ONE flush-read per involved PM node persists all its writes (FORD's
  // batched remote persistence); then unlock.
  std::set<PmNode*> touched_nodes;
  for (const auto& [rid, value] : writes_) {
    char buf[kRecordBytes - 8];  // version + value (lock word untouched)
    std::memset(buf, 0, sizeof(buf));
    EncodeFixed64(buf, read_versions_[rid] + 1);
    std::memcpy(buf + 8, value.data(), value.size());
    GlobalAddr addr = mgr_->AddrOf(rid);
    addr.offset += 8;
    PmClient client(mgr_->fabric_, mgr_->NodeOf(rid));
    DISAGG_RETURN_NOT_OK(
        client.WriteUnsafe(ctx_, addr, Slice(buf, sizeof(buf))));
    touched_nodes.insert(mgr_->NodeOf(rid));
  }
  for (PmNode* node : touched_nodes) {
    PmClient client(mgr_->fabric_, node);
    DISAGG_RETURN_NOT_OK(client.FlushRead(ctx_, node->pool()->at(0)));
  }
  for (const auto& [rid, value] : writes_) {
    auto observed =
        mgr_->fabric_->CompareAndSwap(ctx_, mgr_->AddrOf(rid), id_, 0);
    if (!observed.ok()) return observed.status();
  }
  mgr_->stats_.commits++;
  return Status::OK();
}

}  // namespace disagg
