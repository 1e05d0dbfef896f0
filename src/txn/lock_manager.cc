#include "txn/lock_manager.h"

namespace disagg {

Status LockManager::Acquire(TxnId txn, uint64_t key, Mode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = table_[key];
  if (mode == Mode::kShared) {
    if (e.exclusive != 0 && e.exclusive != txn) {
      return Status::Busy("X-lock held by another transaction");
    }
    if (e.sharers.insert(txn).second) held_[txn].push_back(key);
    return Status::OK();
  }
  // Exclusive.
  if (e.exclusive != 0) {
    if (e.exclusive == txn) return Status::OK();
    return Status::Busy("X-lock held by another transaction");
  }
  // Upgrade allowed only when we are the sole sharer.
  for (TxnId sharer : e.sharers) {
    if (sharer != txn) {
      return Status::Busy("S-lock held by another txn");
    }
  }
  const bool newly_held = e.sharers.erase(txn) == 0;
  e.exclusive = txn;
  if (newly_held) held_[txn].push_back(key);
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (uint64_t key : it->second) {
    auto te = table_.find(key);
    if (te == table_.end()) continue;
    te->second.sharers.erase(txn);
    if (te->second.exclusive == txn) te->second.exclusive = 0;
    if (te->second.sharers.empty() && te->second.exclusive == 0) {
      table_.erase(te);
    }
  }
  held_.erase(it);
}

size_t LockManager::held_locks() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [txn, keys] : held_) n += keys.size();
  return n;
}

}  // namespace disagg
