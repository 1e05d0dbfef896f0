#include "txn/lock_manager.h"

#include <algorithm>

namespace disagg {

namespace {

// Moves a recycled vector out of `spare`, or returns an empty one.
template <typename T>
std::vector<T> TakeSpare(std::vector<std::vector<T>>* spare) {
  if (spare->empty()) return {};
  std::vector<T> v = std::move(spare->back());
  spare->pop_back();
  return v;
}

}  // namespace

Status LockManager::Acquire(TxnId txn, uint64_t key, Mode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [e, fresh] = table_.TryEmplace(key);
  if (fresh) e->sharers = TakeSpare(&spare_sharers_);
  const auto sharer = std::find(e->sharers.begin(), e->sharers.end(), txn);
  const bool is_sharer = sharer != e->sharers.end();
  if (mode == Mode::kShared) {
    if (e->exclusive == txn) return Status::OK();  // X covers S
    if (e->exclusive != 0) {
      return Status::Busy("X-lock held by another transaction");
    }
    if (is_sharer) return Status::OK();
    e->sharers.push_back(txn);
  } else {
    if (e->exclusive != 0) {
      if (e->exclusive == txn) return Status::OK();
      return Status::Busy("X-lock held by another transaction");
    }
    // Upgrade allowed only when we are the sole sharer.
    if (e->sharers.size() > (is_sharer ? 1u : 0u)) {
      return Status::Busy("S-lock held by another txn");
    }
    e->sharers.clear();
    e->exclusive = txn;
    if (is_sharer) return Status::OK();  // upgraded: already listed
  }
  auto [keys, first] = held_.TryEmplace(txn);
  if (first) *keys = TakeSpare(&spare_held_);
  keys->push_back(key);
  held_count_++;
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t>* keys = held_.Find(txn);
  if (keys == nullptr) return;
  for (uint64_t key : *keys) {
    Entry* e = table_.Find(key);
    if (e == nullptr) continue;
    auto sharer = std::find(e->sharers.begin(), e->sharers.end(), txn);
    if (sharer != e->sharers.end()) {
      *sharer = e->sharers.back();
      e->sharers.pop_back();
    }
    if (e->exclusive == txn) e->exclusive = 0;
    if (e->sharers.empty() && e->exclusive == 0) {
      spare_sharers_.push_back(std::move(e->sharers));
      table_.Erase(key);
    }
  }
  held_count_ -= keys->size();
  keys->clear();
  spare_held_.push_back(std::move(*keys));
  held_.Erase(txn);
}

size_t LockManager::held_locks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_count_;
}

}  // namespace disagg
