#ifndef DISAGG_MEMNODE_PAGE_SOURCE_H_
#define DISAGG_MEMNODE_PAGE_SOURCE_H_

#include <map>
#include <mutex>

#include "common/result.h"
#include "net/net_context.h"
#include "storage/page.h"

namespace disagg {

/// Abstraction of "where pages ultimately live" beneath a cache hierarchy:
/// a page-store service, a replicated segment, or a test double.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual Result<Page> FetchPage(NetContext* ctx, PageId id) = 0;
  virtual Status WritePage(NetContext* ctx, const Page& page) = 0;
};

/// In-process page source with a configurable access-cost model; used by
/// tests and as the "secondary storage" bottom of cache-hierarchy benches.
class InMemoryPageSource : public PageSource {
 public:
  explicit InMemoryPageSource(
      InterconnectModel model = InterconnectModel::Ssd())
      : model_(std::move(model)) {}

  Result<Page> FetchPage(NetContext* ctx, PageId id) override {
    std::lock_guard<std::mutex> lock(mu_);
    fetches_++;
    ctx->Charge(model_.ReadCost(kPageSize));
    ctx->bytes_in += kPageSize;
    ctx->round_trips++;
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::NotFound("no such page");
    return it->second;
  }

  Status WritePage(NetContext* ctx, const Page& page) override {
    std::lock_guard<std::mutex> lock(mu_);
    writes_++;
    ctx->Charge(model_.WriteCost(kPageSize));
    ctx->bytes_out += kPageSize;
    ctx->round_trips++;
    pages_.insert_or_assign(page.page_id(), page);
    return Status::OK();
  }

  /// Seeds a page without charging anything (test setup).
  void Seed(const Page& page) {
    std::lock_guard<std::mutex> lock(mu_);
    pages_.insert_or_assign(page.page_id(), page);
  }

  uint64_t fetches() const { return fetches_; }
  uint64_t writes() const { return writes_; }

 private:
  InterconnectModel model_;
  std::mutex mu_;
  std::map<PageId, Page> pages_;
  uint64_t fetches_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace disagg

#endif  // DISAGG_MEMNODE_PAGE_SOURCE_H_
