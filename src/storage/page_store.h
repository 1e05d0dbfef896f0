#ifndef DISAGG_STORAGE_PAGE_STORE_H_
#define DISAGG_STORAGE_PAGE_STORE_H_

#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"
#include "storage/log_record.h"
#include "storage/page.h"

namespace disagg {

/// Page service hosted on a storage node. Supports both architectures the
/// paper contrasts in Sec. 2.1:
///  - log shipping (Aurora/Socrates/Taurus): compute sends only redo records
///    ("page.apply_log"); the store materializes pages from logs lazily, i.e.
///    "generates data pages based on logs asynchronously";
///  - page shipping (PolarDB): compute sends whole pages ("page.put").
/// Reads ("page.get") materialize any pending redo first and return the full
/// page image plus its LSN. Pending redo is queued per page as references
/// into the request batch it arrived in (`RpcServerContext::RetainRequest`)
/// and decoded only at materialization, so a page's pending redo keeps its
/// whole batch alive until the page is materialized. `page.apply_log` walks
/// the index of an exact `RedoBatch` owner (`RpcServerContext::ExactOwner`)
/// and scans any other request; either way it queues the batch's bytes,
/// never its index.
class PageStoreService {
 public:
  PageStoreService(Fabric* fabric, NodeId node);

  NodeId node() const { return node_; }

  /// Highest LSN received in any redo record (durability watermark).
  Lsn high_water_lsn() const;
  size_t materialized_pages() const;
  size_t pending_records() const;

  /// Applies all pending redo (normally done lazily on read). Returns the
  /// number of records applied. A page whose redo fails keeps the failing
  /// record and its successors pending. Exposed so benchmarks can measure
  /// the foreground vs background split.
  size_t MaterializeAll();

  /// Gossip support (Taurus, Sec. 2.1): version vector of page → LSN, and
  /// direct ingestion of a peer's newer page image.
  std::map<PageId, Lsn> PageVersions() const;
  void IngestPage(const Page& page);
  Result<Page> PeekPage(PageId id) const;

 private:
  Status HandleApplyLog(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandlePut(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleGet(Slice req, std::string* resp, RpcServerContext* sctx);

  // Applies pending redo for one page (mu_ held), in order, up to the first
  // record that fails; drops the applied prefix, adds its length to
  // `*applied` (if given) and returns the failure.
  Status MaterializeLocked(PageId id, size_t* applied = nullptr);

  Fabric* fabric_;
  NodeId node_;
  mutable std::mutex mu_;
  std::map<PageId, Page> pages_;
  // Each page's queued redo in arrival order, re-sent duplicates included.
  std::unordered_map<PageId, EncodedRecords> pending_;
  // page.apply_log's scan of an unindexed request, reused across requests
  // (mu_).
  std::vector<LogRecordSpan> scan_;
  Lsn high_water_lsn_ = kInvalidLsn;
};

/// Compute-side client for a PageStoreService.
class PageStoreClient {
 public:
  PageStoreClient(Fabric* fabric, NodeId node) : fabric_(fabric), node_(node) {}

  NodeId node() const { return node_; }

  /// Ships redo records (log shipping) as an indexed batch. The store
  /// queues references into its bytes rather than copies and reuses its
  /// index rather than scanning, so a caller fanning one batch out to
  /// several stores encodes, scans and stores it once. Returns the store's
  /// high-water LSN.
  Result<Lsn> ApplyLog(NetContext* ctx, const RedoBatch& batch);

  /// Ships a full page image (page shipping).
  Status PutPage(NetContext* ctx, const Page& page);

  /// Fetches the current image of a page (materializing pending redo).
  Result<Page> GetPage(NetContext* ctx, PageId id);

 private:
  Fabric* fabric_;
  NodeId node_;
};

/// Freshest-wins read over a page-store fleet: one `GetPage` per store, fanned
/// out in parallel, returning the copy with the highest LSN, or `none` when
/// every store misses. No freshness gate: the caller judges the returned
/// page's own LSN.
Result<Page> GetFreshestPage(
    Fabric* fabric, NetContext* ctx, std::span<const NodeId> stores, PageId id,
    Status none = Status::Unavailable("no page store reachable"));

}  // namespace disagg

#endif  // DISAGG_STORAGE_PAGE_STORE_H_
