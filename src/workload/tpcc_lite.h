#ifndef DISAGG_WORKLOAD_TPCC_LITE_H_
#define DISAGG_WORKLOAD_TPCC_LITE_H_

#include "common/random.h"
#include "core/row_engine.h"

namespace disagg {

/// Scaled-down TPC-C running against any RowEngine architecture: NewOrder
/// and Payment transactions over warehouse / district / customer / stock /
/// order tables, with the standard access skew (reads + read-modify-writes
/// + inserts). Structurally faithful where it matters for the experiments:
/// transaction footprint (rows touched, log records produced) and conflict
/// pattern, not the full spec's 9 tables.
class TpccLite {
 public:
  struct Config {
    int warehouses = 2;
    int districts_per_warehouse = 4;
    int customers_per_district = 30;
    int items = 200;
    int lines_per_order = 5;
    uint64_t seed = 42;
  };

  struct Stats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
  };

  TpccLite(RowEngine* db, Config config);

  /// Populates all tables.
  Status Load(NetContext* ctx);

  /// One NewOrder transaction; false = aborted on lock conflict (retryable).
  Result<bool> NewOrder(NetContext* ctx);
  /// One Payment transaction.
  Result<bool> Payment(NetContext* ctx);

  const Stats& stats() const { return stats_; }

  // Key-space layout (table tag in the top byte).
  static uint64_t WarehouseKey(int w);
  static uint64_t DistrictKey(int w, int d);
  static uint64_t CustomerKey(int w, int d, int c);
  static uint64_t StockKey(int w, int i);
  static uint64_t OrderKey(int w, int d, int o);
  static uint64_t OrderLineKey(int w, int d, int o, int l);

 private:
  RowEngine* db_;
  Config config_;
  Random rng_;
  Stats stats_;
  // Scratch rows reused across transactions (their capacity kept): one
  // read-modify-written row at a time, and one built for an insert.
  std::string row_;
  std::string new_row_;
};

}  // namespace disagg

#endif  // DISAGG_WORKLOAD_TPCC_LITE_H_
