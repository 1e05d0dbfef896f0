#include "workload/tpcc_lite.h"

#include "common/coding.h"

namespace disagg {

namespace {

// Row payloads: a couple of fixed counters plus padding to realistic widths,
// built into `*row` (its capacity reused).
const std::string& NumericRow(std::string* row, uint64_t a, uint64_t b,
                              size_t pad) {
  row->clear();
  PutFixed64(row, a);
  PutFixed64(row, b);
  row->append(pad, 'p');
  return *row;
}

uint64_t Field0(const std::string& row) {
  return DecodeFixed64(row.data());
}
uint64_t Field1(const std::string& row) {
  return DecodeFixed64(row.data() + 8);
}
void SetField0(std::string* row, uint64_t v) {
  EncodeFixed64(row->data(), v);
}
void SetField1(std::string* row, uint64_t v) {
  EncodeFixed64(row->data() + 8, v);
}

}  // namespace

uint64_t TpccLite::WarehouseKey(int w) {
  return (1ull << 56) | static_cast<uint64_t>(w);
}
uint64_t TpccLite::DistrictKey(int w, int d) {
  return (2ull << 56) | (static_cast<uint64_t>(w) << 16) |
         static_cast<uint64_t>(d);
}
uint64_t TpccLite::CustomerKey(int w, int d, int c) {
  return (3ull << 56) | (static_cast<uint64_t>(w) << 32) |
         (static_cast<uint64_t>(d) << 16) | static_cast<uint64_t>(c);
}
uint64_t TpccLite::StockKey(int w, int i) {
  return (4ull << 56) | (static_cast<uint64_t>(w) << 32) |
         static_cast<uint64_t>(i);
}
uint64_t TpccLite::OrderKey(int w, int d, int o) {
  return (5ull << 56) | (static_cast<uint64_t>(w) << 40) |
         (static_cast<uint64_t>(d) << 24) | static_cast<uint64_t>(o);
}
uint64_t TpccLite::OrderLineKey(int w, int d, int o, int l) {
  return (6ull << 56) | (static_cast<uint64_t>(w) << 40) |
         (static_cast<uint64_t>(d) << 24) | (static_cast<uint64_t>(o) << 8) |
         static_cast<uint64_t>(l);
}

TpccLite::TpccLite(RowEngine* db, Config config)
    : db_(db), config_(config), rng_(config.seed) {}

Status TpccLite::Load(NetContext* ctx) {
  for (int w = 0; w < config_.warehouses; w++) {
    DISAGG_RETURN_NOT_OK(
        db_->Put(ctx, WarehouseKey(w), NumericRow(&new_row_, 0, 0, 64)));
    for (int d = 0; d < config_.districts_per_warehouse; d++) {
      // Field0 = next order id, Field1 = district YTD.
      DISAGG_RETURN_NOT_OK(db_->Put(ctx, DistrictKey(w, d),
                                    NumericRow(&new_row_, 1, 0, 64)));
      for (int c = 0; c < config_.customers_per_district; c++) {
        // Field0 = balance, Field1 = payment count.
        DISAGG_RETURN_NOT_OK(db_->Put(ctx, CustomerKey(w, d, c),
                                      NumericRow(&new_row_, 1000, 0, 120)));
      }
    }
    for (int i = 0; i < config_.items; i++) {
      // Field0 = stock quantity.
      DISAGG_RETURN_NOT_OK(db_->Put(ctx, StockKey(w, i),
                                    NumericRow(&new_row_, 100, 0, 40)));
    }
  }
  return Status::OK();
}

Result<bool> TpccLite::NewOrder(NetContext* ctx) {
  const int w = static_cast<int>(rng_.Uniform(config_.warehouses));
  const int d =
      static_cast<int>(rng_.Uniform(config_.districts_per_warehouse));
  const TxnId txn = db_->Begin();
  auto run = [&]() -> Status {
    // Read-modify-write the district's next order id.
    std::string& district = row_;
    DISAGG_RETURN_NOT_OK(db_->Read(ctx, txn, DistrictKey(w, d), &district));
    const uint64_t order_id = Field0(district);
    SetField0(&district, order_id + 1);
    DISAGG_RETURN_NOT_OK(db_->Update(ctx, txn, DistrictKey(w, d), district));

    // Decrement stock for each line, insert order + order lines.
    DISAGG_RETURN_NOT_OK(db_->Insert(
        ctx, txn, OrderKey(w, d, static_cast<int>(order_id)),
        NumericRow(&new_row_, order_id, config_.lines_per_order, 32)));
    for (int l = 0; l < config_.lines_per_order; l++) {
      const int item = static_cast<int>(rng_.Uniform(config_.items));
      std::string& stock = row_;
      DISAGG_RETURN_NOT_OK(db_->Read(ctx, txn, StockKey(w, item), &stock));
      uint64_t qty = Field0(stock);
      qty = qty >= 5 ? qty - 5 : qty + 91 - 5;  // TPC-C restock rule
      SetField0(&stock, qty);
      DISAGG_RETURN_NOT_OK(db_->Update(ctx, txn, StockKey(w, item), stock));
      DISAGG_RETURN_NOT_OK(db_->Insert(
          ctx, txn, OrderLineKey(w, d, static_cast<int>(order_id), l),
          NumericRow(&new_row_, item, 5, 24)));
    }
    return Status::OK();
  }();
  if (run.ok()) {
    DISAGG_RETURN_NOT_OK(db_->Commit(ctx, txn));
    stats_.committed++;
    return true;
  }
  DISAGG_RETURN_NOT_OK(db_->Abort(ctx, txn));
  stats_.aborted++;
  if (run.IsBusy()) return false;  // lock conflict: retryable
  return run;
}

Result<bool> TpccLite::Payment(NetContext* ctx) {
  const int w = static_cast<int>(rng_.Uniform(config_.warehouses));
  const int d =
      static_cast<int>(rng_.Uniform(config_.districts_per_warehouse));
  const int c =
      static_cast<int>(rng_.Uniform(config_.customers_per_district));
  const uint64_t amount = 1 + rng_.Uniform(500);
  const TxnId txn = db_->Begin();
  auto run = [&]() -> Status {
    std::string& warehouse = row_;
    DISAGG_RETURN_NOT_OK(db_->Read(ctx, txn, WarehouseKey(w), &warehouse));
    SetField1(&warehouse, Field1(warehouse) + amount);
    DISAGG_RETURN_NOT_OK(db_->Update(ctx, txn, WarehouseKey(w), warehouse));

    std::string& district = row_;
    DISAGG_RETURN_NOT_OK(db_->Read(ctx, txn, DistrictKey(w, d), &district));
    SetField1(&district, Field1(district) + amount);
    DISAGG_RETURN_NOT_OK(db_->Update(ctx, txn, DistrictKey(w, d), district));

    std::string& customer = row_;
    DISAGG_RETURN_NOT_OK(db_->Read(ctx, txn, CustomerKey(w, d, c), &customer));
    SetField0(&customer, Field0(customer) - amount);
    SetField1(&customer, Field1(customer) + 1);
    return db_->Update(ctx, txn, CustomerKey(w, d, c), customer);
  }();
  if (run.ok()) {
    DISAGG_RETURN_NOT_OK(db_->Commit(ctx, txn));
    stats_.committed++;
    return true;
  }
  DISAGG_RETURN_NOT_OK(db_->Abort(ctx, txn));
  stats_.aborted++;
  if (run.IsBusy()) return false;
  return run;
}

}  // namespace disagg
