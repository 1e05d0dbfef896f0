#include "workload/tpch_lite.h"

#include "common/random.h"

namespace disagg::tpch {

Schema LineitemSchema() {
  return Schema{{{"orderkey", ColumnType::kInt64},
                 {"quantity", ColumnType::kInt64},
                 {"price", ColumnType::kDouble},
                 {"discount", ColumnType::kDouble},
                 {"shipday", ColumnType::kInt64},
                 {"returnflag", ColumnType::kString}}};
}

std::vector<Tuple> GenLineitem(size_t rows, uint64_t seed) {
  Random rng(seed);
  static const char* kFlags[] = {"A", "N", "R"};
  std::vector<Tuple> out;
  out.reserve(rows);
  for (size_t i = 0; i < rows; i++) {
    out.push_back(Tuple{
        static_cast<int64_t>(rng.Uniform(rows / 4 + 1)),     // orderkey
        static_cast<int64_t>(1 + rng.Uniform(50)),           // quantity
        static_cast<double>(100 + rng.Uniform(99900)) / 100,  // price
        static_cast<double>(rng.Uniform(11)) / 100,          // discount
        static_cast<int64_t>(rng.Uniform(2526)),             // shipday
        std::string(kFlags[rng.Uniform(3)]),                 // returnflag
    });
  }
  return out;
}

std::vector<Tuple> GenOrders(size_t rows, uint64_t seed) {
  Random rng(seed);
  std::vector<Tuple> out;
  out.reserve(rows);
  for (size_t i = 0; i < rows; i++) {
    out.push_back(Tuple{
        static_cast<int64_t>(i),                      // orderkey
        static_cast<int64_t>(rng.Uniform(rows / 10 + 1)),  // custkey
        static_cast<int64_t>(rng.Uniform(2406)),      // orderday
        static_cast<int64_t>(rng.Uniform(5)),         // priority
    });
  }
  return out;
}

std::vector<Tuple> GenCustomer(size_t rows, uint64_t seed) {
  Random rng(seed);
  static const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                    "HOUSEHOLD", "MACHINERY"};
  std::vector<Tuple> out;
  out.reserve(rows);
  for (size_t i = 0; i < rows; i++) {
    out.push_back(Tuple{static_cast<int64_t>(i),
                        std::string(kSegments[rng.Uniform(5)])});
  }
  return out;
}

std::vector<Tuple> Q1(NetContext* ctx, const std::vector<Tuple>& lineitem,
                      int64_t cutoff_day) {
  Predicate pred;
  pred.And(4, CmpOp::kLe, cutoff_day);
  auto filtered = ops::Filter(ctx, lineitem, pred);
  return ops::HashAggregate(ctx, filtered, {5},
                            {{AggFunc::kCount, 0},
                             {AggFunc::kSum, 1},
                             {AggFunc::kSum, 2}});
}

std::vector<Tuple> Q3(NetContext* ctx, const std::vector<Tuple>& customer,
                      const std::vector<Tuple>& orders,
                      const std::vector<Tuple>& lineitem,
                      const std::string& segment) {
  Predicate seg;
  seg.And(1, CmpOp::kEq, segment);
  auto building = ops::Filter(ctx, customer, seg);
  // customer(custkey, segment) x orders(orderkey, custkey, ...)
  auto cust_orders = ops::HashJoin(ctx, building, orders, 0, 1);
  // joined: [custkey, segment, orderkey, custkey, orderday, priority]
  // x lineitem on orderkey
  auto full = ops::HashJoin(ctx, cust_orders, lineitem, 2, 0);
  // full: [.. 6 cols ..] + [orderkey, quantity, price, ...] -> price at 8.
  auto grouped = ops::HashAggregate(ctx, full, {2}, {{AggFunc::kSum, 8}});
  auto sorted = ops::SortBy(ctx, grouped, {1}, /*descending=*/true);
  return ops::Limit(std::move(sorted), 10);
}

std::vector<Tuple> Q6(NetContext* ctx, const std::vector<Tuple>& lineitem,
                      int64_t day_lo, int64_t day_hi, int64_t qty_max) {
  Predicate pred;
  pred.And(4, CmpOp::kGe, day_lo)
      .And(4, CmpOp::kLt, day_hi)
      .And(3, CmpOp::kGe, 0.02)
      .And(3, CmpOp::kLe, 0.08)
      .And(1, CmpOp::kLt, qty_max);
  auto filtered = ops::Filter(ctx, lineitem, pred);
  return ops::HashAggregate(ctx, filtered, {},
                            {{AggFunc::kSum, 2}, {AggFunc::kCount, 0}});
}

}  // namespace disagg::tpch
