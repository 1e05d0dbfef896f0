#ifndef DISAGG_WORKLOAD_TPCH_LITE_H_
#define DISAGG_WORKLOAD_TPCH_LITE_H_

#include <vector>

#include "query/operators.h"
#include "query/types.h"

namespace disagg::tpch {

/// Scaled-down TPC-H: schemas, deterministic data generators, and three
/// representative query shapes (pricing-summary Q1, shipping-priority join
/// Q3, forecasting-revenue filter/sum Q6) built from the operator library.
/// Used by the OLAP experiments (E4, E11) over different placements of the
/// same data.

Schema LineitemSchema();  // orderkey, quantity, price, discount, shipday,
                          // returnflag

std::vector<Tuple> GenLineitem(size_t rows, uint64_t seed = 101);
/// Rows of (orderkey, custkey, orderday, priority), all int64.
std::vector<Tuple> GenOrders(size_t rows, uint64_t seed = 102);
/// Rows of (custkey int64, segment string).
std::vector<Tuple> GenCustomer(size_t rows, uint64_t seed = 103);

/// Q1-style pricing summary: filter shipday <= cutoff, group by returnflag,
/// aggregate count/sum(quantity)/sum(price).
std::vector<Tuple> Q1(NetContext* ctx, const std::vector<Tuple>& lineitem,
                      int64_t cutoff_day);

/// Q3-style shipping priority: customers in `segment` join orders join
/// lineitem, group by orderkey, sum(price), top 10 by revenue.
std::vector<Tuple> Q3(NetContext* ctx, const std::vector<Tuple>& customer,
                      const std::vector<Tuple>& orders,
                      const std::vector<Tuple>& lineitem,
                      const std::string& segment);

/// Q6-style revenue: filter shipday in [lo, hi), discount in range,
/// quantity < qty_max; sum(price).
std::vector<Tuple> Q6(NetContext* ctx, const std::vector<Tuple>& lineitem,
                      int64_t day_lo, int64_t day_hi, int64_t qty_max);

}  // namespace disagg::tpch

#endif  // DISAGG_WORKLOAD_TPCH_LITE_H_
