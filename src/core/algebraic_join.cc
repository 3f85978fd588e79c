#include "core/algebraic_join.h"

#include <cmath>

#include "linalg/matmul.h"
#include "util/check.h"
#include "util/timer.h"

namespace ips {

JoinResult MatmulJoin(const Matrix& data, const Matrix& queries,
                      const JoinSpec& spec, bool use_strassen) {
  IPS_CHECK_EQ(data.cols(), queries.cols());
  JoinResult result;
  result.per_query.resize(queries.rows());
  WallTimer timer;
  const Matrix products = PairwiseInnerProducts(queries, data, use_strassen);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    SearchMatch best{0, -1e300};
    for (std::size_t di = 0; di < data.rows(); ++di) {
      const double raw = products.At(qi, di);
      const SearchMatch candidate{di, spec.is_signed ? raw : std::abs(raw)};
      if (RanksBefore(candidate, best)) best = candidate;
    }
    if (best.value >= spec.s) {
      result.per_query[qi] = JoinMatch{qi, best.index, best.value};
    }
  }
  result.seconds = timer.Seconds();
  result.inner_products = queries.rows() * data.rows();
  return result;
}

}  // namespace ips
