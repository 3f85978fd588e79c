// Quickstart: build a MIPS index over random vectors, run approximate
// (cs, s) searches, and verify the Definition 1 contract against brute
// force.
//
//   $ ./build/examples/quickstart

#include <cstdlib>
#include <iostream>
#include <utility>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/similarity_join.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "util/status.h"

namespace {

// Unwraps a StatusOr or exits with the status printed, so a rejected
// input is diagnosable instead of a raw abort.
template <typename T>
T OrDie(ips::StatusOr<T> result) {
  if (!result.ok()) {
    std::cerr << "fatal: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  ips::Rng rng(2026);

  // 1. Data: 2000 vectors in the unit ball of R^32, queries in the ball
  //    of radius U = 1 with one strong planted match each.
  constexpr std::size_t kDim = 32;
  const ips::PlantedInstance instance =
      ips::MakePlantedInstance(/*num_data=*/2000, /*num_queries=*/10, kDim,
                               /*target=*/0.9, /*query_radius=*/1.0, &rng);

  // 2. The join specification: report a pair with p^T q >= c*s whenever
  //    some pair reaches s (Definition 1 in the paper).
  ips::JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.75;
  spec.is_signed = true;

  // 3. An ALSH index: the paper's Section 4.1 reduction (both sides
  //    lifted to the unit sphere) with SimHash as the sphere hash.
  const ips::DualBallTransform transform(kDim, /*query_radius=*/1.0);
  const ips::SimHashFamily sphere_hash(transform.output_dim());
  ips::LshTableParams params;
  params.k = 10;  // hash concatenations per table
  params.l = 32;  // tables
  const auto index = OrDie(ips::LshMipsIndex::Create(
      instance.data, &transform, sphere_hash, params, &rng));

  // 4. Search: the (cs, s)-search is a top-1 Query plus the threshold.
  ips::QueryOptions options;
  options.k = 1;
  options.is_signed = spec.is_signed;
  std::cout << "query -> (data index, inner product)\n";
  for (std::size_t qi = 0; qi < instance.queries.rows(); ++qi) {
    const auto top = OrDie(index->Query(instance.queries.Row(qi), options));
    if (!top.empty() && top[0].value >= spec.cs()) {
      std::cout << "  q" << qi << " -> (p" << top[0].index << ", "
                << top[0].value << ")";
      std::cout << (top[0].index == instance.plants[qi] ? "  [planted]"
                                                        : "")
                << "\n";
    } else {
      std::cout << "  q" << qi << " -> no candidate above cs\n";
    }
  }

  // 5. Verify the (cs, s) contract against the exact join (through the
  //    validated drivers: a malformed spec or query batch would come
  //    back as a printed Status, not a crash).
  const ips::JoinResult truth =
      OrDie(ips::ExactJoinChecked(instance.data, instance.queries, spec));
  const ips::JoinResult approx =
      OrDie(ips::IndexJoinChecked(*index, instance.queries, spec));
  double recall = 0.0;
  const std::size_t violations =
      ips::VerifyJoinContract(approx, truth, spec, &recall);
  std::cout << "\nrecall over promised queries: " << recall
            << "  contract violations: " << violations << "\n"
            << "exact inner products evaluated: " << approx.inner_products
            << " (brute force would use " << truth.inner_products << ")\n";
  return 0;
}
