// Recommender-system scenario (the Teflioudi et al. [50] motivation):
// latent-factor item vectors with popularity-skewed norms, user vectors
// as queries, and top-1 retrieval by inner product. Compares four
// engines -- brute force, exact ball tree, the Section 4.1 ALSH, and the
// Section 4.3 sketch (unsigned) -- on accuracy and work.
//
//   $ ./build/examples/recommender

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "linalg/kernels.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "util/status.h"
#include "util/table.h"

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
  ips::Rng rng(7);
  constexpr std::size_t kFactors = 32;
  constexpr std::size_t kItems = 4000;
  constexpr std::size_t kUsers = 100;

  // Item factors: Gaussian directions with Zipf-decaying norms (popular
  // items have larger norms -- the reason plain cosine LSH fails and
  // asymmetric constructions are needed).
  const ips::Matrix items =
      ips::MakeLatentFactorVectors(kItems, kFactors, 0.35, &rng);
  const ips::Matrix users =
      ips::MakeUnitBallGaussian(kUsers, kFactors, 0.8, &rng);

  // Ground truth top-1 by brute force.
  std::vector<std::size_t> truth(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    double best = -1e300;
    for (std::size_t i = 0; i < kItems; ++i) {
      const double score = ips::kernels::Dot(items.Row(i), users.Row(u));
      if (score > best) {
        best = score;
        truth[u] = i;
      }
    }
  }

  ips::JoinSpec spec;
  spec.s = 0.0;  // pure MIPS: always report the best candidate
  spec.c = 0.5;
  spec.is_signed = true;

  ips::TablePrinter table({"engine", "top-1 accuracy", "mean products/query",
                           "query ms (total)"});

  auto evaluate = [&](const ips::MipsIndex& index, bool unsigned_scores) {
    ips::JoinSpec engine_spec = spec;
    engine_spec.is_signed = !unsigned_scores;
    const ips::JoinResult result = ips::IndexJoin(index, users, engine_spec);
    std::size_t correct = 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto& match = result.per_query[u];
      if (match.has_value() && match->data == truth[u]) ++correct;
    }
    const double products =
        static_cast<double>(result.inner_products) / kUsers;
    table.AddRow({index.Name(),
                  ips::FormatFixed(static_cast<double>(correct) / kUsers, 3),
                  ips::FormatFixed(products, 1),
                  ips::FormatFixed(result.seconds * 1e3, 2)});
  };

  // Every engine with a validated factory is built through it: a bad
  // dataset or parameter set exits with a printed Status here instead of
  // failing deep inside a build.
  const auto brute = OrDie(ips::BruteForceIndex::Create(items));
  evaluate(*brute, false);

  const auto tree = OrDie(ips::TreeMipsIndex::Create(items, 16, &rng));
  evaluate(*tree, false);

  const ips::SimpleMipsTransform transform(kFactors, 1.0);
  const ips::SimHashFamily sphere_hash(transform.output_dim());
  ips::LshTableParams params;
  params.k = 8;
  params.l = 96;
  const auto alsh = OrDie(ips::LshMipsIndex::Create(items, &transform,
                                                    sphere_hash, params, &rng));
  evaluate(*alsh, false);

  ips::NormRangeParams lemp_params;
  lemp_params.bucket_size = 128;
  const ips::NormRangeIndex lemp(items, lemp_params, &rng);
  evaluate(lemp, false);

  ips::SketchMipsParams sketch_params;
  sketch_params.kappa = 4.0;
  sketch_params.copies = 9;
  const auto sketch =
      OrDie(ips::SketchIndex::Create(items, sketch_params, &rng));
  evaluate(*sketch, true);  // the Section 4.3 structure is unsigned

  table.PrintMarkdown(std::cout);
  std::cout << "\nNotes: ALSH accuracy is approximate by design (it must\n"
               "only satisfy the (cs, s) contract, not exact top-1); the\n"
               "sketch engine answers the unsigned problem, so it may\n"
               "legitimately disagree when the best signed and unsigned\n"
               "items differ.\n";
  return 0;
}
