// Experiment R1 -- recall/work operating curves of the approximate MIPS
// engines on a latent-factor workload (ANN-benchmarks style): recall@1
// versus exact inner products evaluated per query, sweeping each
// engine's main knob. The curve a practitioner actually reads before
// picking an index.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "lsh/multiprobe.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "util/table.h"

namespace ips {
namespace {

void Run() {
  std::cout << "=== Experiment R1: recall@1 vs work (latent-factor MIPS) "
               "===\n";
  Rng rng(3);
  const std::size_t kDim = 32;
  const std::size_t kItems = 4000;
  const std::size_t kUsers = 100;
  const Matrix items = MakeLatentFactorVectors(kItems, kDim, 0.35, &rng);
  const Matrix users = MakeUnitBallGaussian(kUsers, kDim, 0.8, &rng);

  std::vector<std::size_t> truth(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    truth[u] = TopKBruteForce(items, users.Row(u), 1, true)[0].index;
  }

  TablePrinter table({"engine", "knob", "recall@1", "products/query"});

  // Dual-ball + SimHash, sweeping table count L.
  const SimpleMipsTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  for (std::size_t l : {8u, 16u, 32u, 64u, 128u}) {
    LshTableParams params;
    params.k = 10;
    params.l = l;
    Rng local(7);
    const LshMipsIndex index(items, &transform, base, params, &local);
    std::size_t hits = 0;
    std::size_t products = 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto candidates = index.Candidates(users.Row(u));
      products += candidates.size();
      const auto top =
          TopKFromCandidates(items, users.Row(u), candidates, 1, true);
      if (!top.empty() && top[0].index == truth[u]) ++hits;
    }
    table.AddRow({"simple-mips+simhash", "L=" + Format(l),
                  FormatFixed(static_cast<double>(hits) / kUsers, 3),
                  FormatFixed(static_cast<double>(products) / kUsers, 1)});
  }

  // Multiprobe (key width 12, 8 tables), sweeping probes.
  {
    const Matrix lifted = transform.TransformDataset(items);
    const Matrix lifted_users = transform.TransformQueries(users);
    for (std::size_t probes : {0u, 8u, 32u, 128u}) {
      MultiprobeParams params;
      params.k = 12;
      params.l = 8;
      params.probes = probes;
      Rng local(11);
      const MultiprobeSimHashTables tables(lifted, params, &local);
      std::size_t hits = 0;
      std::size_t products = 0;
      for (std::size_t u = 0; u < kUsers; ++u) {
        const auto candidates = tables.Query(lifted_users.Row(u));
        products += candidates.size();
        const auto top =
            TopKFromCandidates(items, users.Row(u), candidates, 1, true);
        if (!top.empty() && top[0].index == truth[u]) ++hits;
      }
      table.AddRow({"multiprobe(k=12,l=8)", "T=" + Format(probes),
                    FormatFixed(static_cast<double>(hits) / kUsers, 3),
                    FormatFixed(static_cast<double>(products) / kUsers, 1)});
    }
  }

  // Norm-range (LEMP), sweeping bucket size.
  for (std::size_t bucket : {64u, 128u, 512u}) {
    NormRangeParams params;
    params.bucket_size = bucket;
    Rng local(13);
    const NormRangeIndex index(items, params, &local);
    JoinSpec spec;
    spec.s = 0.0;
    spec.c = 0.999;
    spec.is_signed = true;
    const JoinResult result = IndexJoin(index, users, spec);
    std::size_t hits = 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto& match = result.per_query[u];
      if (match.has_value() && match->data == truth[u]) ++hits;
    }
    table.AddRow(
        {"norm-range(lemp)", "B=" + Format(bucket),
         FormatFixed(static_cast<double>(hits) / kUsers, 3),
         FormatFixed(static_cast<double>(result.inner_products) / kUsers,
                     1)});
  }

  table.PrintMarkdown(std::cout);
  MaybeExportCsv(table, "recall_curves");
  std::cout
      << "\nShape checks: every engine trades recall against verified\n"
         "candidates monotonically along its knob; on norm-skewed data\n"
         "the LEMP-style index reaches exact recall with the least work\n"
         "(its pruning is norm-aware), while the reductions pay for\n"
         "treating all norms through one sphere lift -- the practical\n"
         "context for the paper's asymmetry discussion.\n";
}

}  // namespace
}  // namespace ips

int main() {
  ips::Run();
  return 0;
}
