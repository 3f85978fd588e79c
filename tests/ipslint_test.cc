// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Tests for the project linter/analyzer (tools/ipslint): rule-table
// parsing, comment/string stripping, path scoping, the allow-comment
// escape hatch, the built-in stale-allow rule, and the three
// whole-program passes (layering, lock-order, failpoint-coverage) —
// each proven to fire on a planted violation and to stay quiet on the
// benign twin. The known-bad snippets are fed through LintText /
// Analyze* directly, so only the tree-wide clean-on-HEAD tests touch
// the real checkout (via IPS_REPO_ROOT).

#include "ipslint_lib.h"

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ipslint_analysis.h"

namespace ips {
namespace lint {
namespace {

std::string Row(const std::string& name, const std::string& includes,
                const std::string& excludes, const std::string& regex,
                const std::string& message) {
  return name + "\t" + includes + "\t" + excludes + "\t" + regex + "\t" +
         message + "\n";
}

// A miniature mirror of tools/ipslint.rules exercising every feature:
// include scoping, exclude scoping, and statement-anchored regexes.
std::vector<LintRule> TestRules() {
  std::string table;
  table += Row("rng-outside-rng", "src", "src/rng",
               R"(std::(mt19937|uniform_real_distribution)\b|\brand\s*\()",
               "use ips::Rng");
  table += Row("stdout-in-lib", "src", "-", R"(std::cout\b|\bprintf\s*\()",
               "no stdout in libraries");
  table += Row("naked-thread", "src", "src/util/thread_pool",
               R"(std::j?thread\b)", "use util::ThreadPool");
  table += Row("check-in-query", "src/serve/engine.cc", "-", R"(\bIPS_CHECK)",
               "return Status in query paths");
  table += Row("status-discard", "-", "-",
               R"(^\s*(?:[A-Za-z_][A-Za-z0-9_]*(?:\.|->|::))*)"
               R"((?:Create|Submit|Validate[A-Za-z]*)\s*\([^;{}]*\)\s*;\s*$)",
               "discarded Status");
  table += Row("raw-dot", "src", "src/linalg",
               R"(^\s*\w+\s*\+=\s*[\w.>-]*\w\[[^\]]+\]\s*\*\s*)"
               R"([\w.>-]*\w\[[^\]]+\])",
               "use linalg::kernels");
  table += Row("hand-ranking", "src,bench",
               "src/linalg/search_match.h,bench/e2e",
               R"(\b\w+\.(value|first)\s*!=\s*\w+\.\1\b|)"
               R"(>\s*best(_value\b|\.value\b|->second\b))",
               "use RanksBefore / TopKHeap");
  table += Row("bucket-map", "src,bench", "bench/e2e",
               R"(unordered_map<\s*std::uint64_t,\s*)"
               R"(std::vector<\s*std::uint32_t\s*>\s*>)",
               "use lsh/bucket_table.h");
  table += Row("per-row-hash",
               "src/lsh/tables,src/lsh/bucket_join,src/core,src/storage,"
               "src/serve",
               "-", R"(\b(HashData|HashQuery)\s*\()", "use an LshKeyer");
  table += Row("score-dot",
               "src/core,src/sketch,src/lsh/bucket_join.cc,src/storage,"
               "src/serve",
               "-", R"(\bkernels::Dot\s*\(|\bops\s*(\.|->)\s*dot\b)",
               "score with the fma chain");
  table += Row("variant-fact", "src/serve", "src/serve/planner.cc",
               R"((==|!=)\s*QueryAlgo::|\bQueryAlgo::\w+\s*(==|!=)|)"
               R"((==|!=)\s*QueryPrecision::k(Exact|QuantizedRerank)\b|)"
               R"(\bQueryPrecision::k(Exact|QuantizedRerank)\s*(==|!=))",
               "read the variant's planner row");
  table += Row("serve-envelope", "src/serve", "src/serve/envelope",
               R"(TraceRing::Global\(\)|make_(unique|shared)<Trace>)",
               "go through ServeQuery/ServeBatch");
  auto rules = ParseRules(table);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  return *std::move(rules);
}

std::vector<LintFinding> RunLint(const std::string& path,
                                 const std::string& text) {
  static const std::vector<LintRule> rules = TestRules();
  return LintText(rules, path, text);
}

TEST(ParseRules, AcceptsCommentsAndBlankLines) {
  const auto rules = ParseRules("# comment\n\n" +
                                Row("r1", "-", "-", "abc", "msg"));
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].name, "r1");
  EXPECT_TRUE((*rules)[0].include_prefixes.empty());
}

TEST(ParseRules, RejectsWrongFieldCount) {
  const auto rules = ParseRules("just\tthree\tfields\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseRules, RejectsDuplicateName) {
  const auto rules = ParseRules(Row("r1", "-", "-", "a", "m") +
                                Row("r1", "-", "-", "b", "m"));
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("duplicate"), std::string::npos);
}

TEST(ParseRules, RejectsReservedStaleAllowName) {
  const auto rules =
      ParseRules(Row(std::string(kStaleAllowRule), "-", "-", "a", "m"));
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("reserved"), std::string::npos);
}

TEST(ParseRules, RejectsInvalidRegex) {
  const auto rules = ParseRules(Row("r1", "-", "-", "(unclosed", "m"));
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("invalid regex"),
            std::string::npos);
}

TEST(Lint, BannedRngFiresExactlyOnce) {
  const auto findings =
      RunLint("src/lsh/foo.cc", "void F() {\n  std::mt19937 gen(42);\n}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-outside-rng");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].excerpt, "std::mt19937 gen(42);");
}

TEST(Lint, RngRuleScopedByPath) {
  const std::string bad = "std::mt19937 gen(42);\n";
  // src/rng is the excluded home of the RNG layer; tests/ is outside the
  // rule's include scope entirely.
  EXPECT_TRUE(RunLint("src/rng/random.cc", bad).empty());
  EXPECT_TRUE(RunLint("tests/foo_test.cc", bad).empty());
  EXPECT_EQ(RunLint("src/core/foo.cc", bad).size(), 1u);
}

TEST(Lint, StdoutInLibraryFires) {
  const auto findings =
      RunLint("src/serve/engine.cc", "  std::cout << \"debug\\n\";\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stdout-in-lib");
}

TEST(Lint, BannedConstructInsideStringOrCommentDoesNotFire) {
  // The scanner strips string literals, character literals, raw strings
  // and comments before matching, so *talking about* a banned construct
  // never trips a rule.
  EXPECT_TRUE(
      RunLint("src/a.cc", "const char* s = \"std::mt19937 gen;\";\n").empty());
  EXPECT_TRUE(
      RunLint("src/a.cc", "const char* s = R\"(std::cout << x;)\";\n").empty());
  EXPECT_TRUE(RunLint("src/a.cc", "// std::thread t;\n").empty());
  EXPECT_TRUE(RunLint("src/a.cc", "/* std::mt19937\n   std::cout */\n").empty());
}

TEST(Lint, NakedThreadFires) {
  const auto findings =
      RunLint("src/serve/foo.cc", "  std::thread worker([] {});\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "naked-thread");
  // The ThreadPool implementation itself is the one sanctioned home.
  EXPECT_TRUE(
      RunLint("src/util/thread_pool.cc", "  std::thread worker([] {});\n")
          .empty());
  // std::this_thread is not std::thread.
  EXPECT_TRUE(
      RunLint("src/serve/foo.cc", "  std::this_thread::yield();\n").empty());
}

TEST(Lint, AllowCommentSuppressesExactlyThatRule) {
  const auto suppressed = RunLint(
      "src/serve/engine.cc",
      "  IPS_CHECK(ptr != nullptr);  // ipslint:allow(check-in-query)\n");
  EXPECT_TRUE(suppressed.empty());
  // The same allow-comment does not blanket other rules on the line.
  const auto other = RunLint(
      "src/serve/engine.cc",
      "  IPS_CHECK(x); std::cout << x;  // ipslint:allow(check-in-query)\n");
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].rule, "stdout-in-lib");
}

TEST(Lint, StaleAllowCommentFiresExactlyOnce) {
  const auto findings =
      RunLint("src/a.cc", "int x = 1;  // ipslint:allow(no-such-rule)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kStaleAllowRule);
  EXPECT_NE(findings[0].message.find("no-such-rule"), std::string::npos);
}

TEST(Lint, DiscardedStatusFiresOnBareCallStatement) {
  const auto findings =
      RunLint("tests/foo_test.cc", "void F() {\n  Index::Create(data, rng);\n}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "status-discard");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(Lint, DiscardedStatusSkipsConsumedCalls) {
  // Assigned, void-cast, and macro-wrapped calls all consume the result.
  EXPECT_TRUE(RunLint("src/a.cc", "  auto idx = Index::Create(data);\n").empty());
  EXPECT_TRUE(RunLint("src/a.cc", "  (void)Index::Create(data);\n").empty());
  EXPECT_TRUE(
      RunLint("src/a.cc", "  IPS_RETURN_IF_ERROR(ValidateDims(m, d));\n").empty());
}

TEST(Lint, DiscardedStatusSkipsContinuationLines) {
  // `^` anchors to statement starts: the wrapped second line of an
  // assignment must not look like a bare discarded call.
  const std::string wrapped =
      "  auto idx =\n      Index::Create(data, rng);\n";
  EXPECT_TRUE(RunLint("src/a.cc", wrapped).empty());
  const std::string wrapped_macro =
      "  IPS_RETURN_IF_ERROR(\n      ValidateDims(m, d, \"x\"));\n";
  EXPECT_TRUE(RunLint("src/a.cc", wrapped_macro).empty());
}

TEST(Lint, RawDotLoopFiresOutsideLinalg) {
  const std::string bad =
      "void F() {\n  for (i = 0; i < n; ++i) {\n"
      "    acc += x[i] * y[i];\n  }\n}\n";
  const auto findings = RunLint("src/tree/foo.cc", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-dot");
  EXPECT_EQ(findings[0].line, 3u);
  // The kernels layer is the sanctioned home of raw accumulation.
  EXPECT_TRUE(RunLint("src/linalg/kernels.cc", bad).empty());
}

TEST(Lint, RawDotAllowsNonDotAccumulation) {
  // Scatter into an indexed destination (count-sketch style) is not a
  // dot product: the LHS is not a plain accumulator.
  EXPECT_TRUE(
      RunLint("src/sketch/f.cc", "  out[buckets_[j]] += signs_[j] * x[j];\n")
          .empty());
  // Squared-difference accumulation has no subscripted product.
  EXPECT_TRUE(RunLint("src/core/f.cc", "  sum += diff * diff;\n").empty());
  // The escape hatch works like any other rule.
  EXPECT_TRUE(
      RunLint("src/core/f.cc",
              "  acc += x[i] * y[i];  // ipslint:allow(raw-dot)\n")
          .empty());
}

TEST(Lint, HandRankingFiresOutsideThePredicate) {
  // A hand-written tie rule and the three shapes of a hand-kept best
  // match each fire, in src/ and bench/ alike.
  const std::string tie_rule =
      "  if (a.value != b.value) return a.value > b.value;\n";
  for (const std::string& bad :
       {tie_rule, std::string("    if (a.first != b.first) return x;\n"),
        std::string("  if (score > best.value) {\n"),
        std::string("  if (value > best_value) {\n"),
        std::string("  if (!best || score > best->second) {\n")}) {
    const auto findings = RunLint("src/core/foo.cc", bad);
    ASSERT_EQ(findings.size(), 1u) << bad;
    EXPECT_EQ(findings[0].rule, "hand-ranking");
    EXPECT_EQ(RunLint("bench/bench_foo.cc", bad).size(), 1u) << bad;
  }
  // The predicate's own header and the e2e harness are out of scope.
  EXPECT_TRUE(RunLint("src/linalg/search_match.h", tie_rule).empty());
  EXPECT_TRUE(RunLint("bench/e2e/serve.cc", tie_rule).empty());
  // Comparing two different fields, or tracking a best magnitude (a
  // hash bucket's argmax), is not a ranking of data rows.
  EXPECT_TRUE(RunLint("src/core/f.cc", "  if (a.value != b.index) {\n")
                  .empty());
  EXPECT_TRUE(
      RunLint("src/lsh/f.cc", "      if (magnitude > best_magnitude) {\n")
          .empty());
}

TEST(Lint, BucketMapFiresOutsideTheE2eHarness) {
  // A key -> rows hash map is a second bucket layout beside BucketTable,
  // in src/ and bench/ alike, however its template arguments are spaced.
  const std::string map_member =
      "  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> b;\n";
  for (const std::string& bad :
       {map_member,
        std::string("  std::unordered_map< std::uint64_t,std::vector< "
                    "std::uint32_t > > b;\n")}) {
    const auto findings = RunLint("src/lsh/foo.cc", bad);
    ASSERT_EQ(findings.size(), 1u) << bad;
    EXPECT_EQ(findings[0].rule, "bucket-map");
    EXPECT_EQ(RunLint("bench/bench_foo.cc", bad).size(), 1u) << bad;
  }
  EXPECT_TRUE(RunLint("bench/e2e/batch.cc", map_member).empty());
  // Other key or value types, and a mention in a comment, are not
  // bucket maps.
  EXPECT_TRUE(
      RunLint("src/obs/f.cc", "  std::unordered_map<std::uint64_t, void*> c;\n")
          .empty());
  EXPECT_TRUE(RunLint("src/lsh/f.cc",
                      "  // std::unordered_map<std::uint64_t, "
                      "std::vector<std::uint32_t>>\n")
                  .empty());
}

TEST(Lint, PerRowHashFiresOnTheKeyerPathsOnly) {
  // Tables, joins, restores and serving hash through an LshKeyer; a
  // sampled function's HashData / HashQuery there is a second path.
  const std::string data_call = "    keys[i] = function.HashData(row);\n";
  const std::string query_call =
      "  const auto key = h->HashQuery (q);\n";
  for (const char* path :
       {"src/lsh/tables.cc", "src/lsh/bucket_join.cc", "src/core/x.cc",
        "src/storage/blocked_join.cc", "src/serve/engine.cc"}) {
    for (const std::string& bad : {data_call, query_call}) {
      const auto findings = RunLint(path, bad);
      ASSERT_EQ(findings.size(), 1u) << path << ": " << bad;
      EXPECT_EQ(findings[0].rule, "per-row-hash");
    }
  }
  // The families define and call them; theory code estimates collision
  // rates one function at a time; a comment or a keyer call is fine.
  EXPECT_TRUE(RunLint("src/lsh/simhash.cc", data_call).empty());
  EXPECT_TRUE(RunLint("src/lsh/lsh_family.cc", query_call).empty());
  EXPECT_TRUE(RunLint("src/theory/lemma4.cc", data_call).empty());
  EXPECT_TRUE(
      RunLint("src/lsh/tables.cc", "  // HashData(row) once per bit\n")
          .empty());
  EXPECT_TRUE(RunLint("src/lsh/tables.cc",
                      "  keyer_->Keys(q, HashSide::kQuery, 0, l, keys);\n")
                  .empty());
}

TEST(Lint, ScoreDotFiresOnTheAnswerPathsOnly) {
  // An exact score there comes from the fma-chain kernels; the split
  // dot would round apart from the brute-force oracle.
  const std::string wrapper =
      "  const double raw = kernels::Dot(data.Row(i), q);\n";
  const std::string table = "    out[j] = ops.dot(row, q, cols);\n";
  for (const char* path :
       {"src/core/mips_index.cc", "src/sketch/sketch_mips.cc",
        "src/lsh/bucket_join.cc", "src/storage/blocked_join.cc",
        "src/serve/engine.cc"}) {
    for (const std::string& bad : {wrapper, table}) {
      const auto findings = RunLint(path, bad);
      ASSERT_EQ(findings.size(), 1u) << path << ": " << bad;
      EXPECT_EQ(findings[0].rule, "score-dot");
    }
  }
  // Bounds, norms, hashing and theory code keep the split dot; the
  // chain kernels, a comment and a justified allow are fine.
  EXPECT_TRUE(RunLint("src/tree/mips_tree.cc", wrapper).empty());
  EXPECT_TRUE(RunLint("src/lsh/e2lsh.cc", wrapper).empty());
  EXPECT_TRUE(RunLint("src/linalg/kernels.cc", table).empty());
  EXPECT_TRUE(RunLint("src/core/f.cc",
                      "  const double s = kernels::Score(x, q);\n")
                  .empty());
  EXPECT_TRUE(RunLint("src/core/f.cc", "  // kernels::Dot(x, q) splits\n")
                  .empty());
  EXPECT_TRUE(RunLint("src/core/f.cc",
                      "  b = kernels::Dot(c, q);  "
                      "// ipslint:allow(score-dot) -- a bound\n")
                  .empty());
}

TEST(Lint, VariantFactFiresOutsideThePlannerTable) {
  // The serve layer's old can-miss test and forced-tree rejection each
  // restated a fact of a planner row.
  const std::string can_miss =
      "  return plan.precision != QueryPrecision::kExact ||\n"
      "         plan.algorithm == QueryAlgo::kLsh ||\n"
      "         QueryAlgo::kSketch == plan.algorithm;\n";
  const std::string forced_tree =
      "      if (forced == QueryAlgo::kBallTree && !options.is_signed) {\n";
  const auto findings = RunLint("src/serve/engine.cc", can_miss + forced_tree);
  ASSERT_EQ(findings.size(), 4u);
  for (const LintFinding& finding : findings) {
    EXPECT_EQ(finding.rule, "variant-fact");
  }
  EXPECT_EQ(
      RunLint("src/serve/sharded_engine.cc",
              "  if (q.precision == QueryPrecision::kQuantizedRerank) {\n")
          .size(),
      1u);
  // The table itself, the rest of the tree, kAuto (the request's own
  // "let the planner decide") and assignments are fine.
  EXPECT_TRUE(RunLint("src/serve/planner.cc", can_miss + forced_tree).empty());
  EXPECT_TRUE(RunLint("src/core/mips_index.cc", can_miss).empty());
  EXPECT_TRUE(RunLint("src/serve/engine.cc",
                      "  if (options.precision != QueryPrecision::kAuto) {\n"
                      "  plan.algorithm = QueryAlgo::kLsh;\n")
                  .empty());
}

TEST(Lint, ServeEnvelopeFiresOutsideTheEnvelope) {
  // Each engine entry point used to create and publish its own trace.
  const std::string start =
      "  if (options.trace) trace = std::make_unique<Trace>(\"serve\");\n";
  const std::string publish = "  TraceRing::Global().Record(shared);\n";
  const std::string shared =
      "  auto t = std::make_shared<Trace>(\"serve.sharded\");\n";
  for (const char* path :
       {"src/serve/engine.cc", "src/serve/sharded_engine.cc",
        "src/serve/batch_scheduler.cc"}) {
    const auto findings = RunLint(path, start + publish + shared);
    ASSERT_EQ(findings.size(), 3u) << path;
    for (const LintFinding& finding : findings) {
      EXPECT_EQ(finding.rule, "serve-envelope");
    }
  }
  // The envelope itself, and traces outside the serve layer (an index's
  // own per-query trace), are fine.
  EXPECT_TRUE(RunLint("src/serve/envelope.cc", start + publish).empty());
  EXPECT_TRUE(RunLint("src/serve/envelope.h", start).empty());
  EXPECT_TRUE(RunLint("src/core/mips_index.h",
                      "      owned = std::make_unique<Trace>(Name());\n")
                  .empty());
}

TEST(Lint, FindingFormatIsFileLineRuleMessage) {
  const auto findings = RunLint("src/a.cc", "std::cout << 1;\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string formatted = FormatFinding(findings[0]);
  EXPECT_NE(formatted.find("src/a.cc:1: [stdout-in-lib]"), std::string::npos);
  EXPECT_NE(formatted.find("std::cout << 1;"), std::string::npos);
}

TEST(Lint, RealRuleTableParses) {
  // Guard the checked-in table itself: fifteen rules, all regexes valid.
  const auto rules =
      LoadRules(std::string(IPS_REPO_ROOT) + "/tools/ipslint.rules");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->size(), 15u);
}

TEST(SplitCodeAndComments, TracksMultiLineConstructs) {
  std::vector<std::string> code;
  std::vector<std::string> comments;
  internal::SplitCodeAndComments(
      "int a; /* span\nstill comment */ int b; // tail\n", &code, &comments);
  ASSERT_EQ(code.size(), 2u);
  EXPECT_NE(code[0].find("int a;"), std::string::npos);
  EXPECT_EQ(code[0].find("span"), std::string::npos);
  EXPECT_NE(code[1].find("int b;"), std::string::npos);
  EXPECT_EQ(code[1].find("tail"), std::string::npos);
  EXPECT_NE(comments[0].find("span"), std::string::npos);
  EXPECT_NE(comments[1].find("tail"), std::string::npos);
}

TEST(SplitCodeAndComments, StringsChannelIsColumnAligned) {
  // The whole-program passes read literals (#include paths, failpoint
  // names) by merging the code line with its column-aligned string
  // contents.
  std::vector<std::string> code;
  std::vector<std::string> comments;
  std::vector<std::string> strings;
  internal::SplitCodeAndComments("IPS_FAILPOINT(\"io/read\");  // x\n", &code,
                                 &comments, &strings);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_NE(strings[0].find("io/read"), std::string::npos);
  EXPECT_EQ(code[0].find("io/read"), std::string::npos);
  const std::string merged =
      internal::MergeCodeAndStrings(code[0], strings[0]);
  // Merged text keeps the call shape with the literal readable inside.
  EXPECT_NE(merged.find("IPS_FAILPOINT"), std::string::npos);
  EXPECT_NE(merged.find("io/read"), std::string::npos);
}

TEST(ParseRules, RejectsReservedPassNames) {
  for (const std::string_view name :
       {kLayeringRule, kLockOrderRule, kFailpointCoverageRule}) {
    EXPECT_TRUE(IsBuiltinRule(name));
    const auto rules = ParseRules(Row(std::string(name), "-", "-", "a", "m"));
    ASSERT_FALSE(rules.ok());
    EXPECT_NE(rules.status().message().find("reserved"), std::string::npos);
  }
}

TEST(Lint, AllowCommentNamingAPassIsNotStale) {
  // `ipslint:allow(lock-order)` names a built-in pass, not a table rule;
  // the stale-allow check must know the pass names.
  EXPECT_TRUE(
      RunLint("src/a.cc", "int x;  // ipslint:allow(lock-order)\n").empty());
}

// --- Layering -------------------------------------------------------------

TEST(LayerTable, ParsesAndClosesTransitively) {
  const auto table = ParseLayerTable("util\t-\nrng\tutil\nlinalg\trng\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->order, (std::vector<std::string>{"util", "rng", "linalg"}));
  EXPECT_TRUE(table->closure.at("linalg").count("util"));  // via rng
  EXPECT_FALSE(table->closure.at("util").count("rng"));
}

TEST(LayerTable, RejectsForwardReferenceSoCyclesCannotBeDeclared) {
  // A dependency cycle would need at least one forward reference, which
  // the topological-order rule rejects.
  const auto table = ParseLayerTable("util\trng\nrng\tutil\n");
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("not declared above"),
            std::string::npos);
  EXPECT_FALSE(ParseLayerTable("util\tutil\n").ok());       // self-dep
  EXPECT_FALSE(ParseLayerTable("util\t-\nutil\t-\n").ok()); // duplicate
  EXPECT_FALSE(ParseLayerTable("util -\n").ok());           // no TAB
}

TEST(Layering, PlantedBackEdgeIsReportedAsCycle) {
  const auto table = ParseLayerTable("util\t-\nobs\tutil\n");
  ASSERT_TRUE(table.ok());
  const std::vector<SourceFile> files = {
      {"src/util/check.h", "#include \"obs/metrics.h\"\n"},
      {"src/obs/metrics.h", "#include \"util/check.h\"\n"},  // legal
  };
  const auto report = AnalyzeLayering(*table, files);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/util/check.h");
  EXPECT_EQ(report.findings[0].line, 1u);
  EXPECT_EQ(report.findings[0].rule, kLayeringRule);
  EXPECT_NE(report.findings[0].message.find("cycle"), std::string::npos);
  EXPECT_EQ(report.files_checked, 2u);
}

TEST(Layering, UndeclaredDependencyIsReportedAsMissingDeclaration) {
  const auto table = ParseLayerTable("util\t-\nrng\tutil\nobs\tutil\n");
  ASSERT_TRUE(table.ok());
  // rng -> obs is no cycle (obs does not depend on rng), just undeclared.
  const std::vector<SourceFile> files = {
      {"src/rng/random.cc", "#include \"obs/metrics.h\"\n"},
  };
  const auto report = AnalyzeLayering(*table, files);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("undeclared"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("rng -> obs"), std::string::npos);
}

TEST(Layering, AllowCommentAndNonLayerIncludesAreQuiet) {
  const auto table = ParseLayerTable("util\t-\nobs\tutil\n");
  ASSERT_TRUE(table.ok());
  const std::vector<SourceFile> files = {
      {"src/util/check.h",
       "#include <vector>\n"
       "#include \"gtest/gtest.h\"\n"
       "#include \"obs/metrics.h\"  // ipslint:allow(layering)\n"},
  };
  const auto report = AnalyzeLayering(*table, files);
  EXPECT_TRUE(report.findings.empty());
}

// --- Lock order -----------------------------------------------------------

constexpr const char* kTwoMutexStruct =
    "struct S {\n"
    "  Mutex a;\n"
    "  Mutex b;\n"
    "};\n";

TEST(LockOrder, PlantedAbBaCycleIsAPotentialDeadlock) {
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s) {\n"
       "  MutexLock la(s.a);\n"
       "  MutexLock lb(s.b);\n"
       "}\n"
       "void G(S& s) {\n"
       "  MutexLock lb(s.b);\n"
       "  MutexLock la(s.a);\n"
       "}\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, kLockOrderRule);
  EXPECT_NE(report.findings[0].message.find("S::a -> S::b"),
            std::string::npos);
  EXPECT_NE(report.findings[0].message.find("S::b -> S::a"),
            std::string::npos);
  EXPECT_EQ(report.edges, 2u);
}

TEST(LockOrder, ConsistentNestingIsClean) {
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s) { MutexLock la(s.a); MutexLock lb(s.b); }\n"
       "void G(S& s) { MutexLock la(s.a); MutexLock lb(s.b); }\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.edges, 1u);  // a -> b, observed twice
}

TEST(LockOrder, ObservedNestingContradictingDeclaredOrderIsACycle) {
  const std::vector<SourceFile> files = {
      {"src/x/c.h",
       "class C {\n"
       "  Mutex a_ IPS_ACQUIRED_BEFORE(b_);\n"
       "  Mutex b_;\n"
       "};\n"},
      {"src/x/c.cc",
       "void C::F() {\n"
       "  MutexLock lb(b_);\n"
       "  MutexLock la(a_);\n"
       "}\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("C::a_"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("C::b_"), std::string::npos);
}

TEST(LockOrder, AcquiredAfterDeclaresTheReverseEdge) {
  // BEFORE on one member and AFTER on the other describe the same
  // order; saying both is consistent, not a cycle.
  const std::vector<SourceFile> files = {
      {"src/x/c.h",
       "class C {\n"
       "  Mutex a_ IPS_ACQUIRED_BEFORE(b_);\n"
       "  Mutex b_ IPS_ACQUIRED_AFTER(a_);\n"
       "};\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.edges, 1u);
}

TEST(LockOrder, SelfNestingIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s, S& t) {\n"
       "  MutexLock ls(s.a);\n"
       "  MutexLock lt(t.a);\n"
       "}\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("already"), std::string::npos);
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(LockOrder, LambdaBodiesAreBarriers) {
  // The callback runs later, not under the enclosing lock: no a -> b
  // edge, so the observed b -> a order stands alone and is clean.
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s) {\n"
       "  MutexLock la(s.a);\n"
       "  auto cb = [&s] {\n"
       "    MutexLock lb(s.b);\n"
       "  };\n"
       "  use(cb);\n"
       "}\n"
       "void G(S& s) { MutexLock lb(s.b); MutexLock la(s.a); }\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  EXPECT_TRUE(report.findings.empty());
}

TEST(LockOrder, AllowCommentSuppressesTheEdge) {
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s) { MutexLock la(s.a); MutexLock lb(s.b); }\n"
       "void G(S& s) {\n"
       "  MutexLock lb(s.b);\n"
       "  MutexLock la(s.a);  // ipslint:allow(lock-order)\n"
       "}\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  EXPECT_TRUE(report.findings.empty());
}

TEST(LockOrder, ScopeExitReleasesBeforeTheNextAcquisition) {
  // Sequential (not nested) critical sections impose no order.
  const std::vector<SourceFile> files = {
      {"src/x/s.h", kTwoMutexStruct},
      {"src/x/f.cc",
       "void F(S& s) {\n"
       "  { MutexLock la(s.a); }\n"
       "  MutexLock lb(s.b);\n"
       "}\n"
       "void G(S& s) {\n"
       "  { MutexLock lb(s.b); }\n"
       "  MutexLock la(s.a);\n"
       "}\n"},
  };
  const auto report = AnalyzeLockOrder(files);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.edges, 0u);
}

// --- Failpoint coverage ---------------------------------------------------

TEST(FailpointCoverage, UnarmedSiteIsReported) {
  const std::vector<SourceFile> src = {
      {"src/io/f.cc",
       "Status F() {\n"
       "  IPS_FAILPOINT(\"io/read\");\n"
       "  IPS_FAILPOINT(\"io/rot\");\n"
       "  return Status::Ok();\n"
       "}\n"}};
  const std::vector<SourceFile> chaos = {
      {"tests/chaos_test.cc", "ScopedFailpoint fp(\"io/read\");\n"}};
  const auto report = AnalyzeFailpointCoverage(src, chaos);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, kFailpointCoverageRule);
  EXPECT_NE(report.findings[0].message.find("io/rot"), std::string::npos);
  EXPECT_EQ(report.findings[0].line, 3u);
  EXPECT_EQ(report.sites, 2u);
  EXPECT_EQ(report.armed, 1u);
}

TEST(FailpointCoverage, ScopedVariantArmsTheBaseSite) {
  // Arming "serve/shard/query/1" exercises the "serve/shard/query"
  // site (the per-shard helper hits base then scoped names).
  const std::vector<SourceFile> src = {
      {"src/serve/f.cc",
       "  IPS_RETURN_IF_ERROR(HitShardSite(\"serve/shard/query\", i));\n"}};
  const std::vector<SourceFile> chaos = {
      {"tests/chaos_test.cc",
       "Failpoints::Arm(\"serve/shard/query/1\", status, FireEvery{1});\n"}};
  const auto report = AnalyzeFailpointCoverage(src, chaos);
  EXPECT_TRUE(report.findings.empty());
}

TEST(FailpointCoverage, DynamicSitesAreCountedNotFlagged) {
  const std::vector<SourceFile> src = {
      {"src/util/f.cc", "  IPS_RETURN_IF_ERROR(Failpoints::Hit(name));\n"}};
  const auto report = AnalyzeFailpointCoverage(src, {});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.dynamic_sites, 1u);
  EXPECT_EQ(report.sites, 0u);
}

TEST(FailpointCoverage, AllowCommentSuppressesTheSite) {
  const std::vector<SourceFile> src = {
      {"src/io/f.cc",
       "  IPS_FAILPOINT(\"io/unreachable\");"
       "  // ipslint:allow(failpoint-coverage)\n"}};
  const auto report = AnalyzeFailpointCoverage(src, {});
  EXPECT_TRUE(report.findings.empty());
}

// --- Tree-wide: the analyzer is clean on HEAD -----------------------------

/// Loads the real checkout with repo-relative paths, so rule prefixes
/// and the src/<layer>/ convention line up exactly as in the CLI run.
std::vector<SourceFile> LoadRepoTree(const std::vector<std::string>& dirs) {
  std::vector<std::string> roots;
  for (const std::string& dir : dirs) {
    roots.push_back(std::string(IPS_REPO_ROOT) + "/" + dir);
  }
  auto files = LoadSourceTree(roots);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  const std::string prefix = std::string(IPS_REPO_ROOT) + "/";
  for (SourceFile& file : *files) {
    EXPECT_EQ(file.path.rfind(prefix, 0), 0u) << file.path;
    file.path = file.path.substr(prefix.size());
  }
  return *std::move(files);
}

TEST(TreeWide, AnalyzerIsCleanOnHead) {
  const std::vector<SourceFile> tree =
      LoadRepoTree({"src", "tests", "examples", "bench", "tools"});
  ASSERT_GT(tree.size(), 100u);  // really scanned the checkout

  // Rules (incl. stale-allow): every allow-comment names a live rule.
  const auto rules =
      LoadRules(std::string(IPS_REPO_ROOT) + "/tools/ipslint.rules");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  for (const auto& finding : LintFiles(*rules, tree)) {
    ADD_FAILURE() << FormatFinding(finding);
  }

  // Layering: the checked-in table covers every src/ layer and edge.
  const auto table =
      LoadLayerTable(std::string(IPS_REPO_ROOT) + "/tools/ipslint.layers");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const auto layering = AnalyzeLayering(*table, tree);
  for (const auto& finding : layering.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_GT(layering.files_checked, 50u);
  EXPECT_GT(layering.edges_checked, 100u);

  // Lock order: declared + observed edges stay acyclic.
  const auto locks = AnalyzeLockOrder(tree);
  for (const auto& finding : locks.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_GE(locks.locks, 5u);
  EXPECT_GE(locks.edges, 4u);

  // Failpoint coverage: every literal site is armed by the chaos suite.
  const std::vector<SourceFile> chaos = LoadRepoTree({"tests/chaos_test.cc"});
  const auto coverage = AnalyzeFailpointCoverage(tree, chaos);
  for (const auto& finding : coverage.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_GT(coverage.sites, 20u);
}

}  // namespace
}  // namespace lint
}  // namespace ips
