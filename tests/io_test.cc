// Tests for CSV matrix I/O (core/io.h) and edge-case robustness of the
// core indexes at degenerate sizes.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "core/dataset.h"
#include "core/io.h"
#include "core/mips_index.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "rng/random.h"
#include "sketch/sketch_mips.h"
#include "tree/mips_tree.h"

namespace ips {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CsvParseTest, BasicMatrix) {
  const auto result = ParseMatrixCsv("1,2,3\n4,5,6\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 2u);
  EXPECT_EQ(result->cols(), 3u);
  EXPECT_DOUBLE_EQ(result->At(1, 2), 6.0);
}

TEST(CsvParseTest, CommentsAndBlanksSkipped) {
  const auto result = ParseMatrixCsv("# header\n\n1.5,-2\n\n# tail\n3,4\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 2u);
  EXPECT_DOUBLE_EQ(result->At(0, 1), -2.0);
}

TEST(CsvParseTest, WindowsLineEndings) {
  const auto result = ParseMatrixCsv("1,2\r\n3,4\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(1, 0), 3.0);
}

TEST(CsvParseTest, ScientificNotation) {
  const auto result = ParseMatrixCsv("1e-3,2.5E+2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 0), 1e-3);
  EXPECT_DOUBLE_EQ(result->At(0, 1), 250.0);
}

TEST(CsvParseTest, RaggedRowsRejected) {
  const auto result = ParseMatrixCsv("1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ragged"), std::string::npos);
}

TEST(CsvParseTest, BadNumberRejected) {
  const auto result = ParseMatrixCsv("1,abc\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("abc"), std::string::npos);
}

TEST(CsvParseTest, NonFiniteValuesRejectedWithPosition) {
  for (const char* cell : {"nan", "NaN", "inf", "-inf", "INF", "1e999",
                           "-1e999"}) {
    const auto result = ParseMatrixCsv(std::string("1,2\n3,") + cell + "\n");
    ASSERT_FALSE(result.ok()) << cell;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << cell;
    // The message names the offending line and column.
    EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("column 2"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(CsvParseTest, PlusPrefixedCellsParse) {
  const auto result = ParseMatrixCsv("+1.5,+2e1\n+0,3\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(result->At(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(result->At(1, 0), 0.0);
}

TEST(CsvParseTest, SubnormalUnderflowIsAccepted) {
  // strtod flags 1e-320 with ERANGE on some libcs, but a subnormal is a
  // legitimate finite value and must load.
  const auto result = ParseMatrixCsv("1e-320,2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->At(0, 0), 0.0);
}

TEST(CsvFileTest, SavedNonFiniteMatrixFailsToReloadCleanly) {
  // A matrix poisoned with NaN/inf round-trips into a load *error* (not
  // an abort, not a silent NaN in the index): the writer is permissive,
  // the loader is the validation gate.
  Matrix poisoned(2, 2);
  poisoned.At(0, 1) = std::numeric_limits<double>::quiet_NaN();
  poisoned.At(1, 0) = std::numeric_limits<double>::infinity();
  const std::string path = TempPath("poisoned.csv");
  IPS_CHECK_OK(SaveMatrixCsv(path, poisoned));
  const auto loaded = LoadMatrixCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("column 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvParseTest, EmptyCellRejected) {
  EXPECT_FALSE(ParseMatrixCsv("1,,3\n").ok());
  EXPECT_FALSE(ParseMatrixCsv("1,2,\n").ok());
}

TEST(CsvParseTest, EmptyInputRejected) {
  EXPECT_FALSE(ParseMatrixCsv("").ok());
  EXPECT_FALSE(ParseMatrixCsv("# only a comment\n").ok());
}

TEST(CsvFileTest, SaveLoadRoundTrip) {
  Rng rng(3);
  const Matrix original = MakeUnitBallGaussian(17, 5, 0.2, &rng);
  const std::string path = TempPath("roundtrip.csv");
  IPS_CHECK_OK(SaveMatrixCsv(path, original));
  const auto loaded = LoadMatrixCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->rows(), original.rows());
  ASSERT_EQ(loaded->cols(), original.cols());
  for (std::size_t i = 0; i < original.rows(); ++i) {
    for (std::size_t j = 0; j < original.cols(); ++j) {
      EXPECT_DOUBLE_EQ(loaded->At(i, j), original.At(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  const auto result = LoadMatrixCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CsvParseTest, LoadReservesExactCapacityUpFront) {
  // The two-pass loader counts rows/cols in bounded chunks and reserves
  // the exact payload once, so loading never pays the vector-doubling
  // ~2x RSS spike. Exact capacity == size is the observable proof the
  // pre-count matched the parse (growth would overshoot capacity).
  std::string csv = "# synthetic\n";
  for (int i = 0; i < 500; ++i) {
    csv += "1,2,3,4,5,6,7\n";
  }
  const auto result = ParseMatrixCsv(csv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 500u);
  EXPECT_EQ(result->cols(), 7u);
  EXPECT_EQ(result->data().capacity(), 500u * 7u);
}

TEST(CsvParseTest, ShapeCountAgreesWithParseOnMessyInput) {
  // The pre-count must agree with the parser on every skip rule —
  // comments, blank lines, CRLF blanks, and a missing final newline —
  // or the exact-reserve would be wrong (caught here as capacity
  // overshoot or a parse mismatch).
  const std::string csv =
      "# comment\r\n\r\n1,2\n\n3,4\r\n# mid comment\n5,6\n\n7,8";
  const auto result = ParseMatrixCsv(csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows(), 4u);
  EXPECT_EQ(result->cols(), 2u);
  EXPECT_DOUBLE_EQ(result->At(3, 1), 8.0);
  EXPECT_EQ(result->data().capacity(), 8u);
}

TEST(CsvParseTest, InputLargerThanOneCountingChunkParses) {
  // Spans several 256 KiB counting chunks so the chunked line scan
  // exercises lines straddling chunk boundaries.
  std::string csv;
  const std::size_t rows = 40000;  // ~680 KiB of text
  csv.reserve(rows * 18);
  for (std::size_t i = 0; i < rows; ++i) {
    csv += std::to_string(i % 97);
    csv += ",1.5,-2.25\n";
  }
  const auto result = ParseMatrixCsv(csv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), rows);
  EXPECT_EQ(result->cols(), 3u);
  EXPECT_EQ(result->data().capacity(), rows * 3u);
  EXPECT_DOUBLE_EQ(result->At(rows - 1, 0),
                   static_cast<double>((rows - 1) % 97));
}

// --- Degenerate-size robustness of the engines ---

TEST(EdgeCaseTest, SinglePointIndexes) {
  Rng rng(7);
  Matrix data(1, 3);
  data.At(0, 0) = 0.5;
  JoinSpec spec;
  spec.s = 0.1;
  spec.c = 0.5;
  spec.is_signed = true;
  std::vector<double> q = {1.0, 0.0, 0.0};

  const QueryOptions top1;  // k = 1, signed

  const BruteForceIndex brute(data);
  const auto brute_top = brute.Query(q, top1);
  ASSERT_TRUE(brute_top.ok());
  ASSERT_EQ(brute_top->size(), 1u);
  EXPECT_GE((*brute_top)[0].value, spec.cs());

  const TreeMipsIndex tree(data, 4, &rng);
  const auto tree_top = tree.Query(q, top1);
  ASSERT_TRUE(tree_top.ok());
  ASSERT_EQ(tree_top->size(), 1u);
  EXPECT_GE((*tree_top)[0].value, spec.cs());

  SketchMipsParams sketch_params;
  const SketchMipsIndex sketch(data, sketch_params, &rng);
  EXPECT_EQ(sketch.RecoverArgmax(q), 0u);
}

TEST(EdgeCaseTest, OneDimensionalVectors) {
  Rng rng(11);
  Matrix data(10, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    data.At(i, 0) = 0.1 * static_cast<double>(i + 1) - 0.5;
  }
  const MipsBallTree tree(data, 2, &rng);
  std::vector<double> q = {1.0};
  EXPECT_DOUBLE_EQ(tree.QueryTopK(q, 1, /*is_signed=*/true)[0].value, 0.5);
  // |-0.4| < 0.5
  EXPECT_DOUBLE_EQ(tree.QueryTopK(q, 1, /*is_signed=*/false)[0].value, 0.5);
}

TEST(EdgeCaseTest, ZeroQueryVector) {
  Rng rng(13);
  const Matrix data = MakeUnitBallGaussian(20, 4, 0.5, &rng);
  const BruteForceIndex brute(data);
  JoinSpec spec;
  spec.s = 0.1;
  spec.c = 0.5;
  spec.is_signed = true;
  const std::vector<double> zero(4, 0.0);
  // Every inner product is 0 < cs: no match.
  const auto top = brute.Query(zero, QueryOptions{});
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_LT((*top)[0].value, spec.cs());
}

TEST(EdgeCaseTest, LshTablesWithSingleFunctionAndTable) {
  Rng rng(17);
  const Matrix data = MakeUnitBallGaussian(30, 6, 0.5, &rng);
  const SimHashFamily family(6);
  LshTableParams params;
  params.k = 1;
  params.l = 1;
  const LshTables tables(family, data, params, &rng);
  // A single sign bit splits the data in two: querying a data point
  // returns its half (which contains it).
  const auto candidates = tables.Query(data.Row(3));
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 3u),
            candidates.end());
  EXPECT_LT(candidates.size(), 30u);
}

}  // namespace
}  // namespace ips
