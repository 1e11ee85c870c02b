/**
 * @file
 * Tests for Matrix Market I/O (the path for running the models on the
 * real Table 4 matrices when available).
 */
#include <gtest/gtest.h>

#include <string>

#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "workloads/mtx.hpp"
#include "workloads/datasets.hpp"

#include "support.hpp"

namespace teaal::workloads
{
namespace
{

TEST(MatrixMarket, ParseGeneralReal)
{
    const char* text = "%%MatrixMarket matrix coordinate real general\n"
                       "% a comment\n"
                       "3 4 3\n"
                       "1 1 2.5\n"
                       "2 3 -1.0\n"
                       "3 4 7\n";
    const auto t = parseMatrixMarket(text, "A");
    EXPECT_EQ(t.rank(0).shape, 3);
    EXPECT_EQ(t.rank(1).shape, 4);
    EXPECT_EQ(t.nnz(), 3u);
    const std::vector<ft::Coord> p{1, 2};
    EXPECT_DOUBLE_EQ(t.at(p), -1.0);
}

TEST(MatrixMarket, PatternGetsUnitValues)
{
    const char* text =
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n";
    const auto t = parseMatrixMarket(text, "A");
    const std::vector<ft::Coord> p{0, 1};
    EXPECT_DOUBLE_EQ(t.at(p), 1.0);
    EXPECT_EQ(t.nnz(), 2u);
}

TEST(MatrixMarket, SymmetricExpands)
{
    const char* text =
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 1.5\n";
    const auto t = parseMatrixMarket(text, "A");
    EXPECT_EQ(t.nnz(), 3u); // off-diagonal mirrored, diagonal not
    const std::vector<ft::Coord> a{1, 0}, b{0, 1};
    EXPECT_DOUBLE_EQ(t.at(a), 5.0);
    EXPECT_DOUBLE_EQ(t.at(b), 5.0);
}

TEST(MatrixMarket, RejectsBadInput)
{
    EXPECT_THROW(parseMatrixMarket("", "A"), SpecError);
    EXPECT_THROW(parseMatrixMarket("%%MatrixMarket matrix array\n1 1\n",
                                   "A"),
                 SpecError);
    EXPECT_THROW(parseMatrixMarket(
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n"
                     "5 1 1.0\n",
                     "A"),
                 SpecError);
    EXPECT_THROW(parseMatrixMarket(
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n"
                     "1 1 1.0\n",
                     "A"),
                 SpecError);
}

/**
 * Table-driven hardening pass: every class of malformed input —
 * truncation, non-numeric fields, out-of-range indices, duplicate
 * entries, bad field counts — must surface as a structured
 * DiagnosticError (section "workload", key "mtx") with a diagnosable
 * message, from BOTH the pointer and the packed parser, and never
 * crash.
 */
TEST(MatrixMarket, MalformedInputsAreStructuredDiagnostics)
{
    struct Case
    {
        const char* what;
        const char* text;
        const char* expect; ///< required message fragment
    };
    const Case cases[] = {
        {"truncated entry stream",
         "%%MatrixMarket matrix coordinate real general\n"
         "3 3 5\n"
         "1 1 1.0\n",
         "truncated"},
        {"ends before the size line",
         "%%MatrixMarket matrix coordinate real general\n"
         "% only comments\n",
         "ends before the size line"},
        {"size line with two fields",
         "%%MatrixMarket matrix coordinate real general\n"
         "3 3\n",
         "bad size line"},
        {"non-numeric size field",
         "%%MatrixMarket matrix coordinate real general\n"
         "3 x 1\n"
         "1 1 1.0\n",
         "non-numeric"},
        {"negative dimension",
         "%%MatrixMarket matrix coordinate real general\n"
         "-3 3 1\n"
         "1 1 1.0\n",
         "negative dimension"},
        {"non-numeric row index",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "1x 1 1.0\n",
         "non-numeric row index"},
        {"non-numeric value",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "1 1 abc\n",
         "non-numeric value"},
        {"partially numeric value",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "1 1 1.5x\n",
         "non-numeric value"},
        {"row index past the declared shape",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "5 1 1.0\n",
         "out of range"},
        {"zero index (MatrixMarket is 1-based)",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "0 1 1.0\n",
         "out of range"},
        {"real entry missing its value",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n"
         "1 1\n",
         "bad entry"},
        {"pattern entry with a value",
         "%%MatrixMarket matrix coordinate pattern general\n"
         "2 2 1\n"
         "1 1 1.0\n",
         "bad entry"},
        {"duplicate coordinates",
         "%%MatrixMarket matrix coordinate real general\n"
         "2 2 2\n"
         "1 1 1.0\n"
         "1 1 2.0\n",
         "duplicate"},
        {"duplicate via symmetric mirroring",
         "%%MatrixMarket matrix coordinate real symmetric\n"
         "2 2 2\n"
         "2 1 5.0\n"
         "1 2 3.0\n",
         "duplicate"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.what);
        for (const bool packed : {false, true}) {
            SCOPED_TRACE(packed ? "packed parser" : "pointer parser");
            try {
                if (packed)
                    parseMatrixMarketPacked(c.text, "A");
                else
                    parseMatrixMarket(c.text, "A");
                FAIL() << "expected DiagnosticError";
            } catch (const DiagnosticError& e) {
                EXPECT_EQ(e.diagnostic().section, "workload");
                EXPECT_EQ(e.diagnostic().key, "mtx");
                EXPECT_NE(e.diagnostic().message.find(c.expect),
                          std::string::npos)
                    << e.diagnostic().message;
            }
        }
    }
}

/** Entry-level diagnostics name the offending line number. */
TEST(MatrixMarket, DiagnosticsCarryLineNumbers)
{
    try {
        parseMatrixMarket("%%MatrixMarket matrix coordinate real "
                          "general\n"
                          "% comment\n"
                          "2 2 1\n"
                          "1 1 bogus\n",
                          "A");
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_NE(e.diagnostic().message.find("line 4"),
                  std::string::npos)
            << e.diagnostic().message;
    }
}

TEST(MatrixMarket, RoundTripThroughText)
{
    const auto t = uniformMatrix("A", 30, 20, 80, 9);
    const auto again = parseMatrixMarket(renderMatrixMarket(t), "A");
    EXPECT_TRUE(again.equals(t, 1e-9));
}

TEST(MatrixMarket, RoundTripThroughFile)
{
    const auto t = uniformMatrix("A", 16, 16, 40, 10);
    const test::TempDir dir;
    const std::string path = dir.path("a.mtx");
    writeMatrixMarket(path, t);
    const auto again = readMatrixMarket(path, "A", {"K", "M"});
    EXPECT_TRUE(again.equals(t, 1e-9));
    EXPECT_THROW(readMatrixMarket("/nonexistent/file.mtx", "A"),
                 SpecError);
}

TEST(MatrixMarketPacked, StreamsIntoPackedCsrWithoutFibers)
{
    const auto t = uniformMatrix("A", 40, 30, 200, 11);
    const std::string text = renderMatrixMarket(t);

    const std::uint64_t fibers_before = ft::Fiber::constructionCount();
    const auto packed = parseMatrixMarketPacked(text, "A");
    // The streaming path builds packed buffers only — not one pointer
    // fiber, regardless of matrix size.
    EXPECT_EQ(ft::Fiber::constructionCount() - fibers_before, 0u);

    EXPECT_EQ(packed.nnz(), t.nnz());
    EXPECT_TRUE(packed.toTensor().equals(t, 1e-9));
    EXPECT_EQ(packed.rankIds(), t.rankIds());
}

TEST(MatrixMarketPacked, MatchesLegacyParserOnEveryVariant)
{
    const char* cases[] = {
        "%%MatrixMarket matrix coordinate real general\n"
        "3 4 3\n"
        "1 1 2.5\n"
        "2 3 -1.0\n"
        "3 4 7\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 1.5\n",
    };
    for (const char* text : cases) {
        const auto legacy = parseMatrixMarket(text, "A");
        const auto packed = parseMatrixMarketPacked(text, "A");
        EXPECT_TRUE(packed.toTensor().equals(legacy, 1e-12)) << text;
        EXPECT_EQ(packed.nnz(), legacy.nnz()) << text;
    }
}

TEST(MatrixMarketPacked, CarriesTheRequestedFormat)
{
    fmt::TensorFormat tf;
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    tf.ranks["K"] = u;
    const char* text = "%%MatrixMarket matrix coordinate real general\n"
                       "3 4 2\n"
                       "1 1 1.0\n"
                       "3 4 2.0\n";
    const auto packed = parseMatrixMarketPacked(text, "A", {"K", "M"}, tf);
    EXPECT_EQ(packed.levelType(0), fmt::RankFormat::Type::U);
    EXPECT_EQ(packed.levelType(1), fmt::RankFormat::Type::C);
}

TEST(MatrixMarketPacked, ReadsFromFile)
{
    const auto t = uniformMatrix("A", 16, 16, 40, 12);
    const test::TempDir dir;
    const std::string path = dir.path("a.mtx");
    writeMatrixMarket(path, t);
    const auto packed = readMatrixMarketPacked(path, "A", {"K", "M"});
    EXPECT_TRUE(packed.toTensor().equals(t, 1e-9));
    EXPECT_THROW(readMatrixMarketPacked("/nonexistent/file.mtx", "A"),
                 SpecError);
}

} // namespace
} // namespace teaal::workloads
