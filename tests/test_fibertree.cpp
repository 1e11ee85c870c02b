/**
 * @file
 * Unit and property tests for the fibertree substrate: fibers, tensors,
 * co-iteration, and the content-preserving transformations of paper
 * §2.1/§3.2 (swizzle, flatten, shape/occupancy partitioning).
 */
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>

#include "fibertree/coiter.hpp"
#include "fibertree/tensor.hpp"
#include "fibertree/transform.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace teaal::ft
{
namespace
{

/// The matrix A from paper Figure 1: rank order [M, K], shape 3x4.
///   A[0,2]=1, A[2,0]=3, A[2,1]=4, A[2,2]=2  (values arbitrary here)
Tensor
paperMatrixA()
{
    return Tensor::fromCoo("A", {"M", "K"}, {3, 4},
                           {{{0, 2}, 1.0},
                            {{2, 0}, 3.0},
                            {{2, 1}, 4.0},
                            {{2, 2}, 2.0}});
}

TEST(Fiber, AppendAndLookup)
{
    Fiber f(10);
    f.append(1, Payload(1.5));
    f.append(4, Payload(2.5));
    f.append(9, Payload(3.5));
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.coordAt(1), 4);
    ASSERT_TRUE(f.find(4).has_value());
    EXPECT_EQ(*f.find(4), 1u);
    EXPECT_FALSE(f.find(5).has_value());
    EXPECT_EQ(f.lowerBound(5), 2u);
    EXPECT_EQ(f.lowerBound(0), 0u);
    EXPECT_EQ(f.lowerBound(100), 3u);
}

TEST(Fiber, AppendOutOfOrderThrows)
{
    Fiber f(10);
    f.append(5, Payload(1.0));
    EXPECT_THROW(f.append(5, Payload(2.0)), ModelError);
    EXPECT_THROW(f.append(3, Payload(2.0)), ModelError);
}

TEST(Fiber, GetOrInsertMaintainsSortedOrder)
{
    Fiber f(10);
    f.getOrInsert(5).setValue(1);
    f.getOrInsert(2).setValue(2);
    f.getOrInsert(8).setValue(3);
    f.getOrInsert(5).setValue(4); // overwrite
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f.coordAt(0), 2);
    EXPECT_EQ(f.coordAt(1), 5);
    EXPECT_EQ(f.coordAt(2), 8);
    EXPECT_DOUBLE_EQ(f.payloadAt(1).value(), 4);
}

TEST(Fiber, FromUnsortedSortsAndRejectsDuplicates)
{
    auto f = Fiber::fromUnsorted(
        {{5, Payload(1.0)}, {1, Payload(2.0)}, {3, Payload(3.0)}}, 10);
    EXPECT_EQ(f->coordAt(0), 1);
    EXPECT_EQ(f->coordAt(2), 5);
    EXPECT_THROW(
        Fiber::fromUnsorted({{1, Payload(1.0)}, {1, Payload(2.0)}}, 10),
        ModelError);
}

TEST(Payload, EmptyClassification)
{
    EXPECT_TRUE(Payload().empty());
    EXPECT_FALSE(Payload(1.0).empty());
    EXPECT_TRUE(Payload(FiberPtr()).empty());
    EXPECT_TRUE(Payload(std::make_shared<Fiber>(4)).empty());
    auto f = std::make_shared<Fiber>(4);
    f->append(0, Payload(1.0));
    EXPECT_FALSE(Payload(f).empty());
}

TEST(Tensor, SetAtRoundTrip)
{
    Tensor t = paperMatrixA();
    EXPECT_EQ(t.nnz(), 4u);
    const std::vector<Coord> p1{0, 2};
    const std::vector<Coord> p2{2, 1};
    const std::vector<Coord> missing{1, 1};
    EXPECT_DOUBLE_EQ(t.at(p1), 1.0);
    EXPECT_DOUBLE_EQ(t.at(p2), 4.0);
    EXPECT_DOUBLE_EQ(t.at(missing), 0.0);
}

TEST(Tensor, RankLookup)
{
    const Tensor t = paperMatrixA();
    EXPECT_EQ(t.rankLevel("M"), 0);
    EXPECT_EQ(t.rankLevel("K"), 1);
    EXPECT_EQ(t.rankLevel("Q"), -1);
    EXPECT_EQ(t.rankIds(), (std::vector<std::string>{"M", "K"}));
}

TEST(Tensor, ForEachLeafIsConcordant)
{
    const Tensor t = paperMatrixA();
    std::vector<std::vector<Coord>> points;
    t.forEachLeaf([&](std::span<const Coord> p, Value) {
        points.emplace_back(p.begin(), p.end());
    });
    ASSERT_EQ(points.size(), 4u);
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
}

TEST(Tensor, EqualsIgnoresZeroLeaves)
{
    Tensor a = paperMatrixA();
    Tensor b = paperMatrixA();
    EXPECT_TRUE(a.equals(b));
    const std::vector<Coord> extra{1, 3};
    b.set(extra, 0.0); // explicit zero should not break equality
    EXPECT_TRUE(a.equals(b));
    b.set(extra, 7.0);
    EXPECT_FALSE(a.equals(b));
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a = paperMatrixA();
    Tensor b = a.clone();
    const std::vector<Coord> p{0, 2};
    b.set(p, 99.0);
    EXPECT_DOUBLE_EQ(a.at(p), 1.0);
    EXPECT_DOUBLE_EQ(b.at(p), 99.0);
}

TEST(CoIter, Intersect2FindsCommonCoords)
{
    Fiber a(16), b(16);
    for (Coord c : {1, 3, 5, 7, 11})
        a.append(c, Payload(1.0));
    for (Coord c : {3, 4, 5, 11, 12})
        b.append(c, Payload(2.0));
    std::vector<Coord> matches;
    const auto stats =
        intersect2(FiberView::whole(&a), FiberView::whole(&b),
                   [&](Coord c, std::size_t, std::size_t) {
                       matches.push_back(c);
                   });
    EXPECT_EQ(matches, (std::vector<Coord>{3, 5, 11}));
    EXPECT_EQ(stats.matches, 3u);
    EXPECT_GE(stats.steps, stats.matches);
}

TEST(CoIter, UnionMergeCoversBothSides)
{
    Fiber a(16), b(16);
    for (Coord c : {1, 5})
        a.append(c, Payload(1.0));
    for (Coord c : {2, 5})
        b.append(c, Payload(2.0));
    std::vector<std::tuple<Coord, bool, bool>> seen;
    unionMerge(FiberView::whole(&a), FiberView::whole(&b),
               [&](Coord c, std::optional<std::size_t> pa,
                   std::optional<std::size_t> pb) {
                   seen.emplace_back(c, pa.has_value(), pb.has_value());
               });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], std::make_tuple(Coord{1}, true, false));
    EXPECT_EQ(seen[1], std::make_tuple(Coord{2}, false, true));
    EXPECT_EQ(seen[2], std::make_tuple(Coord{5}, true, true));
}

TEST(CoIter, LeaderFollowerVisitsEveryLeaderElement)
{
    Fiber lead(16), follow(16);
    for (Coord c : {1, 3, 9})
        lead.append(c, Payload(1.0));
    for (Coord c : {3, 9, 12})
        follow.append(c, Payload(2.0));
    int with = 0, without = 0;
    const auto stats = leaderFollower(
        FiberView::whole(&lead), FiberView::whole(&follow),
        [&](Coord, std::size_t, std::optional<std::size_t> pf) {
            pf ? ++with : ++without;
        });
    EXPECT_EQ(with, 2);
    EXPECT_EQ(without, 1);
    EXPECT_EQ(stats.steps, 3u);
    EXPECT_EQ(stats.matches, 2u);
}

TEST(CoIter, RangeSlicesByCoordinate)
{
    Fiber f(100);
    for (Coord c : {10, 20, 30, 40})
        f.append(c, Payload(1.0));
    const auto view = FiberView::whole(&f).range(15, 40);
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view.coordAt(view.lo), 20);
    EXPECT_EQ(view.coordAt(view.hi - 1), 30);
    EXPECT_TRUE(FiberView::whole(&f).range(35, 100).size() == 1);
    EXPECT_TRUE(FiberView::whole(&f).range(50, 10).empty());
}

TEST(Transform, SwizzleMatchesPaperFigure4)
{
    // [M, K] -> [K, M]: contents preserved, coordinates transposed.
    const Tensor a = paperMatrixA();
    const Tensor at = swizzle(a, {"K", "M"});
    EXPECT_EQ(at.rankIds(), (std::vector<std::string>{"K", "M"}));
    EXPECT_EQ(at.nnz(), a.nnz());
    a.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> swapped{p[1], p[0]};
        EXPECT_DOUBLE_EQ(at.at(swapped), v);
    });
}

TEST(Transform, SwizzleInvalidOrderThrows)
{
    const Tensor a = paperMatrixA();
    EXPECT_THROW(swizzle(a, {"K", "K"}), SpecError);
    EXPECT_THROW(swizzle(a, {"K"}), SpecError);
    EXPECT_THROW(swizzle(a, {"K", "Q"}), SpecError);
}

TEST(Transform, SwizzleRoundTripIsIdentity)
{
    const Tensor a = paperMatrixA();
    const Tensor back = swizzle(swizzle(a, {"K", "M"}), {"M", "K"});
    EXPECT_TRUE(back.equals(a));
}

TEST(Transform, FlattenMatchesPaperFigure2)
{
    // Figure 2 flattens [M, K] into MK with tuple coordinates; our
    // packed coordinate is m*Kshape + k.
    const Tensor a = paperMatrixA();
    const Tensor flat = flattenRanks(a, "M", "K");
    ASSERT_EQ(flat.numRanks(), 1u);
    EXPECT_EQ(flat.rank(0).id, "MK");
    EXPECT_TRUE(flat.rank(0).isFlattened());
    EXPECT_EQ(flat.rank(0).flatIds,
              (std::vector<std::string>{"M", "K"}));
    EXPECT_EQ(flat.nnz(), 4u);
    const std::vector<Coord> p{0 * 4 + 2};
    EXPECT_DOUBLE_EQ(flat.at(p), 1.0);
    const std::vector<Coord> q{2 * 4 + 1};
    EXPECT_DOUBLE_EQ(flat.at(q), 4.0);
}

TEST(Transform, FlattenRequiresAdjacentRanks)
{
    const Tensor t = Tensor::fromCoo("T", {"A", "B", "C"}, {2, 2, 2},
                                     {{{0, 0, 0}, 1.0}});
    EXPECT_THROW(flattenRanks(t, "A", "C"), SpecError);
    EXPECT_THROW(flattenRanks(t, "B", "A"), SpecError);
    EXPECT_NO_THROW(flattenRanks(t, "A", "B"));
}

TEST(Transform, SplitByShapeCreatesTiles)
{
    // K rank of [K] vector, shape 8, tile 3: partitions at 0, 3, 6.
    const Tensor v = Tensor::fromCoo(
        "V", {"K"}, {8},
        {{{0}, 1.0}, {{2}, 2.0}, {{3}, 3.0}, {{7}, 4.0}});
    const Tensor split = splitRankByShape(v, "K", 3, "K1", "K0");
    ASSERT_EQ(split.numRanks(), 2u);
    EXPECT_EQ(split.rank(0).id, "K1");
    EXPECT_EQ(split.rank(1).id, "K0");
    // Upper coords are tile starts; lower fibers keep absolute coords.
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top.coordAt(0), 0);
    EXPECT_EQ(top.coordAt(1), 3);
    EXPECT_EQ(top.coordAt(2), 6);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 1u);
    EXPECT_EQ(top.payloadAt(2).fiber()->coordAt(0), 7);
}

TEST(Transform, SplitByShapePreservesContents)
{
    const Tensor a = paperMatrixA();
    const Tensor split = splitRankByShape(a, "K", 2, "K1", "K0");
    EXPECT_EQ(split.nnz(), a.nnz());
    a.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[0], p[1] - p[1] % 2, p[1]};
        EXPECT_DOUBLE_EQ(split.at(q), v);
    });
}

TEST(Transform, SplitByOccupancyBalancesElements)
{
    // 7 elements, chunks of 3 -> occupancies 3, 3, 1.
    std::vector<std::pair<std::vector<Coord>, Value>> elems;
    for (Coord c : {1, 5, 6, 20, 21, 40, 90})
        elems.push_back({{c}, static_cast<Value>(c)});
    const Tensor v = Tensor::fromCoo("V", {"K"}, {100}, elems);
    const Tensor split = splitRankByOccupancy(v, "K", 3, "K1", "K0");
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 3u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 3u);
    EXPECT_EQ(top.payloadAt(2).fiber()->size(), 1u);
    // First chunk starts at the range minimum; later chunks start at
    // their first element's coordinate.
    EXPECT_EQ(top.coordAt(0), 0);
    EXPECT_EQ(top.coordAt(1), 20);
    EXPECT_EQ(top.coordAt(2), 90);
}

TEST(Transform, OccupancyBoundariesExported)
{
    Fiber f(100);
    for (Coord c : {1, 5, 6, 20, 21, 40, 90})
        f.append(c, Payload(1.0));
    const auto starts = occupancyBoundaries(f, 3);
    EXPECT_EQ(starts, (std::vector<Coord>{0, 20, 90}));
    Fiber empty(10);
    EXPECT_EQ(occupancyBoundaries(empty, 4), (std::vector<Coord>{0}));
}

TEST(Transform, FlattenThenOccupancyMatchesFigure2Flow)
{
    // Figure 2: flatten ranks M, K of A then partition to equalize
    // element counts per partition.
    const Tensor a = paperMatrixA();
    const Tensor flat = flattenRanks(a, "M", "K");
    const Tensor split =
        splitRankByOccupancy(flat, "MK", 2, "MK1", "MK0");
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 2u);
    EXPECT_EQ(split.nnz(), 4u);
}

TEST(Transform, PartitioningDeepRankSplitsEachFiber)
{
    // Split the K rank (level 1) of A [M, K]: each row fiber is
    // partitioned independently.
    const Tensor a = paperMatrixA();
    const Tensor split = splitRankByOccupancy(a, "K", 2, "K1", "K0");
    EXPECT_EQ(split.rankIds(),
              (std::vector<std::string>{"M", "K1", "K0"}));
    EXPECT_EQ(split.nnz(), a.nnz());
    // Row 2 has 3 elements -> chunks of 2 then 1.
    const auto pos = split.root()->find(2);
    ASSERT_TRUE(pos.has_value());
    const Fiber& row = *split.root()->payloadAt(*pos).fiber();
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(row.payloadAt(1).fiber()->size(), 1u);
}

/// Property test over random matrices: every transform preserves the
/// multiset of (point, value) contents (content preservation, §3.2).
class TransformProperty : public ::testing::TestWithParam<int>
{
  protected:
    Tensor
    randomMatrix(int seed)
    {
        Xoshiro256 rng(static_cast<std::uint64_t>(seed));
        const Coord rows = 20 + static_cast<Coord>(rng.below(30));
        const Coord cols = 20 + static_cast<Coord>(rng.below(30));
        std::map<std::pair<Coord, Coord>, Value> elems;
        const std::size_t nnz = 50 + rng.below(100);
        while (elems.size() < nnz) {
            const Coord r = static_cast<Coord>(rng.below(
                static_cast<std::uint64_t>(rows)));
            const Coord c = static_cast<Coord>(rng.below(
                static_cast<std::uint64_t>(cols)));
            elems[{r, c}] = 1.0 + rng.uniform();
        }
        std::vector<std::pair<std::vector<Coord>, Value>> coo;
        for (const auto& [rc, v] : elems)
            coo.push_back({{rc.first, rc.second}, v});
        return Tensor::fromCoo("R", {"M", "K"}, {rows, cols}, coo);
    }
};

TEST_P(TransformProperty, SwizzlePreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    const Tensor s = swizzle(t, {"K", "M"});
    EXPECT_EQ(s.nnz(), t.nnz());
    t.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[1], p[0]};
        EXPECT_DOUBLE_EQ(s.at(q), v);
    });
}

TEST_P(TransformProperty, FlattenPreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    const Coord kshape = t.rank(1).shape;
    const Tensor flat = flattenRanks(t, "M", "K");
    EXPECT_EQ(flat.nnz(), t.nnz());
    t.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[0] * kshape + p[1]};
        EXPECT_DOUBLE_EQ(flat.at(q), v);
    });
}

TEST_P(TransformProperty, ShapeSplitPreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    for (Coord tile : {1, 3, 7, 64}) {
        const Tensor s = splitRankByShape(t, "M", tile, "M1", "M0");
        EXPECT_EQ(s.nnz(), t.nnz());
        t.forEachLeaf([&](std::span<const Coord> p, Value v) {
            const std::vector<Coord> q{p[0] - p[0] % tile, p[0], p[1]};
            EXPECT_DOUBLE_EQ(s.at(q), v);
        });
    }
}

TEST_P(TransformProperty, OccupancySplitBalancesWithinOne)
{
    const Tensor t = randomMatrix(GetParam());
    const Tensor flat = flattenRanks(t, "M", "K");
    for (std::size_t chunk : {2u, 5u, 16u}) {
        const Tensor s =
            splitRankByOccupancy(flat, "MK", chunk, "MK1", "MK0");
        EXPECT_EQ(s.nnz(), t.nnz());
        const Fiber& top = *s.root();
        for (std::size_t pos = 0; pos < top.size(); ++pos) {
            const std::size_t occ = top.payloadAt(pos).fiber()->size();
            if (pos + 1 < top.size())
                EXPECT_EQ(occ, chunk); // all but last chunk are full
            else
                EXPECT_LE(occ, chunk);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperty,
                         ::testing::Range(0, 8));


// ------------------------------------------------------------------
// Flat transforms against naive references. The references are the
// direct definitions: a swizzle rebuilds the tree point by point from
// its permuted leaves, a split or flatten deep-copies the tree and
// rebuilds the fibers of one level. The fast transforms must produce
// the same tree element for element: coordinates, order, payload
// kinds, values, fiber shapes and rank metadata.

/** Every detail of a tensor's structure, as a string. */
std::string
structureDigest(const Tensor& t)
{
    std::ostringstream os;
    os.precision(17);
    os << t.name();
    for (const RankInfo& r : t.ranks()) {
        os << "|" << r.id << ":" << r.shape;
        for (std::size_t i = 0; i < r.flatIds.size(); ++i)
            os << "," << r.flatIds[i] << "/" << r.flatShapes[i];
    }
    const std::function<void(const Fiber*)> dump = [&](const Fiber* f) {
        if (f == nullptr) {
            os << "null";
            return;
        }
        os << "{" << f->shape();
        for (std::size_t pos = 0; pos < f->size(); ++pos) {
            os << " " << f->coordAt(pos) << ":";
            const Payload& p = f->payloadAt(pos);
            if (p.isValue())
                os << p.value();
            else
                dump(p.fiber().get());
        }
        os << "}";
    };
    dump(t.root().get());
    return os.str();
}

Tensor
refSwizzle(const Tensor& t, const std::vector<std::string>& order)
{
    std::vector<std::size_t> perm;
    std::vector<RankInfo> ranks;
    for (const std::string& id : order) {
        perm.push_back(static_cast<std::size_t>(t.rankLevel(id)));
        ranks.push_back(t.rank(perm.back()));
    }
    Tensor out(t.name(), ranks);
    t.forEachLeaf([&](std::span<const Coord> p, Value v) {
        std::vector<Coord> q;
        for (std::size_t level : perm)
            q.push_back(p[level]);
        out.set(q, v);
    });
    return out;
}

/** Deep copy of @p f whose fibers at depth @p level are replaced by
 *  @p fn(fiber). */
FiberPtr
refRebuild(const Fiber& f, std::size_t level,
           const std::function<FiberPtr(const Fiber&)>& fn)
{
    if (level == 0)
        return fn(f);
    auto copy = std::make_shared<Fiber>(f.shape());
    for (std::size_t pos = 0; pos < f.size(); ++pos) {
        const Payload& p = f.payloadAt(pos);
        copy->append(f.coordAt(pos),
                     p.isValue() ? p
                                 : Payload(refRebuild(*p.fiber(), level - 1,
                                                      fn)));
    }
    return copy;
}

Tensor
refSplit(const Tensor& t, const std::string& rank, const std::string& upper,
         const std::string& lower,
         const std::function<std::vector<Coord>(const Fiber&)>& starts_of)
{
    const auto level = static_cast<std::size_t>(t.rankLevel(rank));
    const Coord shape = t.rank(level).shape;
    std::vector<RankInfo> ranks = t.ranks();
    ranks[level].id = lower;
    ranks.insert(ranks.begin() + static_cast<std::ptrdiff_t>(level),
                 t.rank(level));
    ranks[level].id = upper;
    Tensor out(t.name(), ranks);
    out.root() = refRebuild(*t.root(), level, [&](const Fiber& f) {
        auto split = std::make_shared<Fiber>(shape);
        const std::vector<Coord> starts = starts_of(f);
        for (std::size_t j = 0; j < starts.size(); ++j) {
            const Coord end = j + 1 < starts.size() ? starts[j + 1] : shape;
            auto part = std::make_shared<Fiber>(shape);
            for (std::size_t pos = 0; pos < f.size(); ++pos) {
                const Coord c = f.coordAt(pos);
                if (c >= starts[j] && c < end)
                    part->append(c, Payload(f.payloadAt(pos).isValue()
                                                ? f.payloadAt(pos)
                                                : Payload(f.payloadAt(pos)
                                                              .fiber()
                                                              ->clone())));
            }
            if (!part->empty())
                split->append(starts[j], Payload(part));
        }
        return split;
    });
    return out;
}

Tensor
refFlatten(const Tensor& t, const std::string& upper,
           const std::string& lower)
{
    const auto level = static_cast<std::size_t>(t.rankLevel(upper));
    const RankInfo& ru = t.rank(level);
    const RankInfo& rl = t.rank(level + 1);
    RankInfo flat{ru.id + rl.id, ru.shape * rl.shape, {}, {}};
    for (const RankInfo* r : {&ru, &rl}) {
        if (r->isFlattened()) {
            flat.flatIds.insert(flat.flatIds.end(), r->flatIds.begin(),
                                r->flatIds.end());
            flat.flatShapes.insert(flat.flatShapes.end(),
                                   r->flatShapes.begin(),
                                   r->flatShapes.end());
        } else {
            flat.flatIds.push_back(r->id);
            flat.flatShapes.push_back(r->shape);
        }
    }
    std::vector<RankInfo> ranks = t.ranks();
    ranks[level] = flat;
    ranks.erase(ranks.begin() + static_cast<std::ptrdiff_t>(level) + 1);
    Tensor out(t.name(), ranks);
    out.root() = refRebuild(*t.root(), level, [&](const Fiber& f) {
        auto merged = std::make_shared<Fiber>(flat.shape);
        for (std::size_t pos = 0; pos < f.size(); ++pos) {
            const Fiber& child = *f.payloadAt(pos).fiber();
            for (std::size_t c = 0; c < child.size(); ++c) {
                const Payload& p = child.payloadAt(c);
                merged->append(f.coordAt(pos) * rl.shape + child.coordAt(c),
                               p.isValue() ? p : Payload(p.fiber()->clone()));
            }
        }
        return merged;
    });
    return out;
}

/**
 * A random tensor of @p ranks ranks with coordinates below @p extent:
 * explicit zero leaves, and (with @p empties) empty subfibers hung at
 * random depths.
 */
Tensor
randomTensor(Xoshiro256& rng, std::size_t ranks, Coord extent,
             bool empties)
{
    static const char* const kIds[] = {"A", "B", "C", "D"};
    std::vector<std::string> ids;
    std::vector<Coord> shape;
    for (std::size_t i = 0; i < ranks; ++i) {
        ids.push_back(kIds[i]);
        shape.push_back(
            1 + static_cast<Coord>(rng.below(
                    static_cast<std::uint64_t>(extent))));
    }
    Tensor t("R", ids, shape);
    const std::size_t points = rng.below(60);
    for (std::size_t n = 0; n < points; ++n) {
        std::vector<Coord> p;
        for (Coord s : shape)
            p.push_back(static_cast<Coord>(
                rng.below(static_cast<std::uint64_t>(s))));
        t.set(p, rng.below(5) == 0 ? 0.0 : 1.0 + rng.uniform());
    }
    if (empties && ranks > 1) {
        for (int n = 0; n < 3; ++n) {
            // An empty fiber at depth d >= 1, below a random path.
            const std::size_t d = 1 + rng.below(ranks - 1);
            Fiber* f = t.root().get();
            for (std::size_t level = 0; level < d; ++level) {
                Payload& p = f->getOrInsert(static_cast<Coord>(
                    rng.below(static_cast<std::uint64_t>(shape[level]))));
                if (!p.isFiber() || p.fiber() == nullptr)
                    p.setFiber(std::make_shared<Fiber>(shape[level + 1]));
                f = p.fiber().get();
            }
        }
    }
    return t;
}

/** The fast result is the reference, element for element. */
void
expectSameTree(const Tensor& fast, const Tensor& ref)
{
    EXPECT_TRUE(fast.equals(ref));
    EXPECT_EQ(structureDigest(fast), structureDigest(ref));
}

class FlatTransformProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FlatTransformProperty, SwizzleEveryPermutationMatchesReference)
{
    Xoshiro256 rng(static_cast<std::uint64_t>(1000 + GetParam()));
    for (std::size_t ranks = 1; ranks <= 4; ++ranks) {
        const Tensor t = randomTensor(rng, ranks, 12, GetParam() % 2 == 1);
        std::vector<std::string> order = t.rankIds();
        std::sort(order.begin(), order.end());
        do {
            SCOPED_TRACE(::testing::PrintToString(order));
            expectSameTree(swizzle(t, order), refSwizzle(t, order));
        } while (std::next_permutation(order.begin(), order.end()));
    }
}

TEST_P(FlatTransformProperty, SplitsMatchReference)
{
    Xoshiro256 rng(static_cast<std::uint64_t>(2000 + GetParam()));
    for (std::size_t ranks = 1; ranks <= 4; ++ranks) {
        const Tensor t = randomTensor(rng, ranks, 20, GetParam() % 2 == 1);
        for (const std::string& rank : t.rankIds()) {
            const Coord shape = t.rank(
                static_cast<std::size_t>(t.rankLevel(rank))).shape;
            for (Coord tile : {1, 3, 8}) {
                SCOPED_TRACE(rank + " tile " + std::to_string(tile));
                expectSameTree(
                    splitRankByShape(t, rank, tile, "U", "L"),
                    refSplit(t, rank, "U", "L", [&](const Fiber&) {
                        std::vector<Coord> starts;
                        for (Coord c = 0; c < shape; c += tile)
                            starts.push_back(c);
                        return starts;
                    }));
            }
            for (std::size_t chunk : {1u, 2u, 5u}) {
                SCOPED_TRACE(rank + " chunk " + std::to_string(chunk));
                expectSameTree(
                    splitRankByOccupancy(t, rank, chunk, "U", "L"),
                    refSplit(t, rank, "U", "L", [&](const Fiber& f) {
                        return occupancyBoundaries(f, chunk);
                    }));
            }
        }
    }
}

TEST_P(FlatTransformProperty, FlattenedRanksKeepTheirConstituents)
{
    Xoshiro256 rng(static_cast<std::uint64_t>(3000 + GetParam()));
    const Tensor t = randomTensor(rng, 4, 10, GetParam() % 2 == 1);
    // [A, B, C, D] -> [AB, C, D] -> [ABC, D]: nested flattening.
    const Tensor ab = flattenRanks(t, "A", "B");
    expectSameTree(ab, refFlatten(t, "A", "B"));
    const Tensor abc = flattenRanks(ab, "AB", "C");
    expectSameTree(abc, refFlatten(ab, "AB", "C"));
    EXPECT_EQ(abc.rank(0).flatIds,
              (std::vector<std::string>{"A", "B", "C"}));
    // Swizzles and splits carry the flattened rank's metadata along.
    for (const std::vector<std::string>& order :
         {std::vector<std::string>{"D", "ABC"},
          std::vector<std::string>{"ABC", "D"}}) {
        const Tensor s = swizzle(abc, order);
        expectSameTree(s, refSwizzle(abc, order));
        const auto level =
            static_cast<std::size_t>(s.rankLevel("ABC"));
        EXPECT_EQ(s.rank(level).flatIds, abc.rank(0).flatIds);
        EXPECT_EQ(s.rank(level).flatShapes, abc.rank(0).flatShapes);
    }
    expectSameTree(
        splitRankByOccupancy(abc, "ABC", 3, "ABC1", "ABC0"),
        refSplit(abc, "ABC", "ABC1", "ABC0", [](const Fiber& f) {
            return occupancyBoundaries(f, 3);
        }));
}

TEST_P(FlatTransformProperty, WideCoordinatesFallBackToComparisonSort)
{
    // Two ranks of 2^40 coordinates need 80 key bits; negative
    // coordinates do not pack at all. Both take the comparison sort.
    Xoshiro256 rng(static_cast<std::uint64_t>(4000 + GetParam()));
    const Coord wide = Coord{1} << 40;
    Tensor t("W", {"A", "B", "C"}, {wide, 7, wide});
    for (int n = 0; n < 50; ++n) {
        const Coord a = static_cast<Coord>(rng.below(1u << 20)) *
                        static_cast<Coord>(1u << 19);
        const Coord c = static_cast<Coord>(rng.below(1u << 30)) << 9;
        const Coord b = static_cast<Coord>(rng.below(7));
        const std::vector<Coord> p{n % 5 == 0 ? -a : a, b, c};
        t.set(p, n % 4 == 0 ? 0.0 : static_cast<Value>(n));
    }
    std::vector<std::string> order = t.rankIds();
    std::sort(order.begin(), order.end());
    do {
        expectSameTree(swizzle(t, order), refSwizzle(t, order));
    } while (std::next_permutation(order.begin(), order.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTransformProperty,
                         ::testing::Range(0, 6));

TEST(Transform, SplitsDropCoordinatesOutsideTheRank)
{
    // Elements below 0 or at/after the shape belong to no partition.
    Tensor t("V", {"K"}, {10});
    for (Coord c : {-4, -1, 0, 3, 9, 10, 12})
        t.root()->append(c, Payload(static_cast<Value>(c)));
    const auto tiles = [](const Fiber&) {
        return std::vector<Coord>{0, 4, 8};
    };
    expectSameTree(splitRankByShape(t, "K", 4, "K1", "K0"),
                   refSplit(t, "K", "K1", "K0", tiles));
    EXPECT_EQ(splitRankByShape(t, "K", 4, "K1", "K0").nnz(), 3u);
    expectSameTree(splitRankByOccupancy(t, "K", 2, "K1", "K0"),
                   refSplit(t, "K", "K1", "K0", [](const Fiber& f) {
                       return occupancyBoundaries(f, 2);
                   }));
}

TEST(Transform, RvalueTransformsLeaveTheBorrowedSourceAlone)
{
    Xoshiro256 rng(77);
    const Tensor src = randomTensor(rng, 3, 16, true);
    const std::string before = structureDigest(src);
    const std::uint64_t clones = Tensor::cloneCount();

    // The planner's sequence: the first transform copies the borrowed
    // source, later ones restructure that copy in place.
    Tensor work = splitRankByOccupancy(src, "A", 2, "A1", "A0");
    const Tensor ref1 = refSplit(src, "A", "A1", "A0", [](const Fiber& f) {
        return occupancyBoundaries(f, 2);
    });
    expectSameTree(work, ref1);
    work = splitRankByShape(std::move(work), "B", 4, "B1", "B0");
    const Tensor ref2 = refSplit(ref1, "B", "B1", "B0", [&](const Fiber&) {
        std::vector<Coord> starts;
        for (Coord c = 0; c < ref1.rank(2).shape; c += 4)
            starts.push_back(c);
        return starts;
    });
    expectSameTree(work, ref2);
    work = flattenRanks(std::move(work), "B0", "C");
    expectSameTree(work, refFlatten(ref2, "B0", "C"));

    EXPECT_EQ(structureDigest(src), before);
    EXPECT_EQ(Tensor::cloneCount(), clones);
}

} // namespace
} // namespace teaal::ft
