#include "fibertree/transform.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "storage/packed.hpp"
#include "util/error.hpp"

namespace teaal::ft
{

namespace
{

/**
 * Leaves gathered into flat rows, already in the output rank order:
 * row i's coordinates are coords[i * arity, (i + 1) * arity).
 */
struct LeafRows
{
    explicit LeafRows(std::size_t a) : arity(a), cur(a, 0) {}

    void
    push(Value v)
    {
        coords.insert(coords.end(), cur.begin(), cur.end());
        values.push_back(v);
    }

    std::size_t size() const { return values.size(); }

    Coord
    at(std::size_t row, std::size_t col) const
    {
        return coords[row * arity + col];
    }

    std::size_t arity;
    std::vector<Coord> cur; ///< the row under construction
    std::vector<Coord> coords;
    std::vector<Value> values;
};

/** Gather the leaves below pointer fiber @p f at @p level; @p col maps
 *  an input level to its output column. */
void
gather(const Fiber& f, std::size_t level,
       const std::vector<std::size_t>& col, LeafRows& rows)
{
    const bool leaf = level + 1 == rows.arity;
    Coord& slot = rows.cur[col[level]];
    for (std::size_t pos = 0; pos < f.size(); ++pos) {
        slot = f.coordAt(pos);
        const Payload& p = f.payloadAt(pos);
        if (p.isValue()) {
            TEAAL_ASSERT(leaf, "leaf arity mismatch");
            rows.push(p.value());
        } else if (p.fiber() != nullptr) {
            TEAAL_ASSERT(!leaf, "leaf arity mismatch");
            gather(*p.fiber(), level + 1, col, rows);
        }
    }
}

/** Gather the leaves of packed positions [@p lo, @p hi) at @p level. */
void
gather(const storage::PackedTensor& t, std::size_t level, std::uint64_t lo,
       std::uint64_t hi, const std::vector<std::size_t>& col,
       LeafRows& rows)
{
    const storage::PackedLevel& L = t.level(level);
    const bool leaf = level + 1 == rows.arity;
    Coord& slot = rows.cur[col[level]];
    for (std::uint64_t p = lo; p < hi; ++p) {
        slot = L.crd[p];
        if (leaf) {
            rows.push(t.leafValue(p));
        } else {
            const storage::PackedLevel& C = t.level(level + 1);
            gather(t, level + 1, C.seg[p], C.seg[p + 1], col, rows);
        }
    }
}

/**
 * Build @p out from @p n leaves in sorted order, keeping one open
 * fiber per level. @p coord(i, l) is leaf i's coordinate at output
 * level l, @p value(i) its value. A sizing pass first counts the
 * elements of every fiber the build will open, so each fiber is
 * allocated once at its final size.
 */
template <typename CoordAt, typename ValueAt>
void
buildSorted(Tensor& out, std::size_t n, const CoordAt& coord,
            const ValueAt& value)
{
    const std::size_t depth = out.numRanks();
    // Leaf i opens new fibers below the first level where it differs
    // from leaf i - 1; the levels above stay open.
    TEAAL_ASSERT(depth <= UINT8_MAX, "swizzle: too many ranks");
    std::vector<std::uint8_t> diverge(n, 0);
    // Element counts of the fibers in the order the build opens them
    // (the root first); slot[l] indexes the open fiber at level l.
    std::vector<std::size_t> sizes{0};
    std::vector<std::size_t> slot(depth, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t level = 0;
        if (i > 0) {
            while (level + 1 < depth &&
                   coord(i, level) == coord(i - 1, level))
                ++level;
        }
        diverge[i] = static_cast<std::uint8_t>(level);
        ++sizes[slot[level]];
        for (++level; level < depth; ++level) {
            slot[level] = sizes.size();
            sizes.push_back(1);
        }
    }

    std::vector<Fiber*> open(depth, nullptr);
    open[0] = out.root().get();
    open[0]->reserve(sizes[0]);
    std::size_t next = 1;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t level = diverge[i]; level + 1 < depth; ++level) {
            auto child = std::make_shared<Fiber>(out.rank(level + 1).shape);
            child->reserve(sizes[next++]);
            open[level + 1] = child.get();
            open[level]->append(coord(i, level), Payload(std::move(child)));
        }
        open[depth - 1]->append(coord(i, depth - 1), Payload(value(i)));
    }
}

/** A leaf under its packed sort key. */
struct KeyedLeaf
{
    std::uint64_t key;
    Value value;
};

/**
 * Stable LSD radix sort of @p a by the low @p bits of its keys,
 * 11 bits per pass; a pass whose digit every key shares is skipped.
 */
void
radixSort(std::vector<KeyedLeaf>& a, unsigned bits)
{
    constexpr unsigned kDigit = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigit;
    constexpr std::uint64_t kMask = kBuckets - 1;
    const unsigned passes = (bits + kDigit - 1) / kDigit;
    if (passes == 0 || a.size() < 2)
        return;
    std::vector<std::size_t> hist(passes * kBuckets, 0);
    for (const KeyedLeaf& e : a) {
        for (unsigned p = 0; p < passes; ++p)
            ++hist[p * kBuckets + ((e.key >> (p * kDigit)) & kMask)];
    }
    std::vector<KeyedLeaf> tmp(a.size());
    for (unsigned p = 0; p < passes; ++p) {
        const unsigned shift = p * kDigit;
        std::size_t* h = &hist[p * kBuckets];
        if (h[(a.front().key >> shift) & kMask] == a.size())
            continue;
        std::size_t sum = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const std::size_t c = h[b];
            h[b] = sum;
            sum += c;
        }
        for (const KeyedLeaf& e : a)
            tmp[h[(e.key >> shift) & kMask]++] = e;
        a.swap(tmp);
    }
}

/**
 * Sort @p rows into lexicographic order and build @p out from them.
 * Rows whose coordinates pack into one 64-bit key (widths from each
 * column's largest coordinate, none negative) are radix-sorted on
 * that key; others fall back to a comparison sort of the rows.
 */
void
buildFromRows(Tensor& out, LeafRows& rows)
{
    const std::size_t arity = rows.arity;
    const std::size_t n = rows.size();
    std::vector<Coord> hi(arity, 0);
    bool negative = false;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < arity; ++c) {
            const Coord x = rows.at(i, c);
            negative |= x < 0;
            hi[c] = std::max(hi[c], x);
        }
    }
    std::vector<unsigned> width(arity, 0), shift(arity, 0);
    unsigned bits = 0;
    for (std::size_t c = arity; c-- > 0;) {
        width[c] = static_cast<unsigned>(
            std::bit_width(static_cast<std::uint64_t>(hi[c])));
        shift[c] = bits;
        bits += width[c];
    }

    if (negative || bits > 64) {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const Coord* ra = &rows.coords[a * arity];
                      const Coord* rb = &rows.coords[b * arity];
                      return std::lexicographical_compare(
                          ra, ra + arity, rb, rb + arity);
                  });
        buildSorted(
            out, n,
            [&](std::size_t i, std::size_t l) {
                return rows.at(order[i], l);
            },
            [&](std::size_t i) { return rows.values[order[i]]; });
        return;
    }

    std::vector<KeyedLeaf> keyed(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t key = 0;
        for (std::size_t c = 0; c < arity; ++c) {
            if (width[c] != 0)
                key |= static_cast<std::uint64_t>(rows.at(i, c))
                       << shift[c];
        }
        keyed[i] = {key, rows.values[i]};
    }
    // The keys carry everything the build needs.
    rows.coords = {};
    rows.values = {};
    radixSort(keyed, bits);
    buildSorted(
        out, n,
        [&](std::size_t i, std::size_t l) -> Coord {
            if (width[l] == 0)
                return 0;
            const std::uint64_t mask =
                (std::uint64_t{1} << width[l]) - 1;
            return static_cast<Coord>((keyed[i].key >> shift[l]) & mask);
        },
        [&](std::size_t i) { return keyed[i].value; });
}

/**
 * Validate @p new_order against @p ranks of tensor @p name; returns
 * the input level of each output rank.
 */
std::vector<std::size_t>
swizzlePermutation(const std::string& name,
                   const std::vector<RankInfo>& ranks,
                   const std::vector<std::string>& new_order)
{
    if (new_order.size() != ranks.size())
        specError("swizzle of '", name, "': order has ", new_order.size(),
                  " ranks, tensor has ", ranks.size());
    std::vector<std::size_t> perm;
    std::vector<bool> seen(ranks.size(), false);
    for (const std::string& id : new_order) {
        const auto it = std::find_if(
            ranks.begin(), ranks.end(),
            [&](const RankInfo& r) { return r.id == id; });
        if (it == ranks.end())
            specError("swizzle of '", name, "': unknown rank '", id, "'");
        const auto level = static_cast<std::size_t>(it - ranks.begin());
        if (seen[level])
            specError("swizzle of '", name, "': duplicate rank");
        seen[level] = true;
        perm.push_back(level);
    }
    return perm;
}

/**
 * The one swizzle: @p gather_fn(col, rows) fills the rows, permuting
 * input level l into output column col[l].
 */
template <typename GatherFn>
Tensor
swizzleWith(const std::string& name, const std::vector<RankInfo>& ranks,
            const std::vector<std::string>& new_order,
            const GatherFn& gather_fn)
{
    const std::vector<std::size_t> perm =
        swizzlePermutation(name, ranks, new_order);
    std::vector<RankInfo> new_ranks;
    std::vector<std::size_t> col(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        new_ranks.push_back(ranks[perm[i]]);
        col[perm[i]] = i;
    }
    LeafRows rows(perm.size());
    gather_fn(col, rows);
    Tensor out(name, std::move(new_ranks));
    buildFromRows(out, rows);
    return out;
}

/** Deep copy of @p t's tree (the const& overloads' private copy). */
Tensor
deepCopy(const Tensor& t)
{
    Tensor copy(t.name(), t.ranks());
    copy.root() = t.root() ? t.root()->clone() : nullptr;
    return copy;
}

/**
 * Replace every fiber at @p target_level (0 = root) of an owned tree
 * with the fiber @p fn returns; @p fn may move the payloads out of
 * the fiber it is given.
 */
template <typename Fn>
void
restructureLevel(FiberPtr& fiber, std::size_t target_level, const Fn& fn)
{
    if (fiber == nullptr)
        return;
    if (target_level == 0) {
        fiber = fn(*fiber);
        return;
    }
    for (std::size_t pos = 0; pos < fiber->size(); ++pos) {
        Payload& p = fiber->payloadAt(pos);
        if (p.isFiber()) {
            FiberPtr child = p.fiber();
            restructureLevel(child, target_level - 1, fn);
            p.setFiber(std::move(child));
        }
    }
}

/** Move @p f's elements in positions [@p pos, @p stop) into a new
 *  fiber of @p shape. */
FiberPtr
movePart(Fiber& f, std::size_t pos, std::size_t stop, Coord shape)
{
    auto part = std::make_shared<Fiber>(shape);
    part->reserve(stop - pos);
    for (; pos < stop; ++pos)
        part->append(f.coordAt(pos), std::move(f.payloadAt(pos)));
    return part;
}

/**
 * Common splitter: rank @p rank_id of @p t becomes ranks
 * @p upper_name over @p lower_name, and @p split_fn(fiber, shape)
 * builds each split fiber of that level.
 */
template <typename SplitFn>
Tensor
splitWith(Tensor&& t, const std::string& rank_id,
          const std::string& upper_name, const std::string& lower_name,
          const SplitFn& split_fn)
{
    const int level = t.rankLevel(rank_id);
    if (level < 0)
        specError("partitioning of '", t.name(), "': unknown rank '",
                  rank_id, "'");

    const RankInfo& orig = t.rank(static_cast<std::size_t>(level));
    const Coord shape = orig.shape;
    std::vector<RankInfo> new_ranks;
    for (std::size_t i = 0; i < t.numRanks(); ++i) {
        if (static_cast<int>(i) == level) {
            new_ranks.push_back(orig);
            new_ranks.back().id = upper_name;
            new_ranks.push_back(orig);
            new_ranks.back().id = lower_name;
        } else {
            new_ranks.push_back(t.rank(i));
        }
    }

    Tensor out(t.name(), std::move(new_ranks));
    out.root() = std::move(t.root());
    restructureLevel(out.root(), static_cast<std::size_t>(level),
                     [&](Fiber& f) { return split_fn(f, shape); });
    return out;
}

} // namespace

Tensor
swizzle(const Tensor& t, const std::vector<std::string>& new_order)
{
    return swizzleWith(t.name(), t.ranks(), new_order,
                       [&](const std::vector<std::size_t>& col,
                           LeafRows& rows) {
                           if (t.root() != nullptr)
                               gather(*t.root(), 0, col, rows);
                       });
}

Tensor
swizzle(const storage::PackedTensor& t,
        const std::vector<std::string>& new_order)
{
    return swizzleWith(
        t.name(), t.ranks(), new_order,
        [&](const std::vector<std::size_t>& col, LeafRows& rows) {
            if (t.numRanks() == 0 || t.level(0).seg.empty())
                return;
            rows.coords.reserve(t.nnz() * t.numRanks());
            rows.values.reserve(t.nnz());
            const storage::PackedLevel& root = t.level(0);
            gather(t, 0, root.seg.front(), root.seg.back(), col, rows);
        });
}

Tensor
flattenRanks(const Tensor& t, const std::string& upper_id,
             const std::string& lower_id)
{
    return flattenRanks(deepCopy(t), upper_id, lower_id);
}

Tensor
flattenRanks(Tensor&& t, const std::string& upper_id,
             const std::string& lower_id)
{
    const int upper = t.rankLevel(upper_id);
    const int lower = t.rankLevel(lower_id);
    if (upper < 0 || lower < 0 || lower != upper + 1)
        specError("flatten of '", t.name(), "': ranks ", upper_id, ", ",
                  lower_id, " must be adjacent (upper directly above)");

    const RankInfo& ru = t.rank(static_cast<std::size_t>(upper));
    const RankInfo& rl = t.rank(static_cast<std::size_t>(lower));
    const Coord stride = rl.shape;
    TEAAL_ASSERT(stride > 0, "flatten: lower rank shape must be positive");

    RankInfo flat;
    flat.id = ru.id + rl.id;
    flat.shape = ru.shape * rl.shape;
    // Record constituents; nested flattening concatenates expansions.
    auto expand = [](const RankInfo& r, std::vector<std::string>& ids,
                     std::vector<Coord>& shapes) {
        if (r.isFlattened()) {
            ids.insert(ids.end(), r.flatIds.begin(), r.flatIds.end());
            shapes.insert(shapes.end(), r.flatShapes.begin(),
                          r.flatShapes.end());
        } else {
            ids.push_back(r.id);
            shapes.push_back(r.shape);
        }
    };
    expand(ru, flat.flatIds, flat.flatShapes);
    expand(rl, flat.flatIds, flat.flatShapes);

    std::vector<RankInfo> new_ranks;
    for (std::size_t i = 0; i < t.numRanks(); ++i) {
        if (static_cast<int>(i) == upper)
            new_ranks.push_back(flat);
        else if (static_cast<int>(i) != lower)
            new_ranks.push_back(t.rank(i));
    }

    Tensor out(t.name(), std::move(new_ranks));
    out.root() = std::move(t.root());
    restructureLevel(
        out.root(), static_cast<std::size_t>(upper), [&](Fiber& f) {
            auto merged = std::make_shared<Fiber>(flat.shape);
            std::size_t total = 0;
            for (std::size_t pos = 0; pos < f.size(); ++pos) {
                const Payload& p = f.payloadAt(pos);
                if (p.isFiber() && p.fiber() != nullptr)
                    total += p.fiber()->size();
            }
            merged->reserve(total);
            for (std::size_t pos = 0; pos < f.size(); ++pos) {
                const Coord cu = f.coordAt(pos);
                const Payload& p = f.payloadAt(pos);
                if (!p.isFiber() || p.fiber() == nullptr)
                    modelError("flatten: expected fibers below rank '",
                               upper_id, "'");
                Fiber& child = *p.fiber();
                for (std::size_t cpos = 0; cpos < child.size(); ++cpos) {
                    merged->append(cu * stride + child.coordAt(cpos),
                                   std::move(child.payloadAt(cpos)));
                }
            }
            return merged;
        });
    return out;
}

Tensor
splitRankByShape(const Tensor& t, const std::string& rank_id, Coord tile,
                 const std::string& upper_name,
                 const std::string& lower_name)
{
    return splitRankByShape(deepCopy(t), rank_id, tile, upper_name,
                            lower_name);
}

Tensor
splitRankByShape(Tensor&& t, const std::string& rank_id, Coord tile,
                 const std::string& upper_name,
                 const std::string& lower_name)
{
    if (tile <= 0)
        specError("uniform_shape tile must be positive, got ", tile);
    // Tiles start at multiples of the tile size inside [0, shape);
    // elements outside that range belong to no tile. Only occupied
    // tiles are emitted.
    return splitWith(
        std::move(t), rank_id, upper_name, lower_name,
        [tile](Fiber& f, Coord shape) {
            auto split = std::make_shared<Fiber>(shape);
            std::size_t pos = f.lowerBound(0);
            while (pos < f.size() && f.coordAt(pos) < shape) {
                const Coord begin = f.coordAt(pos) - f.coordAt(pos) % tile;
                const Coord end =
                    shape - begin > tile ? begin + tile : shape;
                const std::size_t stop = f.lowerBound(end);
                split->append(begin,
                              Payload(movePart(f, pos, stop, shape)));
                pos = stop;
            }
            return split;
        });
}

Tensor
splitRankByOccupancy(const Tensor& t, const std::string& rank_id,
                     std::size_t chunk, const std::string& upper_name,
                     const std::string& lower_name)
{
    return splitRankByOccupancy(deepCopy(t), rank_id, chunk, upper_name,
                                lower_name);
}

Tensor
splitRankByOccupancy(Tensor&& t, const std::string& rank_id,
                     std::size_t chunk, const std::string& upper_name,
                     const std::string& lower_name)
{
    if (chunk == 0)
        specError("uniform_occupancy chunk must be positive");
    // Chunk j spans [starts[j], starts[j+1]), the last one ending at
    // the shape; empty chunks are dropped.
    return splitWith(
        std::move(t), rank_id, upper_name, lower_name,
        [chunk](Fiber& f, Coord shape) {
            const std::vector<Coord> starts = occupancyBoundaries(f, chunk);
            auto split = std::make_shared<Fiber>(shape);
            split->reserve(starts.size());
            std::size_t pos = 0;
            for (std::size_t j = 0; j < starts.size(); ++j) {
                const Coord begin = starts[j];
                const Coord end =
                    j + 1 < starts.size() ? starts[j + 1] : shape;
                while (pos < f.size() && f.coordAt(pos) < begin)
                    ++pos;
                std::size_t stop = pos;
                while (stop < f.size() && f.coordAt(stop) < end)
                    ++stop;
                if (stop > pos) {
                    split->append(begin,
                                  Payload(movePart(f, pos, stop, shape)));
                }
                pos = stop;
            }
            return split;
        });
}

std::vector<Coord>
occupancyBoundaries(const Fiber& fiber, std::size_t chunk)
{
    TEAAL_ASSERT(chunk > 0, "occupancy chunk must be positive");
    std::vector<Coord> starts;
    if (fiber.empty()) {
        starts.push_back(0);
        return starts;
    }
    for (std::size_t pos = 0; pos < fiber.size(); pos += chunk) {
        // Each chunk starts at its first element's coordinate, except
        // the first chunk which starts at the range minimum so that
        // follower elements below the leader's first coordinate are
        // not orphaned.
        starts.push_back(pos == 0 ? 0 : fiber.coordAt(pos));
    }
    return starts;
}

} // namespace teaal::ft
