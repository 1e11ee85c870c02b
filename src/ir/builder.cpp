/**
 * @file
 * The simulator generator, split into the two stages of the
 * compile-once / run-many pipeline (paper §4.2-§4.3):
 *
 *   analyzeEinsum    spec-only: resolve the loop order, partitioning
 *                    groups, probe ranks, spacetime, and the output's
 *                    declared storage order; surface specification
 *                    inconsistencies before any data exists.
 *   instantiatePlan  bind a recipe to a BindingSource: prepare
 *                    (partition/flatten/swizzle) each input, derive
 *                    rank shapes and dense extents, and select
 *                    co-iteration strategies from occupancy hints.
 *                    The trace tier binds live tensors (TensorSource
 *                    below); the analytic tier binds tensor
 *                    statistics (model/analytic/estimator.cpp).
 *
 * buildPlan composes the two for white-box tests and tools; the
 * pipeline (compiler::CompiledModel) caches recipes at compile time
 * and instantiated plans per workload.
 */
#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "ir/plan.hpp"

#include "fibertree/occupancy.hpp"
#include "fibertree/transform.hpp"
#include "storage/packed.hpp"
#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace teaal::ir
{

namespace
{

using einsum::baseOfDerived;
using einsum::IndexExpr;
using einsum::TensorRef;
using mapping::PartitionDirective;
using mapping::RankPartitioning;

std::vector<RecipeGroup>
analyzeGroups(const mapping::EinsumMapping& em, const std::string& text)
{
    std::vector<RecipeGroup> out;
    for (const RankPartitioning& g : em.partitioning) {
        RecipeGroup info;
        info.sourceRanks = g.sourceRanks;
        info.base = g.baseRank();
        info.results = g.resultRanks();
        for (const PartitionDirective& d : g.directives) {
            if (d.kind == PartitionDirective::Kind::Flatten) {
                info.hasFlatten = true;
            } else {
                info.splits.push_back(d);
                if (d.kind == PartitionDirective::Kind::UniformOccupancy) {
                    info.occupancy = true;
                    if (!info.leader.empty() && info.leader != d.leader)
                        specError("einsum '", text, "': partitioning of '",
                                  info.base, "': conflicting leaders '",
                                  info.leader, "' and '", d.leader, "'");
                    info.leader = d.leader;
                }
            }
        }
        out.push_back(std::move(info));
    }
    return out;
}

/** Declared-rank position of @p rank_id in @p decl (SpecError if absent). */
std::size_t
declPosition(const std::vector<std::string>& decl,
             const std::string& rank_id, const std::string& tensor)
{
    for (std::size_t i = 0; i < decl.size(); ++i) {
        if (decl[i] == rank_id)
            return i;
    }
    specError("tensor '", tensor, "' has no declared rank '", rank_id,
              "'");
}

/** Find a loop index by rank name; -1 if absent. */
int
loopIndexOf(const std::vector<std::string>& loop_order,
            const std::string& rank)
{
    for (std::size_t i = 0; i < loop_order.size(); ++i) {
        if (loop_order[i] == rank)
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * Occupancy skew above which a 2-driver intersection plans the
 * galloping strategy: the sparse driver leads and binary-search leaps
 * skip runs of the dense driver, so the walk stops paying for the
 * dense fiber's length.
 */
constexpr double kGallopSkewThreshold = 32.0;

/**
 * Target rank order that makes @p components adjacent, in order, at
 * the position of their first occurrence; other ranks keep their
 * relative order. Needed before flattening.
 */
std::vector<std::string>
adjacentOrder(const std::vector<std::string>& ids,
              const std::vector<std::string>& components)
{
    std::size_t first = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (std::find(components.begin(), components.end(), ids[i]) !=
            components.end()) {
            first = std::min(first, i);
        }
    }
    std::vector<std::string> target;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i == first) {
            for (const std::string& c : components)
                target.push_back(c);
        }
        if (std::find(components.begin(), components.end(), ids[i]) ==
            components.end()) {
            target.push_back(ids[i]);
        }
    }
    return target;
}

/** Rank ids of @p ranks, in order. */
std::vector<std::string>
idsOf(const std::vector<ft::RankInfo>& ranks)
{
    std::vector<std::string> ids;
    ids.reserve(ranks.size());
    for (const ft::RankInfo& ri : ranks)
        ids.push_back(ri.id);
    return ids;
}

/**
 * What a partitioning group does to one tensor: transforms it
 * (flatten/split applied in place), dynamically follows it (occupancy
 * non-leader: Slice actions, no transform), or leaves it alone. The
 * single source of truth for group applicability — the packed
 * fast-path eligibility scan and the preparation loop both dispatch
 * on it, so they cannot diverge.
 */
enum class GroupEffect
{
    None,
    Transform,
    Follow,
};

GroupEffect
groupEffect(const RecipeGroup& g, const std::vector<std::string>& ids,
            const std::string& tensor_name)
{
    const auto has_rank = [&](const std::string& r) {
        return std::find(ids.begin(), ids.end(), r) != ids.end();
    };
    if (g.hasFlatten) {
        // All constituents present: the tensor is swizzled-adjacent,
        // flattened, and split. Partial constituents use lookups at
        // the flattened rank instead (no transform).
        return std::all_of(g.sourceRanks.begin(), g.sourceRanks.end(),
                           has_rank)
                   ? GroupEffect::Transform
                   : GroupEffect::None;
    }
    if (!has_rank(g.base))
        return GroupEffect::None;
    if (!g.occupancy || g.leader == tensor_name)
        return GroupEffect::Transform;
    return GroupEffect::Follow;
}

/**
 * Apply the split directives of @p info to @p t (rank @p info.base),
 * producing ranks named info.results top-down.
 */
void
applySplits(BindingSource::Input& t, const RecipeGroup& info)
{
    const std::size_t k = info.splits.size();
    for (std::size_t i = 0; i < k; ++i) {
        const std::string lower =
            i + 1 == k ? info.results[k] : info.base;
        t.split(info.base, info.splits[i], info.results[i], lower);
    }
}

/**
 * One live tensor being prepared: starts as a borrowed source and
 * becomes owned at the first transform, so inputs that need no
 * preparation are never deep-copied. Once owned, flatten and split
 * restructure the tree in place; a borrowed source is never mutated.
 */
class TensorInput final : public BindingSource::Input
{
  public:
    TensorInput(const ft::Tensor* src, bool share_unprepared)
        : src_(src), share_(share_unprepared)
    {
    }

    TensorInput(ft::Tensor owned, bool share_unprepared)
        : src_(nullptr), work_(std::move(owned)), owned_(true),
          share_(share_unprepared)
    {
    }

    const std::vector<ft::RankInfo>&
    ranks() const override
    {
        return get().ranks();
    }

    void
    swizzle(const std::vector<std::string>& order) override
    {
        replace(ft::swizzle(get(), order));
    }

    void
    flatten(const std::string& upper, const std::string& lower) override
    {
        transform([&](auto&& t) {
            return ft::flattenRanks(std::forward<decltype(t)>(t), upper,
                                    lower);
        });
    }

    void
    split(const std::string& rank, const PartitionDirective& d,
          const std::string& upper, const std::string& lower) override
    {
        transform([&](auto&& t) {
            return d.kind == PartitionDirective::Kind::UniformShape
                       ? ft::splitRankByShape(std::forward<decltype(t)>(t),
                                              rank, d.tile, upper, lower)
                       : ft::splitRankByOccupancy(
                             std::forward<decltype(t)>(t), rank, d.chunk,
                             upper, lower);
        });
    }

    std::vector<double>
    countsByDepth() const override
    {
        const std::vector<std::size_t>& c = counts();
        return {c.begin(), c.end()};
    }

    /** Leaves are the elements of the deepest level. */
    double
    nnz() const override
    {
        const std::vector<std::size_t>& c = counts();
        const std::size_t depth = get().numRanks();
        return c.size() >= depth ? static_cast<double>(c[depth - 1]) : 0.0;
    }

    std::vector<double>
    occupancyHints() const override
    {
        return ft::occupancyHintsFromCounts(counts(), get().numRanks());
    }

    void
    finish(TensorPlan& tp) override
    {
        if (owned_) {
            tp.prepared = std::move(work_);
            return;
        }
        // A plain Tensor copy shares the fiber tree (fibers are
        // shared_ptrs); execution never mutates input trees.
        tp.prepared = share_ ? *src_ : src_->clone();
    }

  private:
    const ft::Tensor& get() const { return owned_ ? work_ : *src_; }

    /** Per-depth element counts of the current state: one walk,
     *  shared by the merger estimate, nnz and the hints. */
    const std::vector<std::size_t>&
    counts() const
    {
        if (!counts_) {
            counts_.emplace();
            if (get().root() != nullptr)
                get().root()->elementCountsByDepth(*counts_);
        }
        return *counts_;
    }

    /** Apply @p fn to the owned tree (rvalue: in place) or to the
     *  borrowed source (const&: the transform copies). */
    template <typename Fn>
    void
    transform(const Fn& fn)
    {
        replace(owned_ ? fn(std::move(work_)) : fn(*src_));
    }

    void
    replace(ft::Tensor t)
    {
        work_ = std::move(t);
        owned_ = true;
        counts_.reset();
    }

    const ft::Tensor* src_;
    ft::Tensor work_;
    bool owned_ = false;
    bool share_;
    mutable std::optional<std::vector<std::size_t>> counts_;
};

/** The trace tier's binding source: live pointer and packed tensors. */
class TensorSource final : public BindingSource
{
  public:
    TensorSource(const std::string& einsum_text,
                 const TensorRefMap& tensors, const PackedRefMap& packed,
                 bool share_unprepared,
                 std::map<std::string, ft::Tensor>* unpack_cache)
        : text_(einsum_text), tensors_(tensors), packed_(packed),
          share_(share_unprepared), unpackCache_(unpack_cache)
    {
    }

    void
    forEachTensor(const std::function<void(
                      const std::string&,
                      const std::vector<ft::RankInfo>&)>& visit)
        const override
    {
        for (const auto& [name, tensor] : tensors_)
            visit(name, tensor->ranks());
        for (const auto& [name, pk] : packed_)
            visit(name, pk->ranks());
    }

    const std::vector<ft::RankInfo>*
    packedRanks(const std::string& name) const override
    {
        const auto pit = packed_.find(name);
        if (pit != packed_.end())
            return &pit->second->ranks();
        if (tensors_.count(name) == 0)
            noData(name);
        return nullptr;
    }

    std::vector<double>
    bindPacked(const std::string& name, TensorPlan& tp) override
    {
        const std::shared_ptr<const storage::PackedTensor>& pk =
            packed_.at(name);
        tp.packed = pk;
        // Rank-skeleton placeholder: the model reads rank metadata
        // off `prepared`; no fiber data exists.
        tp.prepared = ft::Tensor(name, pk->ranks());
        // Hints off the buffer lengths are bit-identical to the
        // unpacked tree's, so strategy selection (and every modeled
        // count) is backend-independent.
        return pk->occupancyHints();
    }

    std::unique_ptr<Input>
    open(const std::string& name) override
    {
        const auto it = tensors_.find(name);
        if (it != tensors_.end())
            return std::make_unique<TensorInput>(it->second, share_);
        const auto pit = packed_.find(name);
        if (pit == packed_.end())
            noData(name);
        // A packed input that needs preparation is unpacked — through
        // the caller's memo when one is provided, so a tensor is
        // unpacked at most once per workload, not once per slot and
        // Einsum.
        if (unpackCache_ == nullptr)
            return std::make_unique<TensorInput>(pit->second->toTensor(),
                                                 share_);
        auto cit = unpackCache_->find(name);
        if (cit == unpackCache_->end())
            cit = unpackCache_->emplace(name, pit->second->toTensor())
                      .first;
        return std::make_unique<TensorInput>(&cit->second, share_);
    }

  private:
    [[noreturn]] void
    noData(const std::string& name) const
    {
        specError("einsum '", text_, "': tensor '", name,
                  "' has no data");
    }

    const std::string& text_;
    const TensorRefMap& tensors_;
    const PackedRefMap& packed_;
    bool share_;
    std::map<std::string, ft::Tensor>* unpackCache_;
};

} // namespace

const char*
coiterStrategyName(CoiterStrategy s)
{
    switch (s) {
      case CoiterStrategy::TwoFinger:
        return "2finger";
      case CoiterStrategy::Gallop:
        return "gallop";
      case CoiterStrategy::DenseDrive:
        return "dense";
    }
    return "?";
}

const char*
packedWalkName(PackedWalk w)
{
    switch (w) {
      case PackedWalk::None:
        return "";
      case PackedWalk::Coords:
        return "coords";
      case PackedWalk::DenseImplicit:
        return "implicit";
      case PackedWalk::BitmapProbe:
        return "bitmap";
    }
    return "?";
}

std::string
EinsumPlan::toString() const
{
    std::ostringstream oss;
    oss << "plan for: " << expr.toString() << "\n";
    oss << "  loops:";
    for (const LoopRank& l : loops) {
        oss << " " << l.name;
        if (l.isSpace)
            oss << "(space)";
        if (l.isUpperPartition)
            oss << "(range)";
        if (l.coiter != CoiterStrategy::TwoFinger)
            oss << "(" << coiterStrategyName(l.coiter) << ")";
        if (l.packedWalk != PackedWalk::None)
            oss << "(" << packedWalkName(l.packedWalk) << ")";
    }
    oss << "\n";
    for (const TensorPlan& tp : inputs) {
        oss << "  " << tp.name << " [" << join(tp.prepared.rankIds(), ", ")
            << "]";
        if (tp.packed != nullptr)
            oss << " packed";
        if (tp.swizzled)
            oss << (tp.swizzleOnline ? " online-swizzle" : " swizzled");
        oss << ":";
        for (const LevelAction& a : tp.actions) {
            const char* mode = a.mode == LevelAction::Mode::CoIterate
                                   ? "co"
                                   : (a.mode == LevelAction::Mode::Slice
                                          ? "slice"
                                          : "lookup");
            oss << " L" << a.loopIndex << ":" << mode << "@" << a.level;
        }
        oss << "\n";
    }
    oss << "  output " << output.name << " produces ["
        << join(output.productionOrder, ", ") << "] stored ["
        << join(output.declaredOrder, ", ") << "]"
        << (output.needsReorder ? " (reorder)" : "") << "\n";
    return oss.str();
}

EinsumRecipe
analyzeEinsum(const einsum::Expression& expr,
              const einsum::EinsumSpec& spec,
              const mapping::MappingSpec& map)
{
    EinsumRecipe recipe;
    recipe.expr = expr;
    recipe.unionCombine = expr.kind == einsum::OpKind::Add;

    // Whole-tensor copy (P1 = P0) bypasses the loop nest entirely.
    if (expr.kind == einsum::OpKind::Assign && expr.output.indices.empty()) {
        recipe.wholeTensorCopy = true;
        return recipe;
    }

    const mapping::EinsumMapping& em = map.einsum(expr.output.name);
    recipe.groups = analyzeGroups(em, expr.text);

    // ------------------------------------------------------ loop order
    recipe.loopOrder = em.loopOrder;
    if (recipe.loopOrder.empty()) {
        // Default: iteration variables in Einsum order, expanding
        // partition groups at their first constituent.
        std::vector<const RecipeGroup*> emitted;
        for (const std::string& var : expr.iterationVars()) {
            const std::string rank = einsum::rankOfVar(var);
            const RecipeGroup* owner = nullptr;
            for (const RecipeGroup& g : recipe.groups) {
                const auto& src = g.sourceRanks;
                if (std::find(src.begin(), src.end(), rank) != src.end() ||
                    g.base == rank) {
                    owner = &g;
                    break;
                }
            }
            if (owner == nullptr) {
                recipe.loopOrder.push_back(rank);
            } else if (std::find(emitted.begin(), emitted.end(), owner) ==
                       emitted.end()) {
                for (const std::string& r : owner->results)
                    recipe.loopOrder.push_back(r);
                emitted.push_back(owner);
            }
        }
    }

    // -------------------------------------------- probe ranks (take)
    // Take ranks private to the non-copied operand become probes.
    if (expr.kind == einsum::OpKind::Take) {
        const TensorRef& other = expr.inputs[1 - expr.takeArg];
        const TensorRef& copied = expr.inputs[expr.takeArg];
        const auto copied_vars = copied.varNames();
        const auto out_vars = expr.outputVars();
        for (const std::string& v : other.varNames()) {
            const bool in_copied =
                std::find(copied_vars.begin(), copied_vars.end(), v) !=
                copied_vars.end();
            const bool in_out =
                std::find(out_vars.begin(), out_vars.end(), v) !=
                out_vars.end();
            if (!in_copied && !in_out)
                recipe.probeVars.push_back(v);
        }
    }

    // ------------------------------------------------------ spacetime
    for (const mapping::SpaceTimeEntry& e : em.space) {
        if (loopIndexOf(recipe.loopOrder, e.rank) < 0)
            specError("einsum '", expr.text, "': space rank '", e.rank,
                      "' is not in the loop order");
        recipe.space.push_back(e);
    }

    // ------------------------------------------ output storage order
    const auto odecl_it = spec.declaration.find(expr.output.name);
    if (odecl_it == spec.declaration.end())
        diagError("einsum", expr.output.name, "einsum '", expr.text,
                  "': undeclared output '", expr.output.name, "'");
    recipe.outputDeclaredOrder = map.hasRankOrder(expr.output.name)
                                     ? map.rankOrder(expr.output.name)
                                     : odecl_it->second;

    return recipe;
}

EinsumPlan
instantiatePlan(const EinsumRecipe& recipe, const einsum::EinsumSpec& spec,
                BindingSource& source,
                const std::vector<std::string>& intermediates)
{
    const einsum::Expression& expr = recipe.expr;

    EinsumPlan plan;
    plan.expr = expr;
    plan.unionCombine = recipe.unionCombine;

    if (recipe.wholeTensorCopy) {
        plan.wholeTensorCopy = true;
        TensorPlan tp;
        tp.name = expr.inputs[0].name;
        tp.exprInput = 0;
        source.open(tp.name)->finish(tp);
        plan.inputs.push_back(std::move(tp));
        plan.output.name = expr.output.name;
        return plan;
    }

    const std::vector<RecipeGroup>& groups = recipe.groups;
    const std::vector<std::string>& loop_order = recipe.loopOrder;

    // ---------------------------------------------------- rank shapes
    // Shape of each base rank, taken from every live declared tensor
    // (a rank's shape may only be discoverable from a tensor used by
    // a *different* Einsum of the cascade, e.g. Toeplitz S from F).
    std::map<std::string, ft::Coord> rank_shape;
    auto note_shapes = [&](const std::string& name,
                           const std::vector<ft::RankInfo>& ranks) {
        const auto decl_it = spec.declaration.find(name);
        if (decl_it == spec.declaration.end())
            return;
        const auto& decl = decl_it->second;
        for (const ft::RankInfo& ri : ranks) {
            if (std::find(decl.begin(), decl.end(), ri.id) != decl.end())
                rank_shape[ri.id] =
                    std::max(rank_shape[ri.id], ri.shape);
        }
    };
    source.forEachTensor(note_shapes);

    // Shape of each iteration variable's rank. The visiting set guards
    // against mutually-underconstrained affine shapes (T[q,s]=I[q+s]
    // with neither Q nor S known elsewhere).
    std::set<std::string> shape_visiting;
    std::function<ft::Coord(const std::string&)> var_shape =
        [&](const std::string& var) -> ft::Coord {
        if (!shape_visiting.insert(var).second)
            specError("einsum '", expr.text, "': the shapes of '", var,
                      "' and its affine partners are underconstrained");
        struct Eraser
        {
            std::set<std::string>& set;
            const std::string& var;
            ~Eraser() { set.erase(var); }
        } eraser{shape_visiting, var};
        std::string rank = einsum::rankOfVar(var);
        auto it = rank_shape.find(rank);
        if (it != rank_shape.end())
            return it->second;
        // Derived ranks (K0) inherit the base rank's shape.
        while (!rank.empty() &&
               std::isdigit(static_cast<unsigned char>(rank.back()))) {
            rank.pop_back();
            it = rank_shape.find(rank);
            if (it != rank_shape.end())
                return it->second;
        }
        // Affine derivation (e.g. conv Q): find an input slot whose
        // expression mentions var together with others.
        for (const TensorRef& in : expr.inputs) {
            const auto decl_it = spec.declaration.find(in.name);
            if (decl_it == spec.declaration.end())
                continue;
            for (std::size_t slot = 0; slot < in.indices.size(); ++slot) {
                const IndexExpr& ie = in.indices[slot];
                const auto found =
                    std::find(ie.vars.begin(), ie.vars.end(), var);
                if (found == ie.vars.end() || ie.vars.size() < 2)
                    continue;
                const auto sit =
                    rank_shape.find(decl_it->second[slot]);
                if (sit == rank_shape.end())
                    continue;
                ft::Coord shape = sit->second;
                for (const std::string& other : ie.vars) {
                    if (other != var)
                        shape -= var_shape(other) - 1;
                }
                return std::max<ft::Coord>(shape, 0);
            }
        }
        specError("einsum '", expr.text, "': cannot derive the shape of '",
                  var, "'");
    };

    // -------------------------------------------- loop rank metadata
    for (const std::string& name : loop_order) {
        LoopRank lr;
        lr.name = name;

        // Owning partition group, if any.
        const RecipeGroup* owner = nullptr;
        std::size_t pos_in_results = 0;
        for (const RecipeGroup& g : groups) {
            const auto it =
                std::find(g.results.begin(), g.results.end(), name);
            if (it != g.results.end()) {
                owner = &g;
                pos_in_results =
                    static_cast<std::size_t>(it - g.results.begin());
                break;
            }
        }

        auto bind_rank_vars = [&](const std::string& rank) {
            // A rank binds its base variable; flattened ranks bind one
            // variable per constituent with unpack strides. The rank
            // may have been produced by a *different* group's flatten
            // (SIGMA: occupancy on MK0, flattened by its own group).
            const RecipeGroup* g = nullptr;
            for (const RecipeGroup& cand : groups) {
                if (cand.hasFlatten && cand.base == rank)
                    g = &cand;
            }
            if (g != nullptr) {
                ft::Coord stride = 1;
                std::vector<ft::Coord> strides, shapes;
                std::vector<std::string> vars;
                const auto& src = g->sourceRanks;
                for (auto it = src.rbegin(); it != src.rend(); ++it) {
                    const std::string comp_base = baseOfDerived(*it);
                    const ft::Coord shape =
                        var_shape(einsum::varOfRank(comp_base));
                    strides.push_back(stride);
                    shapes.push_back(shape);
                    vars.push_back(einsum::varOfRank(comp_base));
                    stride *= shape;
                }
                std::reverse(strides.begin(), strides.end());
                std::reverse(shapes.begin(), shapes.end());
                std::reverse(vars.begin(), vars.end());
                lr.bindsVars = vars;
                lr.unpackStrides = strides;
                lr.unpackShapes = shapes;
            } else {
                lr.bindsVars = {einsum::varOfRank(rank)};
            }
        };

        if (owner == nullptr) {
            // Plain base rank.
            bind_rank_vars(name);
            lr.spaceExtent = static_cast<std::size_t>(
                std::max<ft::Coord>(var_shape(lr.bindsVars[0]), 1));
        } else if (pos_in_results + 1 == owner->results.size()) {
            // Group leaf: binds the base variables.
            bind_rank_vars(owner->base);
            if (!owner->splits.empty()) {
                const PartitionDirective& last = owner->splits.back();
                lr.spaceExtent =
                    last.kind == PartitionDirective::Kind::UniformShape
                        ? static_cast<std::size_t>(last.tile)
                        : last.chunk;
            } else {
                lr.spaceExtent = 1u << 20;
            }
        } else {
            // Upper partition rank: binds a coordinate range.
            lr.isUpperPartition = true;
            const PartitionDirective& d = owner->splits[pos_in_results];
            if (d.kind == PartitionDirective::Kind::UniformShape)
                lr.rangeTile = d.tile;
            // Extent = positions this rank can take inside its parent
            // tile: size(parent split) / size(this split). The topmost
            // rank's partition count is data-dependent (large cap).
            auto size_of = [](const PartitionDirective& dd) {
                return dd.kind == PartitionDirective::Kind::UniformShape
                           ? static_cast<std::size_t>(dd.tile)
                           : dd.chunk;
            };
            if (pos_in_results == 0) {
                lr.spaceExtent = 1u << 20;
            } else {
                const std::size_t above =
                    size_of(owner->splits[pos_in_results - 1]);
                const std::size_t mine = size_of(d);
                lr.spaceExtent =
                    mine > 0 ? std::max<std::size_t>(above / mine, 1)
                             : 1;
            }
        }

        // Probe-only ranks (take).
        for (const std::string& v : lr.bindsVars) {
            if (std::find(recipe.probeVars.begin(),
                          recipe.probeVars.end(),
                          v) != recipe.probeVars.end())
                lr.probeOnly = true;
        }

        plan.loops.push_back(std::move(lr));
    }

    // Variable binding points.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        for (const std::string& v : plan.loops[i].bindsVars) {
            plan.varBoundAt[v] = static_cast<int>(i);
            // Derived leaf ranks also bind their base variable (the
            // coordinates are absolute), e.g. K0 binds both k0 and k.
            const std::string base_var = einsum::varOfRank(
                baseOfDerived(einsum::rankOfVar(v)));
            if (base_var != v && !plan.varBoundAt.count(base_var))
                plan.varBoundAt[base_var] = static_cast<int>(i);
        }
    }
    // Leaf split ranks named e.g. K0 bind variable "k0"; expression
    // slots use "k". Register the base var for every group leaf.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        const LoopRank& lr = plan.loops[i];
        if (lr.isUpperPartition)
            continue;
        for (const std::string& v : lr.bindsVars) {
            const std::string base =
                einsum::varOfRank(baseOfDerived(einsum::rankOfVar(v)));
            if (!plan.varBoundAt.count(base))
                plan.varBoundAt[base] = static_cast<int>(i);
        }
    }

    // Spacetime flags (validated at analysis time).
    for (const mapping::SpaceTimeEntry& e : recipe.space) {
        const int idx = loopIndexOf(loop_order, e.rank);
        TEAAL_ASSERT(idx >= 0, "space rank '", e.rank,
                     "' vanished from the loop order");
        plan.loops[static_cast<std::size_t>(idx)].isSpace = true;
        plan.loops[static_cast<std::size_t>(idx)].coordSpace =
            e.coordSpace;
    }

    // ------------------------------------------------ input tensors
    /// An action to assign to one tensor level, keyed by rank id first
    /// (levels shift after the concordance swizzle).
    struct PendingAction
    {
        std::string rankId;
        LevelAction::Mode mode;
        int loopIndex;
        IndexExpr expr;
    };

    std::vector<std::vector<double>> input_hints;
    for (std::size_t slot = 0; slot < expr.inputs.size(); ++slot) {
        const TensorRef& ref = expr.inputs[slot];
        const std::vector<ft::RankInfo>* packed_ranks =
            source.packedRanks(ref.name);
        const auto decl_it = spec.declaration.find(ref.name);
        if (decl_it == spec.declaration.end())
            specError("einsum '", expr.text, "': undeclared tensor '",
                      ref.name, "'");
        const std::vector<std::string>& decl = decl_it->second;

        TensorPlan tp;
        tp.name = ref.name;
        tp.exprInput = static_cast<int>(slot);

        // Assign an action to every level of @p ranks_in, given the
        // dynamic-follower groups of this tensor. Shared between the
        // packed fast path (original rank order, no transforms) and
        // the prepared pointer path (post-transform rank order).
        auto compute_pending =
            [&](const std::vector<ft::RankInfo>& ranks_in,
                const std::vector<const RecipeGroup*>& follower_of)
            -> std::vector<PendingAction> {
            std::vector<PendingAction> pending;
            for (const ft::RankInfo& ri : ranks_in) {
                const std::string& rid = ri.id;
                const int direct = loopIndexOf(loop_order, rid);
                if (direct >= 0) {
                    pending.push_back({rid, LevelAction::Mode::CoIterate,
                                       direct, {}});
                    continue;
                }
                // Dynamic follower base rank?
                const RecipeGroup* follow = nullptr;
                for (const RecipeGroup* g : follower_of) {
                    if (g->base == rid)
                        follow = g;
                }
                if (follow != nullptr) {
                    for (std::size_t i = 0;
                         i + 1 < follow->results.size(); ++i) {
                        const int idx =
                            loopIndexOf(loop_order, follow->results[i]);
                        if (idx < 0)
                            specError("einsum '", expr.text, "': rank '",
                                      follow->results[i],
                                      "' missing from the loop order");
                        pending.push_back(
                            {rid, LevelAction::Mode::Slice, idx, {}});
                    }
                    const int leaf =
                        loopIndexOf(loop_order, follow->results.back());
                    if (leaf < 0)
                        specError("einsum '", expr.text, "': rank '",
                                  follow->results.back(),
                                  "' missing from the loop order");
                    pending.push_back(
                        {rid, LevelAction::Mode::CoIterate, leaf, {}});
                    continue;
                }
                // Lookup: resolve the expression slot via the declared
                // rank — exact id first (real rank names may end in
                // digits, e.g. the FFT's N1), then the digit-stripped
                // base of partition-derived names.
                std::size_t dpos;
                if (std::find(decl.begin(), decl.end(), rid) !=
                    decl.end()) {
                    dpos = declPosition(decl, rid, ref.name);
                } else {
                    dpos =
                        declPosition(decl, baseOfDerived(rid), ref.name);
                }
                IndexExpr ie = ref.indices.empty()
                                   ? IndexExpr{}
                                   : ref.indices[dpos];
                int trigger = 0;
                for (const std::string& v : ie.vars) {
                    const auto bit = plan.varBoundAt.find(v);
                    if (bit == plan.varBoundAt.end())
                        specError("einsum '", expr.text,
                                  "': variable '", v, "' used by ",
                                  ref.name,
                                  " is never bound by the loop order");
                    trigger = std::max(trigger, bit->second);
                }
                pending.push_back({rid, LevelAction::Mode::Lookup,
                                   trigger, std::move(ie)});
            }
            // Lookups cannot fire before their tree parents are
            // descended, so clamp them to the running maximum in
            // level order. CoIterate loop indices come from the loop
            // order and are never clamped: the concordance swizzle
            // reorders the tree instead (e.g. MTTKRP's B[j,r]
            // traversed [R, J]).
            int running = -1;
            for (PendingAction& pa : pending) {
                if (pa.mode == LevelAction::Mode::Slice)
                    continue;
                if (pa.mode == LevelAction::Mode::Lookup)
                    pa.loopIndex = std::max(pa.loopIndex, running);
                running = std::max(running, pa.loopIndex);
            }
            return pending;
        };

        // Concordant order: non-slice actions sorted by (loopIndex,
        // original level) — the rank order the walked tree must have
        // (§3.2.2). Stable sort keeps ties in tree order.
        auto required_of =
            [](const std::vector<PendingAction>& pending) {
                std::vector<const PendingAction*> nav;
                for (const PendingAction& pa : pending) {
                    if (pa.mode != LevelAction::Mode::Slice)
                        nav.push_back(&pa);
                }
                std::stable_sort(nav.begin(), nav.end(),
                                 [](const PendingAction* a,
                                    const PendingAction* b) {
                                     return a->loopIndex < b->loopIndex;
                                 });
                std::vector<std::string> required;
                for (const PendingAction* pa : nav)
                    required.push_back(pa->rankId);
                return required;
            };

        std::vector<PendingAction> pending;
        std::vector<double> hints;

        // ---- packed fast path: bind the packed rank store directly
        // when no partitioning transform touches this tensor and its
        // rank order is already concordant — zero fibertree
        // construction, the engine walks the packed buffers.
        bool bound = false;
        if (packed_ranks != nullptr) {
            const auto pk_ids = idsOf(*packed_ranks);
            bool transforms = false;
            std::vector<const RecipeGroup*> pk_followers;
            for (const RecipeGroup& g : groups) {
                switch (groupEffect(g, pk_ids, ref.name)) {
                  case GroupEffect::Transform:
                    transforms = true;
                    break;
                  case GroupEffect::Follow:
                    pk_followers.push_back(&g);
                    break;
                  case GroupEffect::None:
                    break;
                }
            }
            if (!transforms) {
                pending = compute_pending(*packed_ranks, pk_followers);
                if (required_of(pending) == pk_ids) {
                    hints = source.bindPacked(ref.name, tp);
                    bound = true;
                } else {
                    pending.clear();
                }
            }
        }

        // ---- preparation path (packed inputs that need preparation
        // are unpacked by the source).
        if (!bound) {
            const std::unique_ptr<BindingSource::Input> in =
                source.open(ref.name);

            // Dynamic-follower groups for this tensor.
            std::vector<const RecipeGroup*> follower_of;

            // Apply partitioning groups in order (same applicability
            // predicate the packed eligibility scan used).
            for (const RecipeGroup& g : groups) {
                switch (groupEffect(g, idsOf(in->ranks()), ref.name)) {
                  case GroupEffect::Transform:
                    if (g.hasFlatten) {
                        const auto& src_ranks = g.sourceRanks;
                        const auto ids = idsOf(in->ranks());
                        const auto target = adjacentOrder(ids, src_ranks);
                        if (target != ids)
                            in->swizzle(target);
                        // Flatten pairwise left-to-right.
                        std::string upper = src_ranks[0];
                        for (std::size_t i = 1; i < src_ranks.size();
                             ++i) {
                            in->flatten(upper, src_ranks[i]);
                            upper += src_ranks[i];
                        }
                        TEAAL_ASSERT(upper == g.base, "flatten naming");
                    }
                    applySplits(*in, g);
                    break;
                  case GroupEffect::Follow:
                    follower_of.push_back(&g);
                    break;
                  case GroupEffect::None:
                    // Flatten groups with only some constituents use
                    // lookups at the flattened rank (handled below).
                    break;
                }
            }

            pending = compute_pending(in->ranks(), follower_of);
            const std::vector<std::string> required =
                required_of(pending);
            const std::vector<std::string> old_ids = idsOf(in->ranks());
            if (required != old_ids) {
                // Estimate merger "ways" before destroying the old
                // order: occupancy of the shallowest rank moving deeper.
                std::size_t ways = 2;
                for (std::size_t lvl = 0; lvl < old_ids.size(); ++lvl) {
                    const auto npos =
                        std::find(required.begin(), required.end(),
                                  old_ids[lvl]);
                    const std::size_t new_lvl = static_cast<std::size_t>(
                        npos - required.begin());
                    if (new_lvl > lvl) {
                        const std::vector<double> counts =
                            in->countsByDepth();
                        if (lvl < counts.size()) {
                            const double fibers_above =
                                lvl == 0 ? 1.0 : counts[lvl - 1];
                            if (fibers_above > 0)
                                ways = std::max<std::size_t>(
                                    2, static_cast<std::size_t>(
                                           counts[lvl] / fibers_above) +
                                           1);
                        }
                        break;
                    }
                }
                tp.swizzled = true;
                tp.swizzleOnline =
                    std::find(intermediates.begin(), intermediates.end(),
                              ref.name) != intermediates.end();
                tp.swizzleElements =
                    static_cast<std::size_t>(std::llround(in->nnz()));
                tp.swizzleWays = ways;
                in->swizzle(required);
            }

            hints = in->occupancyHints();
            in->finish(tp);
        }

        // Materialize final actions with post-swizzle levels.
        for (const PendingAction& pa : pending) {
            LevelAction a;
            a.mode = pa.mode;
            a.loopIndex = pa.loopIndex;
            a.expr = pa.expr;
            const int lvl = tp.prepared.rankLevel(pa.rankId);
            TEAAL_ASSERT(lvl >= 0, "rank '", pa.rankId,
                         "' lost during preparation of ", ref.name);
            a.level = lvl;
            tp.actions.push_back(std::move(a));
        }
        std::sort(tp.actions.begin(), tp.actions.end(),
                  [](const LevelAction& a, const LevelAction& b) {
                      if (a.loopIndex != b.loopIndex)
                          return a.loopIndex < b.loopIndex;
                      if (a.level != b.level)
                          return a.level < b.level;
                      // Slice before CoIterate at the same level.
                      return static_cast<int>(a.mode) >
                             static_cast<int>(b.mode);
                  });

        plan.inputs.push_back(std::move(tp));
        input_hints.push_back(std::move(hints));
    }

    // Dense extents and co-iteration strategies: ranks binding
    // variables with no co-iterating driver iterate the variable's
    // shape range (DenseDrive); intersections of two drivers with
    // strongly skewed occupancy hints plan the galloping walk.
    // Occupancy hints were gathered once per input (one O(nnz)
    // traversal each); every per-level occupancy below indexes them.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        LoopRank& lr = plan.loops[i];
        std::vector<double> occupancies;
        for (std::size_t t = 0; t < plan.inputs.size(); ++t) {
            for (const LevelAction& a : plan.inputs[t].actions) {
                if (a.loopIndex == static_cast<int>(i) &&
                    a.mode == LevelAction::Mode::CoIterate) {
                    const auto lvl = static_cast<std::size_t>(a.level);
                    occupancies.push_back(
                        lvl < input_hints[t].size()
                            ? input_hints[t][lvl]
                            : 0.0);
                }
            }
        }
        if (occupancies.empty()) {
            if (lr.isUpperPartition)
                specError("einsum '", expr.text, "': partition rank '",
                          lr.name, "' has no driving tensor");
            TEAAL_ASSERT(!lr.bindsVars.empty(), "rank ", lr.name,
                         " binds nothing and drives nothing");
            lr.denseExtent = var_shape(lr.bindsVars[0]);
            lr.coiter = CoiterStrategy::DenseDrive;
            continue;
        }
        const double densest =
            *std::max_element(occupancies.begin(), occupancies.end());
        const double sparsest =
            *std::min_element(occupancies.begin(), occupancies.end());
        lr.driverSkew = sparsest > 0 ? densest / sparsest
                                     : (densest > 0 ? densest : 1.0);
        // Galloping only pays off for intersections (union must visit
        // every element of every driver anyway). Upper partition
        // ranks stay on two-finger: their range ends come from the
        // first driver's next coordinate, and gallop's leader-based
        // range end is not equivalent when the leader differs.
        if (!plan.unionCombine && occupancies.size() == 2 &&
            !lr.isUpperPartition &&
            lr.driverSkew >= kGallopSkewThreshold) {
            lr.coiter = CoiterStrategy::Gallop;
        }
    }

    // Packed-walk variants: for every loop rank with a packed driver,
    // record how its packed buffers are accessed, from the driver
    // level's declared format — gallop/two-finger over the raw
    // coordinate array (C), implicit-coordinate probes (U), bitmap
    // probes (B). Purely a host-side access note: `coiter` and the
    // charged counts are unchanged.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        LoopRank& lr = plan.loops[i];
        for (const TensorPlan& tp : plan.inputs) {
            if (tp.packed == nullptr)
                continue;
            for (const LevelAction& a : tp.actions) {
                if (a.loopIndex != static_cast<int>(i) ||
                    a.mode != LevelAction::Mode::CoIterate)
                    continue;
                PackedWalk w = PackedWalk::Coords;
                switch (tp.packed->levelType(
                    static_cast<std::size_t>(a.level))) {
                  case fmt::RankFormat::Type::U:
                    w = PackedWalk::DenseImplicit;
                    break;
                  case fmt::RankFormat::Type::B:
                    w = PackedWalk::BitmapProbe;
                    break;
                  case fmt::RankFormat::Type::C:
                    w = PackedWalk::Coords;
                    break;
                }
                if (static_cast<int>(w) >
                    static_cast<int>(lr.packedWalk))
                    lr.packedWalk = w;
            }
        }
    }

    // ------------------------------------------------------- output
    OutputPlan& out = plan.output;
    out.name = expr.output.name;
    const auto odecl_it = spec.declaration.find(out.name);
    TEAAL_ASSERT(odecl_it != spec.declaration.end(),
                 "undeclared output '", out.name, "'");
    const std::vector<std::string>& odecl = odecl_it->second;

    struct OutLevel
    {
        std::string rank;
        std::string var;
        int boundAt;
        int tieBreak;
    };
    std::vector<OutLevel> levels;
    for (std::size_t slot = 0; slot < expr.output.indices.size(); ++slot) {
        const std::string var = expr.output.indices[slot].vars[0];
        const auto bit = plan.varBoundAt.find(var);
        if (bit == plan.varBoundAt.end())
            specError("einsum '", expr.text, "': output variable '", var,
                      "' is never bound");
        const LoopRank& lr =
            plan.loops[static_cast<std::size_t>(bit->second)];
        int tie = 0;
        for (std::size_t i = 0; i < lr.bindsVars.size(); ++i) {
            if (lr.bindsVars[i] == var ||
                einsum::varOfRank(baseOfDerived(
                    einsum::rankOfVar(lr.bindsVars[i]))) == var)
                tie = static_cast<int>(i);
        }
        levels.push_back(
            {odecl[slot], var, bit->second, tie});
    }
    std::stable_sort(levels.begin(), levels.end(),
                     [](const OutLevel& a, const OutLevel& b) {
                         if (a.boundAt != b.boundAt)
                             return a.boundAt < b.boundAt;
                         return a.tieBreak < b.tieBreak;
                     });
    for (const OutLevel& l : levels) {
        out.productionOrder.push_back(l.rank);
        out.vars.push_back(l.var);
        out.boundAtLoop.push_back(l.boundAt);
        out.shapes.push_back(var_shape(l.var));
    }
    out.declaredOrder = recipe.outputDeclaredOrder;
    out.needsReorder = out.productionOrder != out.declaredOrder;
    return plan;
}

EinsumPlan
instantiatePlan(const EinsumRecipe& recipe, const einsum::EinsumSpec& spec,
                const TensorRefMap& tensors,
                const std::vector<std::string>& intermediates,
                bool share_unprepared, const PackedRefMap& packed,
                std::map<std::string, ft::Tensor>* unpack_cache)
{
    TensorSource source(recipe.expr.text, tensors, packed,
                        share_unprepared, unpack_cache);
    EinsumPlan plan = instantiatePlan(recipe, spec, source, intermediates);
    plan.shard = analyzeSharding(plan);
    return plan;
}

namespace
{

constexpr std::size_t kInnerMinTopEntries = 4;

bool
inOutput(const std::vector<std::string>& out_vars, const std::string& v)
{
    return std::find(out_vars.begin(), out_vars.end(), v) !=
           out_vars.end();
}

/**
 * Finish a ShardPlan for sharding loop @p depth (rank @p rank) given
 * the variables the loops 0..depth bind or restrict: pick the merge
 * (Disjoint vs Reduce) from whether any of those variables is a
 * contraction (partial outputs then overlap), and reject the one
 * unmergeable combination — a take whose sharded prefix restricts the
 * probe variable, since its idempotent leaf writes would double-count
 * under a semiring-add merge.
 */
ShardPlan
classifyShard(ShardPlan sp, const einsum::Expression& expr,
              std::size_t depth, const std::string& rank,
              const std::vector<std::string>& prefix_vars)
{
    const std::vector<std::string> out_vars = expr.outputVars();
    // A scalar output is the degenerate reduction: every shard writes
    // the single output point.
    bool reduce = out_vars.empty();
    std::string contraction;
    for (const std::string& v : prefix_vars) {
        if (!inOutput(out_vars, v)) {
            reduce = true;
            contraction = v;
        }
    }
    if (reduce && expr.kind == einsum::OpKind::Take) {
        sp.shardable = false;
        sp.reason = "rank '" + rank + "' restricts variable '" +
                    contraction +
                    "' of a take (idempotent writes cannot "
                    "reduce-merge)";
        return sp;
    }
    sp.shardable = true;
    sp.rank = rank;
    sp.depth = depth;
    sp.reduceMerge = reduce;
    sp.mode = depth > 0 ? ShardPlan::Mode::Inner
                        : (reduce ? ShardPlan::Mode::Reduce
                                  : ShardPlan::Mode::Disjoint);
    return sp;
}

/**
 * The variables loop @p idx of @p plan binds or — via the other loops
 * of its partition group (M1 restricts m, bound at M0) — restricts,
 * as base variables.
 */
std::vector<std::string>
loopGroupVars(const EinsumPlan& plan, std::size_t idx)
{
    const std::string base = baseOfDerived(plan.loops[idx].name);
    std::vector<std::string> vars;
    for (const LoopRank& lr : plan.loops) {
        if (baseOfDerived(lr.name) != base)
            continue;
        for (const std::string& v : lr.bindsVars) {
            const std::string bv = einsum::varOfRank(
                baseOfDerived(einsum::rankOfVar(v)));
            if (std::find(vars.begin(), vars.end(), bv) == vars.end())
                vars.push_back(bv);
        }
    }
    return vars;
}

/** True when any input carries a Lookup action at loop @p idx. */
bool
loopHasLookup(const EinsumPlan& plan, std::size_t idx)
{
    for (const TensorPlan& tp : plan.inputs) {
        for (const LevelAction& a : tp.actions) {
            if (a.loopIndex == static_cast<int>(idx) &&
                a.mode == LevelAction::Mode::Lookup)
                return true;
        }
    }
    return false;
}

/**
 * Estimated entry count of the top walk: the smallest driver root
 * occupancy (the walk is an intersection), the dense extent when no
 * driver co-iterates, 1 for a probe-only top.
 */
std::size_t
estimateTopEntries(const EinsumPlan& plan)
{
    if (plan.loops[0].probeOnly)
        return 1;
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (const TensorPlan& tp : plan.inputs) {
        for (const LevelAction& a : tp.actions) {
            if (a.loopIndex != 0 ||
                a.mode != LevelAction::Mode::CoIterate)
                continue;
            const std::size_t occ =
                tp.packed != nullptr
                    ? tp.packed->rootView().size()
                    : (tp.prepared.root() ? tp.prepared.root()->size()
                                          : 0);
            best = std::min(best, occ);
        }
    }
    if (best == std::numeric_limits<std::size_t>::max())
        best = static_cast<std::size_t>(
            std::max<ft::Coord>(plan.loops[0].denseExtent, 0));
    return best;
}

/**
 * Per-input work-weighting factors for sharding loop @p depth:
 * expected leaves below one *child* of that input's driver fiber,
 * i.e. the product of the input's occupancy hints strictly below the
 * child level (a leaf-level driver scores 1 per element). Inputs
 * without a driver at @p depth get 0 and contribute nothing.
 */
std::vector<double>
driverWeightsAt(const EinsumPlan& plan, std::size_t depth)
{
    std::vector<double> w(plan.inputs.size(), 0.0);
    for (std::size_t t = 0; t < plan.inputs.size(); ++t) {
        const TensorPlan& tp = plan.inputs[t];
        int level = -1;
        for (const LevelAction& a : tp.actions) {
            if (a.loopIndex == static_cast<int>(depth) &&
                a.mode == LevelAction::Mode::CoIterate)
                level = a.level;
        }
        if (level < 0)
            continue;
        const std::vector<double> hints =
            tp.packed != nullptr ? tp.packed->occupancyHints()
                                 : tp.prepared.occupancyHints();
        double factor = 1.0;
        for (std::size_t l = static_cast<std::size_t>(level) + 2;
             l < hints.size(); ++l)
            factor *= std::max(hints[l], 1.0);
        w[t] = factor;
    }
    return w;
}

} // namespace

ShardPlan
analyzeSharding(const EinsumRecipe& recipe)
{
    ShardPlan sp;
    if (!recipe.space.empty())
        sp.spaceRank = recipe.space.front().rank;
    auto reject = [&sp](std::string why) {
        sp.shardable = false;
        sp.reason = std::move(why);
        return sp;
    };
    if (recipe.wholeTensorCopy)
        return reject("whole-tensor copy bypasses the loop nest");
    if (recipe.loopOrder.empty())
        return reject("no loop ranks");
    const std::string top = recipe.loopOrder[0];
    const std::string base = baseOfDerived(top);
    // Variables the top rank binds or (via its partition group's leaf
    // rank) range-restricts: a flattened base contributes one variable
    // per constituent rank.
    std::vector<std::string> vars;
    const RecipeGroup* flat = nullptr;
    for (const RecipeGroup& g : recipe.groups) {
        if (g.hasFlatten && g.base == base)
            flat = &g;
    }
    if (flat != nullptr) {
        for (const std::string& src : flat->sourceRanks)
            vars.push_back(einsum::varOfRank(baseOfDerived(src)));
    } else {
        vars.push_back(einsum::varOfRank(base));
    }
    // Lookup actions and occupancy only exist on instantiated plans,
    // so the precomputed answer reports the depth-0 modes; the
    // plan-level overload may still fall through to Mode::Inner.
    return classifyShard(std::move(sp), recipe.expr, 0, top, vars);
}

ShardPlan
analyzeSharding(const EinsumPlan& plan)
{
    ShardPlan sp;
    for (const LoopRank& lr : plan.loops) {
        if (lr.isSpace) {
            sp.spaceRank = lr.name;
            break;
        }
    }
    auto reject = [&sp](std::string why) {
        sp.shardable = false;
        sp.reason = std::move(why);
        return sp;
    };
    if (plan.wholeTensorCopy)
        return reject("whole-tensor copy bypasses the loop nest");
    if (plan.loops.empty())
        return reject("no loop ranks");

    const std::string top = plan.loops[0].name;
    std::vector<std::string> vars = loopGroupVars(plan, 0);

    // Depth 0 — the outermost rank — unless it is unshardable:
    // loop-entry lookups would re-fire per shard, a rank binding no
    // variable partitions nothing, and a walk thinner than a few
    // entries cannot feed a pool. Those fall through to the loop
    // below (Mode::Inner) instead of rejecting the plan.
    std::string why_inner;
    if (loopHasLookup(plan, 0))
        why_inner = "rank '" + top + "' carries lookup actions";
    else if (vars.empty())
        why_inner = "rank '" + top + "' binds no index variable";
    else if (estimateTopEntries(plan) < kInnerMinTopEntries)
        why_inner = "rank '" + top + "' walks too few entries";

    if (why_inner.empty()) {
        sp = classifyShard(std::move(sp), plan.expr, 0, top, vars);
        if (sp.shardable)
            sp.driverWeight = driverWeightsAt(plan, 0);
        return sp;
    }
    if (plan.loops.size() < 2)
        return reject(why_inner + " and no inner loop exists");

    // Inner fall-through: shard loop 1's walk below each top
    // coordinate. The merge classifies over everything loops 0 and 1
    // bind or restrict (partials span both).
    for (const std::string& v : loopGroupVars(plan, 1)) {
        if (std::find(vars.begin(), vars.end(), v) == vars.end())
            vars.push_back(v);
    }
    sp = classifyShard(std::move(sp), plan.expr, 1, plan.loops[1].name,
                       vars);
    if (sp.shardable)
        sp.driverWeight = driverWeightsAt(plan, 1);
    return sp;
}

EinsumPlan
buildPlan(const einsum::Expression& expr, const einsum::EinsumSpec& spec,
          const mapping::MappingSpec& map,
          const std::map<std::string, ft::Tensor>& tensors,
          const std::vector<std::string>& intermediates)
{
    TensorRefMap refs;
    for (const auto& [name, tensor] : tensors)
        refs.emplace(name, &tensor);
    return instantiatePlan(analyzeEinsum(expr, spec, map), spec, refs,
                           intermediates, /*share_unprepared=*/false);
}

} // namespace teaal::ir
