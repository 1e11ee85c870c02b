/**
 * @file
 * Tests for the analytic model tier (model/analytic/): the shared
 * occupancy-hint helper, the symbolic statistics algebra, and the
 * headline accuracy contract — the analytic estimate tracks the trace
 * simulator within a bounded relative factor on all four Table 1
 * accelerators, for pointer and packed workloads alike.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "fibertree/occupancy.hpp"
#include "fibertree/transform.hpp"
#include "model/analytic/estimator.hpp"
#include "storage/packed.hpp"
#include "tuner/search_space.hpp"
#include "util/logging.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

using compiler::Workload;

// ------------------------------------------------ occupancy helper

TEST(OccupancyHints, SharedHelperMatchesManualRatios)
{
    const std::vector<std::size_t> counts{4, 12, 60};
    const auto hints = ft::occupancyHintsFromCounts(counts, 3);
    ASSERT_EQ(hints.size(), 3u);
    EXPECT_DOUBLE_EQ(hints[0], 4.0);
    EXPECT_DOUBLE_EQ(hints[1], 3.0);
    EXPECT_DOUBLE_EQ(hints[2], 5.0);
}

TEST(OccupancyHints, ZeroAndShortCountsAreSafe)
{
    const auto empty =
        ft::occupancyHintsFromCounts(std::vector<std::size_t>{}, 2);
    ASSERT_EQ(empty.size(), 2u);
    EXPECT_DOUBLE_EQ(empty[0], 0.0);
    EXPECT_DOUBLE_EQ(empty[1], 0.0);
    const std::vector<std::size_t> zeros{0, 0};
    const auto z = ft::occupancyHintsFromCounts(zeros, 2);
    EXPECT_DOUBLE_EQ(z[0], 0.0);
    EXPECT_DOUBLE_EQ(z[1], 0.0);
}

TEST(OccupancyHints, TensorAndPackedAgree)
{
    const ft::Tensor t =
        workloads::uniformMatrix("A", 40, 30, 300, 7, {"K", "M"});
    const auto packed = storage::PackedTensor::fromTensor(t);
    const auto th = t.occupancyHints();
    const auto ph = packed.occupancyHints();
    ASSERT_EQ(th.size(), ph.size());
    for (std::size_t l = 0; l < th.size(); ++l)
        EXPECT_NEAR(th[l], ph[l], 1e-9) << "level " << l;
}

// ------------------------------------------- symbolic statistics

TEST(SymbolicStats, ExpectedDistinctBounds)
{
    namespace an = model::analytic;
    EXPECT_DOUBLE_EQ(an::expectedDistinct(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(an::expectedDistinct(5, 1), 1.0);
    // Never exceeds draws or universe.
    EXPECT_LE(an::expectedDistinct(50, 100), 50.0);
    EXPECT_LE(an::expectedDistinct(1000, 100), 100.0);
    // Many draws saturate the universe.
    EXPECT_NEAR(an::expectedDistinct(1e6, 100), 100.0, 1e-6);
    // Few draws from a huge universe are almost all distinct.
    EXPECT_NEAR(an::expectedDistinct(10, 1e12), 10.0, 1e-6);
}

TEST(SymbolicStats, FromHintsAndTransformsPreserveNnz)
{
    namespace an = model::analytic;
    const ft::Tensor t =
        workloads::uniformMatrix("A", 64, 48, 500, 11, {"K", "M"});
    const auto sym = an::SymbolicTensor::fromHints(
        "A", t.ranks(), t.occupancyHints());
    EXPECT_NEAR(sym.nnz(), 500.0, 1e-6);

    const auto sw = an::swizzle(sym, {"M", "K"});
    EXPECT_NEAR(sw.nnz(), 500.0, 1e-6);
    EXPECT_EQ(sw.rankIds(), (std::vector<std::string>{"M", "K"}));

    const auto split = an::splitRankByShape(sym, "K", 16, "K1", "K0");
    EXPECT_NEAR(split.nnz(), 500.0, 1e-6);
    EXPECT_EQ(split.rankIds(),
              (std::vector<std::string>{"K1", "K0", "M"}));
    // Tiles per fiber never exceed the tile count or the occupancy.
    EXPECT_LE(split.counts[0], 4.0 + 1e-9);

    const auto flat = an::flattenRanks(sw, "M", "K");
    EXPECT_NEAR(flat.nnz(), 500.0, 1e-6);
    ASSERT_EQ(flat.ranks.size(), 1u);
    EXPECT_TRUE(flat.ranks[0].isFlattened());
    EXPECT_EQ(flat.ranks[0].shape, 48 * 64);
}

// ------------------------------------------------- accuracy bounds

struct AccuracyCase
{
    const char* name;
    compiler::Specification (*make)();
    /// Multiplicative accuracy bound: estimate/trace and trace/
    /// estimate both stay below this factor. Calibrated empirically
    /// (see bench/micro_analytic.cpp) with margin; the contract the
    /// autotuner relies on is *rank stability*, so a small constant
    /// factor is what matters, not percent-level agreement.
    double trafficBound;
    double computeBound;
    double secondsBound;
};

compiler::Specification
makeGamma()
{
    return accel::gamma();
}
compiler::Specification
makeOuterSpace()
{
    return accel::outerSpace();
}
compiler::Specification
makeExtensor()
{
    accel::ExTensorConfig cfg;
    // Tile the test-sized operands meaningfully (defaults are sized
    // for full-scale matrices and would degenerate to one tile).
    cfg.tileK1 = 512;
    cfg.tileK0 = 64;
    cfg.tileM1 = 512;
    cfg.tileM0 = 64;
    cfg.tileN1 = 512;
    cfg.tileN0 = 64;
    return accel::extensor(cfg);
}
compiler::Specification
makeSigma()
{
    return accel::sigma();
}

double
sumCounter(const std::vector<model::EinsumRecord>& records,
           const std::string& key)
{
    double total = 0;
    for (const model::EinsumRecord& r : records) {
        for (const auto& [name, ca] : r.components) {
            const auto it = ca.counts.find(key);
            if (it != ca.counts.end())
                total += it->second;
        }
    }
    return total;
}

double
ratioOf(double est, double ref)
{
    if (ref <= 0 && est <= 0)
        return 1.0;
    if (ref <= 0 || est <= 0)
        return std::numeric_limits<double>::infinity();
    return est > ref ? est / ref : ref / est;
}

void
checkAccuracy(const AccuracyCase& c, bool packed)
{
    SCOPED_TRACE(std::string(c.name) + (packed ? " packed" : " pointer"));
    // Uniform random operands: the analytic tier is an expected-value
    // model under uniform occupancy, so this is the distribution its
    // accuracy contract is stated on. (On skewed inputs the *ranking*
    // remains useful — see the autotuner tests — but first-moment
    // hints cannot see Sum(na_k * nb_k) correlation.)
    const ft::Tensor a =
        workloads::uniformMatrix("A", 600, 500, 4000, 21, {"K", "M"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", 600, 550, 4000, 22, {"K", "N"});

    auto model = compiler::compile(c.make());
    Workload w;
    if (packed) {
        w.add("A", storage::PackedTensor::fromTensor(
                       a, model.spec().formats.getLenient("A")));
        w.add("B", storage::PackedTensor::fromTensor(
                       b, model.spec().formats.getLenient("B")));
    } else {
        w.add("A", a).add("B", b);
    }

    const auto traced = model.run(w);
    if (std::getenv("TEAAL_ANALYTIC_DEBUG") != nullptr)
        Logger::instance().setLevel(LogLevel::Debug);
    const auto est = model.estimate(w);
    Logger::instance().setLevel(LogLevel::Warn);

    const double t_traffic = traced.totalTrafficBytes();
    const double e_traffic = est.totalTrafficBytes();
    const double t_muls = sumCounter(traced.records, "mul_ops");
    const double e_muls = est.mulOps;
    const double t_secs = traced.perf.totalSeconds;
    const double e_secs = est.seconds();

    const double r_traffic = ratioOf(e_traffic, t_traffic);
    const double r_muls = ratioOf(e_muls, t_muls);
    const double r_secs = ratioOf(e_secs, t_secs);
    std::cout << "[analytic] " << c.name
              << (packed ? " packed" : " pointer")
              << "  traffic est/trace=" << e_traffic / t_traffic
              << "  muls est/trace=" << (t_muls > 0 ? e_muls / t_muls : 0)
              << "  secs est/trace=" << e_secs / t_secs << "\n";
    if (std::getenv("TEAAL_ANALYTIC_DEBUG") != nullptr) {
        for (const auto& [tensor, tt] : traced.traffic) {
            const auto eit = est.traffic.find(tensor);
            const double er = eit != est.traffic.end()
                                  ? eit->second.readBytes
                                  : 0;
            const double ew = eit != est.traffic.end()
                                  ? eit->second.writeBytes
                                  : 0;
            std::cout << "    " << tensor << " read est/trace=" << er
                      << "/" << tt.readBytes << " write est/trace="
                      << ew << "/" << tt.writeBytes << "\n";
        }
        for (const auto& [tensor, tt] : est.traffic) {
            if (!traced.traffic.count(tensor))
                std::cout << "    " << tensor
                          << " (est only) read=" << tt.readBytes
                          << " write=" << tt.writeBytes << "\n";
        }
        for (std::size_t i = 0; i < traced.perf.einsums.size() &&
                                i < est.perf.einsums.size();
             ++i) {
            const auto& tp = traced.perf.einsums[i];
            const auto& ep = est.perf.einsums[i];
            std::cout << "    einsum " << tp.output
                      << " secs trace=" << tp.seconds << " ("
                      << tp.bottleneck << ") est=" << ep.seconds << " ("
                      << ep.bottleneck << ")\n";
            for (const auto& [comp, secs] : tp.componentSeconds) {
                const auto it = ep.componentSeconds.find(comp);
                std::cout << "      " << comp << " trace=" << secs
                          << " est="
                          << (it != ep.componentSeconds.end()
                                  ? it->second
                                  : 0.0)
                          << "\n";
            }
            for (const auto& [cname, ca] :
                 traced.records[i].components) {
                if (ca.perPe.empty())
                    continue;
                double total = 0;
                for (const auto& [pe, load] : ca.perPe)
                    total += load;
                std::cout << "      perPe " << cname
                          << " n=" << ca.perPe.size()
                          << " total=" << total
                          << " max=" << ca.perPe.maxLoad() << "\n";
            }
        }
    }

    EXPECT_LT(r_traffic, c.trafficBound)
        << "traffic est=" << e_traffic << " trace=" << t_traffic;
    EXPECT_LT(r_muls, c.computeBound)
        << "muls est=" << e_muls << " trace=" << t_muls;
    EXPECT_LT(r_secs, c.secondsBound)
        << "seconds est=" << e_secs << " trace=" << t_secs;
}

// Calibrated on the uniform SpMSpM pair above (seeds 21/22); see the
// printed est/trace ratios. Observed worst cases: traffic 1.09x
// (sigma), compute 1.01x, seconds 1.57x (extensor). Bounds carry
// roughly 2x margin over the observed error so distribution drift
// does not flake the suite while still asserting real accuracy.
const AccuracyCase kCases[] = {
    {"gamma", &makeGamma, 1.5, 1.25, 2.0},
    {"outerspace", &makeOuterSpace, 1.5, 1.25, 2.0},
    {"extensor", &makeExtensor, 1.5, 1.25, 3.0},
    {"sigma", &makeSigma, 2.0, 1.25, 2.0},
};

TEST(AnalyticAccuracy, PointerWorkloads)
{
    for (const AccuracyCase& c : kCases)
        checkAccuracy(c, /*packed=*/false);
}

TEST(AnalyticAccuracy, PackedWorkloads)
{
    for (const AccuracyCase& c : kCases)
        checkAccuracy(c, /*packed=*/true);
}

// ------------------------------------------- one planner, two sources

/**
 * Assert that a symbolic plan has the same skeleton as the plan the
 * trace tier executes: everything the planner derives from the spec
 * and the rank metadata. Co-iteration strategies are excluded: they
 * follow post-transform occupancy hints, which the symbolic source
 * only estimates.
 */
void
expectSameSkeleton(const ir::EinsumPlan& real, const ir::EinsumPlan& sym)
{
    ASSERT_EQ(real.loops.size(), sym.loops.size());
    for (std::size_t i = 0; i < real.loops.size(); ++i) {
        const ir::LoopRank& r = real.loops[i];
        const ir::LoopRank& s = sym.loops[i];
        SCOPED_TRACE("loop " + r.name);
        EXPECT_EQ(r.name, s.name);
        EXPECT_EQ(r.bindsVars, s.bindsVars);
        EXPECT_EQ(r.unpackStrides, s.unpackStrides);
        EXPECT_EQ(r.unpackShapes, s.unpackShapes);
        EXPECT_EQ(r.isUpperPartition, s.isUpperPartition);
        EXPECT_EQ(r.rangeTile, s.rangeTile);
        EXPECT_EQ(r.isSpace, s.isSpace);
        EXPECT_EQ(r.coordSpace, s.coordSpace);
        EXPECT_EQ(r.spaceExtent, s.spaceExtent);
        EXPECT_EQ(r.denseExtent, s.denseExtent);
        EXPECT_EQ(r.probeOnly, s.probeOnly);
    }
    EXPECT_EQ(real.varBoundAt, sym.varBoundAt);
    ASSERT_EQ(real.inputs.size(), sym.inputs.size());
    for (std::size_t t = 0; t < real.inputs.size(); ++t) {
        const ir::TensorPlan& r = real.inputs[t];
        const ir::TensorPlan& s = sym.inputs[t];
        SCOPED_TRACE("input " + r.name);
        EXPECT_EQ(r.name, s.name);
        EXPECT_EQ(r.exprInput, s.exprInput);
        EXPECT_EQ(r.prepared.rankIds(), s.prepared.rankIds());
        EXPECT_EQ(r.swizzled, s.swizzled);
        EXPECT_EQ(r.swizzleOnline, s.swizzleOnline);
        ASSERT_EQ(r.actions.size(), s.actions.size());
        for (std::size_t a = 0; a < r.actions.size(); ++a) {
            EXPECT_EQ(r.actions[a].mode, s.actions[a].mode) << a;
            EXPECT_EQ(r.actions[a].loopIndex, s.actions[a].loopIndex) << a;
            EXPECT_EQ(r.actions[a].level, s.actions[a].level) << a;
        }
    }
    EXPECT_EQ(real.output.name, sym.output.name);
    EXPECT_EQ(real.output.productionOrder, sym.output.productionOrder);
    EXPECT_EQ(real.output.shapes, sym.output.shapes);
    EXPECT_EQ(real.output.vars, sym.output.vars);
    EXPECT_EQ(real.output.boundAtLoop, sym.output.boundAtLoop);
    EXPECT_EQ(real.output.declaredOrder, sym.output.declaredOrder);
    EXPECT_EQ(real.output.needsReorder, sym.output.needsReorder);
}

/**
 * Plan every Einsum of @p spec twice — from the tensors (the trace
 * tier's CompiledModel::plans) and from statistics built off the same
 * tensors' occupancy hints (the analytic tier) — and compare skeletons.
 */
void
checkSameSkeletons(const std::string& label,
                   const compiler::Specification& spec, bool packed)
{
    namespace an = model::analytic;
    SCOPED_TRACE(label + (packed ? " packed" : " pointer"));
    const ft::Tensor a =
        workloads::uniformMatrix("A", 300, 250, 2000, 41, {"K", "M"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", 300, 280, 2000, 42, {"K", "N"});
    auto model = compiler::compile(spec);
    Workload w;
    if (packed) {
        w.add("A", storage::PackedTensor::fromTensor(
                       a, model.spec().formats.getLenient("A")));
        w.add("B", storage::PackedTensor::fromTensor(
                       b, model.spec().formats.getLenient("B")));
    } else {
        w.add("A", a).add("B", b);
    }
    const std::vector<ir::EinsumPlan>& plans = model.plans(w);
    const einsum::EinsumSpec& es = model.spec().einsums;
    ASSERT_EQ(plans.size(), es.expressions.size());

    // Inputs as the planner sees them: in the mapping's rank-order
    // (a discordant packed input is unpacked, so it loses the packed
    // fast path).
    std::map<std::string, an::SymbolicTensor> stats;
    for (const auto& [name, t] :
         {std::pair<std::string, const ft::Tensor*>{"A", &a},
          std::pair<std::string, const ft::Tensor*>{"B", &b}}) {
        const auto& order = model.spec().mapping.rankOrder(name);
        const bool concordant = order.empty() || t->rankIds() == order;
        const ft::Tensor bound = concordant ? *t : ft::swizzle(*t, order);
        stats.emplace(name, an::SymbolicTensor::fromHints(
                                name, bound.ranks(), bound.occupancyHints(),
                                packed && concordant));
    }
    // Intermediates come from a traced run of the cascade.
    compiler::SimulationResult traced;
    if (es.expressions.size() > 1)
        traced = model.run(w);
    std::vector<std::string> produced;
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        const std::string& out = es.expressions[i].output.name;
        SCOPED_TRACE("einsum " + out);
        const an::SymbolicPlan sp = an::symbolicInstantiate(
            model.recipes()[i], es, stats, produced);
        expectSameSkeleton(plans[i], sp.plan);
        const auto it = traced.tensors.find(out);
        if (it != traced.tensors.end()) {
            stats.insert_or_assign(
                out, an::SymbolicTensor::fromHints(
                         out, it->second.ranks(),
                         it->second.occupancyHints()));
        }
        produced.push_back(out);
    }
}

TEST(OnePlanner, SymbolicSkeletonMatchesTable1Plans)
{
    for (const AccuracyCase& c : kCases) {
        checkSameSkeletons(c.name, c.make(), /*packed=*/false);
        checkSameSkeletons(c.name, c.make(), /*packed=*/true);
    }
}

TEST(OnePlanner, SymbolicSkeletonMatchesTunerCandidatePlans)
{
    for (const tuner::Candidate& c : tuner::spmspmSearchSpace()) {
        checkSameSkeletons(c.label, c.spec, /*packed=*/false);
        checkSameSkeletons(c.label, c.spec, /*packed=*/true);
    }
}

TEST(AnalyticEstimate, CachesByFingerprint)
{
    const ft::Tensor a =
        workloads::uniformMatrix("A", 100, 80, 900, 31, {"K", "M"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", 100, 90, 900, 32, {"K", "N"});
    auto model = compiler::compile(accel::gamma());
    Workload w;
    w.add("A", a).add("B", b);
    const auto first = model.estimate(w);
    EXPECT_FALSE(first.cacheHit);
    const auto second = model.estimate(w);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_DOUBLE_EQ(first.seconds(), second.seconds());
    w.touch();
    const auto third = model.estimate(w);
    EXPECT_FALSE(third.cacheHit);
}

} // namespace
} // namespace teaal
