/**
 * @file
 * dse: design-space exploration. tuner::tune ranks the 36-candidate
 * spmspmSearchSpace analytically and trace-confirms the top 4
 * (threads=4) on the micro_analytic power-law pair, and the four
 * Table 1 specs are estimated with the estimate cache defeated by
 * Workload::touch(). The compiler and model/analytic layers dominate;
 * exec walks only the traced candidates.
 */
#include <memory>
#include <optional>

#include "accelerators/accelerators.hpp"
#include "bench.hpp"
#include "tuner/tuner.hpp"
#include "util/thread_pool.hpp"
#include "workloads/datasets.hpp"

namespace perfbench
{

using namespace teaal;

namespace
{

constexpr unsigned kThreads = 4;
constexpr std::size_t kTopK = 4;
constexpr int kEstimatesPerSpec = 8; ///< samples per spec per pass

const std::vector<std::string> kAccels{"gamma", "outerspace", "extensor",
                                       "sigma"};

/** Table 1 specs as micro_analytic builds them (ExTensor tiled for
 *  bench-sized operands). micro_analytic keeps its builder private to
 *  its own file, so the tiling is repeated here. */
compiler::Specification
analyticSpec(const std::string& name)
{
    if (name == "gamma")
        return accel::gamma();
    if (name == "outerspace")
        return accel::outerSpace();
    if (name == "sigma")
        return accel::sigma();
    accel::ExTensorConfig cfg;
    cfg.tileK1 = 512;
    cfg.tileK0 = 64;
    cfg.tileM1 = 512;
    cfg.tileM0 = 64;
    cfg.tileN1 = 512;
    cfg.tileN0 = 64;
    return accel::extensor(cfg);
}

struct State
{
    ft::Tensor a;
    ft::Tensor b;
    std::vector<tuner::Candidate> candidates;
    std::vector<compiler::CompiledModel> models; ///< kAccels order
    std::unique_ptr<util::ThreadPool> pool;
};

std::string
rankingText(const tuner::TuneResult& r)
{
    std::string s = "best " + std::to_string(r.bestIndex) + " traced " +
                    std::to_string(r.tracedCount) + "\n";
    for (const tuner::RankedCandidate& rc : r.ranking) {
        s += rc.label + " " + exact(rc.analyticSeconds) + " " +
             (rc.traced ? exact(rc.traceSeconds) : "-") + "\n";
    }
    return s;
}

} // namespace

void
runDse(Context& ctx)
{
    Report& report = ctx.report;
    const double f = ctx.opt.size;
    auto sized = [f](double n) {
        return static_cast<ft::Coord>(std::max(8.0, n * f));
    };

    // ---- set-up: inputs, the design space, the Table 1 models.
    State st;
    auto set_up = [&](State& s) {
        {
            SpanRecorder::Scope span(ctx.spans, "setup.inputs", "dse");
            // micro_analytic's structure seeds, values per run.
            const auto nnz = static_cast<std::size_t>(sized(14000));
            s.a = revalue(workloads::powerLawMatrix(
                               "A", sized(900), sized(800), nnz, 5,
                               {"K", "M"}),
                           ctx.seedFor(30));
            s.b = revalue(workloads::powerLawMatrix(
                               "B", sized(900), sized(850), nnz, 6,
                               {"K", "N"}),
                           ctx.seedFor(31));
            s.candidates = tuner::spmspmSearchSpace();
        }
        for (const std::string& accel : kAccels)
            s.models.push_back(compiler::compile(analyticSpec(accel)));
        s.pool = std::make_unique<util::ThreadPool>(kThreads);
    };
    const double setup_s = timed([&] { set_up(st); });
    compiler::Workload w;
    w.add("A", st.a).add("B", st.b);

    // ---- verification reference: exhaustive trace search.
    tuner::TunerOptions exhaustive;
    exhaustive.topK = st.candidates.size();
    exhaustive.threads = kThreads;
    exhaustive.pool = st.pool.get();
    tuner::TuneResult truth;
    const double exhaustive_s = timed(
        [&] { truth = tuner::tune(st.candidates, w, exhaustive); });

    tuner::TunerOptions pruned = exhaustive;
    pruned.topK = kTopK;

    struct Pass
    {
        double tuneSeconds = 0;
        tuner::TuneResult tuned;
        std::map<std::string, std::vector<double>> estimateUs;
        std::string stats;
    };
    auto pass = [&] {
        Pass out;
        out.tuneSeconds = timed([&] {
            SpanRecorder::Scope span(ctx.spans, "tuner.tune", "spmspm36");
            out.tuned = tuner::tune(st.candidates, w, pruned);
        });
        report.check(out.tuned.bestIndex == truth.bestIndex,
                     "tuner picked " + out.tuned.best().label +
                         ", exhaustive search picked " + truth.best().label);
        out.stats = rankingText(out.tuned);
        for (std::size_t m = 0; m < kAccels.size(); ++m) {
            for (int i = 0; i < kEstimatesPerSpec; ++i) {
                w.touch(); // miss the estimate cache
                std::optional<model::analytic::AnalyticEstimate> est;
                const double s = timed([&] {
                    SpanRecorder::Scope span(ctx.spans, "analytic.estimate",
                                             kAccels[m]);
                    try {
                        est = st.models[m].estimate(w);
                    } catch (const std::exception& e) {
                        report.check(false, kAccels[m] + " estimate threw: " +
                                                e.what());
                    }
                });
                if (!est)
                    continue;
                report.check(!est->cacheHit, "estimate served from cache");
                out.estimateUs[kAccels[m]].push_back(s * 1e6);
                if (i == 0)
                    out.stats += kAccels[m] + " " + exact(est->seconds()) +
                                 " " + exact(est->totalTrafficBytes()) + " " +
                                 exact(est->mulOps) + "\n";
            }
        }
        return out;
    };

    std::vector<Pass> passes;
    double overhead = 0;
    if (ctx.opt.trace) {
        ctx.spans.arm(false);
        passes.push_back(pass());
        ctx.spans.arm(true);
        passes.push_back(pass());
        overhead = passes[1].tuneSeconds / passes[0].tuneSeconds;
    } else {
        forSeconds(ctx.opt.seconds, [&] { passes.push_back(pass()); });
    }
    const double rss = peakRssMb();

    for (const Pass& p : passes)
        report.check(p.stats == passes.front().stats,
                     "dse: ranking or estimates changed between passes");

    // ---- the winner, run directly, must reproduce the tuner's
    // trace-confirmed seconds (and gives this workload's layer split).
    const tuner::TuneResult& tuned = passes.front().tuned;
    LayerTotals totals;
    {
        const tuner::Candidate& best = st.candidates[tuned.bestIndex];
        compiler::CompiledModel model =
            compileSpanned(ctx, best.spec, best.label, totals);
        compiler::RunOptions ro;
        ro.cacheState = false;
        double run_s = 0;
        compiler::SimulationResult r;
        if (ctx.opt.trace)
            r = probeRun(ctx, model, w, ro, best.label, totals, run_s);
        else
            r = model.run(w, ro);
        report.check(r.perf.totalSeconds == tuned.best().traceSeconds,
                     "winner run directly simulates " +
                         exact(r.perf.totalSeconds) + " s, the tuner said " +
                         exact(tuned.best().traceSeconds));
        passes.front().stats += "winner " + canonical(r);
    }
    const std::string digest = fnv1a(passes.front().stats);
    checkReference(ctx, "dse", digest, "best=" + tuned.best().label);

    std::vector<double> tune_s, est_us;
    for (const Pass& p : passes) {
        tune_s.push_back(p.tuneSeconds);
        for (const auto& [accel, v] : p.estimateUs)
            est_us.insert(est_us.end(), v.begin(), v.end());
    }
    report.note("dse: " + std::to_string(st.candidates.size()) +
                " candidates, topK=4, threads=4, best " + tuned.best().label +
                " (exhaustive search agrees: " +
                (tuned.bestIndex == truth.bestIndex ? "yes" : "NO") +
                ", took " + std::to_string(exhaustive_s) + " s); " +
                std::to_string(passes.size()) + " pass(es); digest " + digest);

    if (ctx.opt.trace) {
        // The estimate phase alone (topK = 0 traces nothing); the
        // trace phase is the rest of a tune().
        tuner::TunerOptions estimate_only = pruned;
        estimate_only.topK = 0;
        double estimate_phase_s = 0;
        {
            SpanRecorder::Scope span(ctx.spans, "tuner.estimate_phase",
                                     "spmspm36");
            estimate_phase_s = timed(
                [&] { (void)tuner::tune(st.candidates, w, estimate_only); });
        }
        // What the tuner's compiles cost, timed from outside.
        for (const tuner::Candidate& c : st.candidates)
            (void)compileSpanned(ctx, c.spec, c.label, totals);

        layerMetrics(ctx, totals, overhead);
        for (const std::string& accel : kAccels)
            report.metric("analytic.estimate_us." + accel,
                          median(passes[1].estimateUs[accel]), "us");
        report.metric("analytic.failures",
                      static_cast<double>(tuned.estimateFailures), "count");
        report.metric("tuner.estimate_phase_ms", estimate_phase_s * 1e3, "ms");
        report.metric("tuner.trace_phase_ms",
                      (passes[1].tuneSeconds - estimate_phase_s) * 1e3, "ms");
        report.metric("tuner.traced", static_cast<double>(tuned.tracedCount),
                      "count");
        report.metric("tuner.agree",
                      tuned.bestIndex == truth.bestIndex ? 1.0 : 0.0, "bool");
        report.metric("tune_s.untraced", passes[0].tuneSeconds, "s");
        report.metric("tune_s.traced", passes[1].tuneSeconds, "s");
        return;
    }
    report.metric("latency_s", median(tune_s), "s");
    report.metric("tune_s", median(tune_s), "s");
    report.metric("estimate_us", median(est_us), "us");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("setup_s", setUpSeconds<State>(ctx, setup_s, set_up), "s");
}

} // namespace perfbench
