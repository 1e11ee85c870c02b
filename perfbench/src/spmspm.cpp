/**
 * @file
 * spmspm-serial / spmspm-sharded: the four Table 1 accelerators on the
 * wi and p2 stand-ins, swept like a figure: every (accelerator,
 * dataset) pair compiles and runs single-shot, so plans are
 * re-instantiated each time. The two workloads differ only in
 * RunOptions::threads (1, or 4 on one shared pool) and must simulate
 * byte-identical statistics.
 */
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "bench.hpp"
#include "common.hpp"
#include "util/thread_pool.hpp"

namespace perfbench
{

using namespace teaal;

namespace
{

const std::vector<std::string> kAccels{"gamma", "extensor", "outerspace",
                                       "sigma"};
const std::vector<std::string> kDatasets{"wi", "p2"};
/// The stand-ins' matrix scale (the benches default to 0.35). At this
/// scale a pass takes about 1 s, so a 30 s run takes the median of
/// about thirty, and ExTensor and SIGMA still run slower sharded than
/// serial.
constexpr double kScale = 0.05;
/// compile() calls per Table 1 spec timed for compile_us.
constexpr int kCompileSamples = 64;

/** Table 1 specs, built as micro_parallel builds them. */
compiler::Specification
table1Spec(const std::string& name)
{
    if (name == "gamma")
        return accel::gamma({});
    if (name == "extensor")
        return accel::extensor({});
    if (name == "outerspace")
        return accel::outerSpace({});
    return accel::sigma({});
}

/** Figure 9's DRAM traffic normalized to the algorithmic minimum, as
 *  the paper reports it; SIGMA has no Figure 9 panel. */
double
paperTraffic(const std::string& accel, const std::string& dataset)
{
    const std::map<std::string, double>* reported =
        accel == "gamma"        ? &bench::reportedGammaTraffic()
        : accel == "extensor"   ? &bench::reportedExtensorTraffic()
        : accel == "outerspace" ? &bench::reportedOuterSpaceTraffic()
                                : nullptr;
    return reported == nullptr ? 0.0 : reported->at(dataset);
}

struct Pair
{
    std::string key;
    ft::Tensor a;
    ft::Tensor b;
};

/** The micro_parallel stand-ins (bench::loadSpmspm) with values
 *  drawn from the run seed. */
std::vector<Pair>
makePairs(const Context& ctx)
{
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < kDatasets.size(); ++i) {
        const std::string& key = kDatasets[i];
        const bench::SpmspmInput in =
            bench::loadSpmspm(key, kScale * ctx.opt.size);
        pairs.push_back({key, revalue(in.a, ctx.seedFor(10 + 2 * i)),
                         revalue(in.b, ctx.seedFor(11 + 2 * i))});
    }
    return pairs;
}

struct Pass
{
    double seconds = 0; ///< compile + run over all eight pairs
    std::map<std::string, double> perAccel;
    std::map<std::string, double> perRun;
    double simSeconds = 0;
    double dramBytes = 0;
    /// log of (normalized traffic / the paper's), over Figure 9 pairs
    std::vector<double> logVsPaper;
    std::string stats; ///< canonical simulated statistics
};

} // namespace

void
runSpmspm(Context& ctx, unsigned threads)
{
    const std::string name = threads == 1 ? "spmspm-serial" : "spmspm-sharded";
    Report& report = ctx.report;

    // ---- set-up: inputs (the workloads layer) and the shared pool.
    struct State
    {
        std::vector<Pair> pairs;
        std::unique_ptr<util::ThreadPool> pool;
    };
    auto set_up = [&](State& s) {
        SpanRecorder::Scope span(ctx.spans, "setup.inputs", name);
        s.pairs = makePairs(ctx);
        if (threads > 1)
            s.pool = std::make_unique<util::ThreadPool>(threads);
    };
    State st;
    const double setup_s = timed([&] { set_up(st); });
    const std::vector<Pair>& pairs = st.pairs;

    // ---- independent output references (not set-up: verification).
    std::map<std::string, ft::Tensor> expected;
    for (const Pair& p : pairs)
        expected[p.key] = baselines::gustavsonSpmspm(p.a, p.b);

    compiler::RunOptions ro;
    ro.cacheState = false;
    ro.threads = threads;
    ro.pool = st.pool.get();

    // A serial sweep visits every vCPU in turn, one run on each and
    // shifted by one every pass, so no run keeps a vCPU; the sharded
    // sweep's pool spans them all already.
    std::vector<Pass> passes;
    std::optional<CpuRotation> rotation;
    if (threads == 1)
        rotation.emplace();
    auto pass = [&](bool traced, LayerTotals& totals) {
        Pass out;
        std::size_t turn = passes.size();
        for (const Pair& p : pairs) {
            for (const std::string& accel : kAccels) {
                if (rotation)
                    rotation->pin(turn++);
                const std::string label = accel + "/" + p.key;
                compiler::Specification spec = table1Spec(accel);
                const Clock::time_point c0 = Clock::now();
                compiler::CompiledModel model =
                    traced ? compileSpanned(ctx, std::move(spec), label, totals)
                           : compiler::compile(std::move(spec));
                const double compile_s = secondsSince(c0);

                compiler::Workload w;
                w.add("A", p.a).add("B", p.b);
                compiler::SimulationResult r;
                double run_s = 0;
                if (traced) {
                    r = probeRun(ctx, model, w, ro, label, totals, run_s);
                } else {
                    run_s = timed([&] { r = model.run(w, ro); });
                }
                out.seconds += compile_s + run_s;
                out.perAccel[accel] += run_s;
                out.perRun[label] = run_s;
                out.simSeconds += r.perf.totalSeconds;
                out.dramBytes += r.totalTrafficBytes();
                out.stats += "run " + label + "\n" + canonical(r);
                if (traced && paperTraffic(accel, p.key) > 0)
                    out.logVsPaper.push_back(std::log(
                        r.totalTrafficBytes() / model.algorithmicMinBytes(w, r) /
                        paperTraffic(accel, p.key)));

                report.check(r.result(model.spec())
                                 .equals(expected.at(p.key), 1e-6),
                             label + ": output differs from the Gustavson "
                                     "reference");
            }
        }
        return out;
    };

    // compile_us: compile() timed in one block before any run, not
    // between runs whose working sets just evicted the caches.
    std::vector<double> compile_us;
    for (int i = 0; i < kCompileSamples; ++i) {
        for (const std::string& accel : kAccels) {
            compiler::Specification spec = table1Spec(accel);
            compile_us.push_back(
                1e6 * timed([&] { (void)compiler::compile(std::move(spec)); }));
        }
    }

    LayerTotals totals;
    double overhead = 0;
    if (ctx.opt.trace) {
        LayerTotals untraced_totals;
        ctx.spans.arm(false);
        passes.push_back(pass(false, untraced_totals));
        ctx.spans.arm(true);
        passes.push_back(pass(true, totals));
        overhead = passes[1].seconds / passes[0].seconds;
    } else {
        forSeconds(ctx.opt.seconds,
                   [&] { passes.push_back(pass(false, totals)); });
    }
    rotation.reset();
    const double rss = peakRssMb();

    // ---- simulated statistics: deterministic, and equal to the stored
    // reference, which spmspm-serial and spmspm-sharded share.
    for (const Pass& p : passes)
        report.check(p.stats == passes.front().stats,
                     name + ": simulated statistics changed between passes");
    const std::string digest = fnv1a(passes.front().stats);
    checkReference(ctx, "spmspm", digest,
                   "simulated_s=" + exact(passes.front().simSeconds) +
                       " dram_bytes=" + exact(passes.front().dramBytes));

    std::vector<double> pass_s;
    std::map<std::string, std::vector<double>> per_accel;
    for (const Pass& p : passes) {
        pass_s.push_back(p.seconds);
        for (const auto& [accel, s] : p.perAccel)
            per_accel[accel].push_back(s);
    }
    std::string each = "pass seconds:";
    for (const double s : pass_s) {
        each += ' ';
        each += std::to_string(s);
    }
    report.note(each);
    report.note(name + ": " + std::to_string(threads) +
                " thread(s), single-shot runs, " +
                std::to_string(passes.size()) + " pass(es); digest " +
                digest);

    if (ctx.opt.trace) {
        layerMetrics(ctx, totals, overhead);
        const std::vector<double>& logs = passes.back().logVsPaper;
        report.metric("model.traffic_vs_paper",
                      std::exp(std::accumulate(logs.begin(), logs.end(), 0.0) /
                               static_cast<double>(logs.size())),
                      "ratio");
        report.note("model.traffic_vs_paper: geometric mean over gamma, "
                    "extensor and outerspace on wi and p2 of DRAM traffic "
                    "over the algorithmic minimum, divided by Figure 9's "
                    "reported value (1 = as reported)");
        for (const auto& [label, s] : passes.back().perRun) {
            std::string key = label;
            key[key.find('/')] = '.';
            report.metric("compiler.run_ms." + key, s * 1e3, "ms");
        }
        report.note("ir.instantiate_ms = single-shot run - cached run; "
                    "ir.plans_call_ms is plans(), which for gamma and "
                    "outerspace also executes the producer Einsum");
        if (threads > 1)
            report.note("model.self_ms = cached run - threads=1 walk, "
                        "inside a threads=" + std::to_string(threads) +
                        " run: it can be negative until the library "
                        "profiles its own stages");
        report.metric("sim_s.untraced", passes[0].seconds, "s");
        report.metric("sim_s.traced", passes[1].seconds, "s");
        return;
    }
    report.metric("latency_s", median(pass_s), "s");
    report.metric("sim_s", median(pass_s), "s");
    for (const std::string& accel : kAccels)
        report.metric("sim_s." + accel, median(per_accel[accel]), "s");
    report.metric("compile_us", median(compile_us), "us");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("setup_s", setUpSeconds<State>(ctx, setup_s, set_up), "s");
}

} // namespace perfbench
