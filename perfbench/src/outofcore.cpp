/**
 * @file
 * outofcore: the micro_outofcore shape. A power-law matrix 10x
 * the em stand-in is packed, written as a store file and mmapped with
 * payload verification; Gamma multiplies it by a banded B at threads=4
 * with trace capture spilled to disk in 1 MB segments. The storage
 * and spill layers do most of the work, and the captured trace goes
 * to disk instead of staying resident.
 */
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "bench.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "util/thread_pool.hpp"
#include "workloads/datasets.hpp"

namespace perfbench
{

using namespace teaal;
namespace fs = std::filesystem;

namespace
{

constexpr unsigned kThreads = 4;
constexpr int kColdStarts = 5; ///< mapStore samples per pass
/// micro_outofcore's shape at this matrix scale (it defaults to
/// 0.35): A is ten times the em stand-in at the same scale (242k
/// nonzeros, 0.8x the full-size em), and a spilled run takes about
/// 0.7 s, so a 30 s run takes the median of about forty.
constexpr double kScale = 0.08;

struct State
{
    std::uint64_t bigDigest = 0; ///< the generated A, which is not kept
    std::size_t bigNnz = 0;
    ft::Tensor band;
    std::string storePath;
    std::optional<storage::PackedTensor> mapped;
    std::optional<compiler::CompiledModel> model;
    std::unique_ptr<util::ThreadPool> pool;
};

} // namespace

void
runOutOfCore(Context& ctx)
{
    Report& report = ctx.report;
    const std::string stem = "outofcore-seed" + std::to_string(ctx.opt.seed);
    const std::string spill_dir = ctx.path(stem + "-spill");
    fs::create_directories(spill_dir);

    // Scratch files go when the run ends, so repeated runs do not pile
    // up a store per seed (the mapping stays valid after the unlink).
    struct Cleanup
    {
        std::string stem;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove(stem + ".teaal", ec);
            fs::remove(stem + "-again.teaal", ec);
            fs::remove_all(stem + "-spill", ec);
        }
    } cleanup{ctx.path(stem)};

    // ---- set-up: generate, pack + write the store, map it, compile.
    State st;
    double write_store_ms = 0;
    auto set_up = [&](State& s) {
        ft::Tensor big;
        {
            SpanRecorder::Scope span(ctx.spans, "setup.inputs", stem);
            const workloads::DatasetInfo& em = workloads::dataset("em");
            const auto rows = static_cast<ft::Coord>(
                static_cast<double>(em.rows) * kScale * ctx.opt.size);
            const auto nnz = static_cast<std::size_t>(
                static_cast<double>(em.nnz) * 10.0 * kScale * ctx.opt.size);
            // micro_outofcore's structure seeds, values per run.
            big = revalue(workloads::powerLawMatrix("A", rows, rows, nnz,
                                                    97, {"K", "M"}),
                          ctx.seedFor(20));
            s.bigDigest = tensorDigest(big);
            s.bigNnz = big.nnz();
            s.band = revalue(workloads::bandedMatrix(
                                 "B", rows, rows,
                                 static_cast<std::size_t>(rows), 98,
                                 {"K", "N"}),
                             ctx.seedFor(21));
        }
        // Repeat set-ups must not rewrite the store the run has mapped.
        s.storePath = ctx.path(stem + (&s == &st ? "" : "-again") + ".teaal");
        write_store_ms = 1e3 * timed([&] {
            SpanRecorder::Scope span(ctx.spans, "storage.write_store", stem);
            storage::writeStore(s.storePath,
                                storage::PackedTensor::fromTensor(big));
        });
        {
            SpanRecorder::Scope span(ctx.spans, "storage.map_verify", stem);
            s.mapped = storage::mapStore(s.storePath, true);
        }
        s.model = compiler::compile(accel::gamma());
        s.pool = std::make_unique<util::ThreadPool>(kThreads);
    };
    const double setup_s = timed([&] { set_up(st); });

    compiler::Workload w;
    w.add("A", *st.mapped).add("B", st.band);
    compiler::RunOptions ro;
    ro.threads = kThreads;
    ro.pool = st.pool.get();
    ro.cacheState = false;
    ro.spillDir = spill_dir;
    // 1 MB segments, scaled with --size so a tiny run still spills.
    ro.spillSegmentBytes = static_cast<std::size_t>(
        std::max(4096.0, (1u << 20) * ctx.opt.size));

    struct Pass
    {
        double runSeconds = 0;
        std::vector<double> coldUs;
        std::vector<double> mapUs;
        std::string stats;
        std::uint64_t output = 0; ///< digest of the product
        trace::SpillStats spill;
    };
    LayerTotals totals;
    auto pass = [&](bool traced) {
        Pass out;
        for (int i = 0; i < kColdStarts; ++i) {
            if (traced) {
                out.mapUs.push_back(1e6 * timed([&] {
                    SpanRecorder::Scope span(ctx.spans, "storage.map", stem);
                    (void)storage::mapStore(st.storePath, false);
                }));
            }
            storage::PackedTensor cold;
            out.coldUs.push_back(1e6 * timed([&] {
                SpanRecorder::Scope span(ctx.spans, "storage.map_verify", stem);
                cold = storage::mapStore(st.storePath, true);
            }));
            report.check(cold.nnz() == st.bigNnz,
                         "cold-started store has the wrong nonzero count");
        }
        compiler::SimulationResult r;
        if (traced) {
            compiler::CompiledModel model =
                compileSpanned(ctx, accel::gamma(), "gamma/" + stem, totals);
            r = probeRun(ctx, model, w, ro, "gamma/" + stem, totals,
                         out.runSeconds);
        } else {
            out.runSeconds = timed([&] { r = st.model->run(w, ro); });
        }
        out.stats = canonical(r);
        out.output = tensorDigest(r.result(st.model->spec()));
        out.spill = r.spill;
        report.check(r.spill.frames > 0, "spilled run wrote no frames");
        return out;
    };

    std::vector<Pass> passes;
    double overhead = 0;
    if (ctx.opt.trace) {
        ctx.spans.arm(false);
        passes.push_back(pass(false));
        ctx.spans.arm(true);
        passes.push_back(pass(true));
        overhead = passes[1].runSeconds / passes[0].runSeconds;
    } else {
        forSeconds(ctx.opt.seconds, [&] { passes.push_back(pass(false)); });
    }
    // Peak memory is read before the verification below builds its
    // copies of A and of the product.
    const double rss = peakRssMb();

    for (const Pass& p : passes)
        report.check(p.stats == passes.front().stats &&
                         p.output == passes.front().output,
                     "outofcore: simulated statistics or output changed "
                     "between passes");
    {
        // ---- verification: the mapped store is the generated tensor,
        // and one more spilled run (output digest as every pass's)
        // matches the Gustavson product.
        const ft::Tensor a = st.mapped->toTensor();
        report.check(tensorDigest(a) == st.bigDigest,
                     "mapped store differs from the generated tensor");
        const ft::Tensor expected = baselines::gustavsonSpmspm(a, st.band);
        const ft::Tensor product =
            st.model->run(w, ro).result(st.model->spec());
        report.check(tensorDigest(product) == passes.front().output &&
                         product.equals(expected, 1e-6),
                     "spilled Gamma output differs from the Gustavson "
                     "reference");
    }
    const std::string digest = fnv1a(passes.front().stats);
    checkReference(ctx, "outofcore", digest,
                   "nnz=" + std::to_string(st.bigNnz));

    std::vector<double> run_s, cold_us, map_us;
    for (const Pass& p : passes) {
        run_s.push_back(p.runSeconds);
        cold_us.insert(cold_us.end(), p.coldUs.begin(), p.coldUs.end());
        map_us.insert(map_us.end(), p.mapUs.begin(), p.mapUs.end());
    }
    const trace::SpillStats& spill = passes.back().spill;
    const double store_mb =
        static_cast<double>(fs::file_size(st.storePath)) / 1e6;
    report.note("outofcore: A " + std::to_string(st.bigNnz) +
                " nonzeros, store " + std::to_string(store_mb) +
                " MB, threads=4, spill segments " +
                std::to_string(ro.spillSegmentBytes) + " bytes, " +
                std::to_string(passes.size()) + " pass(es); digest " + digest);

    if (ctx.opt.trace) {
        // The resident run keeps every captured slice in memory: run it
        // last, after everything whose memory the trace reports.
        compiler::RunOptions resident = ro;
        resident.spillDir.clear();
        double resident_s = 0;
        {
            SpanRecorder::Scope span(ctx.spans, "compiler.run_resident", stem);
            resident_s = timed([&] { (void)st.model->run(w, resident); });
        }
        layerMetrics(ctx, totals, overhead);
        report.metric("storage.write_store_ms", write_store_ms, "ms");
        report.metric("storage.map_ms", median(map_us) / 1e3, "ms");
        report.metric("storage.verify_ms",
                      (median(cold_us) - median(map_us)) / 1e3, "ms");
        report.metric("storage.store_mb", store_mb, "MB");
        report.metric("trace.spill_mb", static_cast<double>(spill.bytes) / 1e6,
                      "MB");
        report.metric("trace.spill_frames", static_cast<double>(spill.frames),
                      "count");
        report.metric("trace.spill_files", static_cast<double>(spill.files),
                      "count");
        report.metric("trace.spill_overhead",
                      passes[0].runSeconds / resident_s, "ratio");
        report.metric("sim_s.untraced", passes[0].runSeconds, "s");
        report.metric("sim_s.traced", passes[1].runSeconds, "s");
        return;
    }
    report.metric("latency_s", median(run_s), "s");
    report.metric("sim_s", median(run_s), "s");
    report.metric("cold_start_ms", median(cold_us) / 1e3, "ms");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("setup_s", setUpSeconds<State>(ctx, setup_s, set_up), "s");
}

} // namespace perfbench
