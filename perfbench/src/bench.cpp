#include "bench.hpp"

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "exec/executor.hpp"
#include "serve/json.hpp"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace teaal;

std::string
Context::path(const std::string& name) const
{
    return (fs::path(opt.outDir) / name).string();
}

namespace
{

std::string
keyOf(const Context& ctx, const std::string& group)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s/size=%g", group.c_str(),
                  ctx.opt.size);
    return buf;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A sink that drops every batch: the walk's own cost, no model. */
class NullSink : public trace::Observer
{
  public:
    void onEventBatch(const trace::EventBatch&) override {}
};

} // namespace

ft::Tensor
revalue(const ft::Tensor& t, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> value(1.0, 2.0);
    std::vector<ft::Coord> shape;
    for (const ft::RankInfo& r : t.ranks())
        shape.push_back(r.shape);
    ft::Tensor out(t.name(), t.rankIds(), shape);
    t.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value) {
        out.set(p, value(rng));
    });
    return out;
}

std::uint64_t
tensorDigest(const ft::Tensor& t)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char*>(data)[i];
            h *= 1099511628211ULL;
        }
    };
    t.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value v) {
        mix(p.data(), p.size_bytes());
        mix(&v, sizeof(v));
    });
    return h;
}

void
checkReference(Context& ctx, const std::string& group,
               const std::string& digest, const std::string& summary)
{
    const std::string& path = ctx.opt.referencePath;
    serve::Json refs = serve::Json::makeObject();
    if (fs::exists(path))
        refs = serve::parseJson(slurp(path));
    const std::string key = keyOf(ctx, group);

    if (ctx.opt.writeReference) {
        serve::Json entry = serve::Json::makeObject();
        entry.set("digest", serve::Json::makeString(digest));
        entry.set("summary", serve::Json::makeString(summary));
        refs.set(key, std::move(entry));
        std::ofstream out(path);
        out << "{\n";
        const auto& members = refs.object();
        for (std::size_t i = 0; i < members.size(); ++i) {
            out << "  " << serve::Json::makeString(members[i].first).dump()
                << ": " << members[i].second.dump()
                << (i + 1 < members.size() ? ",\n" : "\n");
        }
        out << "}\n";
        ctx.report.note("reference recorded for " + key);
        return;
    }

    const serve::Json* entry = refs.find(key);
    if (entry == nullptr) {
        ctx.report.note("no stored reference for " + key);
        return;
    }
    const std::string want = entry->find("digest")->str();
    ctx.report.check(want == digest,
                     "simulated statistics differ from the stored "
                     "reference " + key + ": got " + digest + " (" +
                         summary + "), want " + want + " (" +
                         entry->find("summary")->str() + ")");
    ctx.report.note("stored reference " + key + ": " +
                    (want == digest ? "match" : "MISMATCH"));
}

std::string
canonical(const compiler::SimulationResult& r)
{
    std::ostringstream os;
    os << "seconds " << exact(r.perf.totalSeconds) << "\n";
    for (const model::EinsumRecord& rec : r.records) {
        const exec::ExecutionStats& es = rec.execStats;
        os << "einsum " << rec.output << " " << rec.topologyName << " muls "
           << es.computeMuls << " adds " << es.computeAdds << " leaves "
           << es.leafVisits << " writes " << es.outputWrites << " events "
           << rec.traceEvents << " batches " << rec.traceBatches << "\n";
        for (const auto& [name, comp] : rec.components) {
            os << " component " << name << " maxpe "
               << exact(comp.maxPerPe());
            for (const auto& [k, v] : comp.counts)
                os << " " << k << "=" << exact(v);
            os << "\n";
        }
        for (const auto& [tensor, tt] : rec.traffic)
            os << " traffic " << tensor << " " << exact(tt.readBytes) << " "
               << exact(tt.writeBytes) << " " << exact(tt.poBytes) << "\n";
    }
    for (const auto& [tensor, tt] : r.traffic)
        os << "traffic " << tensor << " " << exact(tt.readBytes) << " "
           << exact(tt.writeBytes) << " " << exact(tt.poBytes) << "\n";
    return os.str();
}

compiler::CompiledModel
compileSpanned(Context& ctx, compiler::Specification spec,
               const std::string& label, LayerTotals& t)
{
    const Clock::time_point t0 = Clock::now();
    SpanRecorder::Scope span(ctx.spans, "compiler.compile", label);
    compiler::CompiledModel model = compiler::compile(std::move(spec));
    t.compileMs += secondsSince(t0) * 1e3;
    ++t.compiles;
    return model;
}

compiler::SimulationResult
probeRun(Context& ctx, compiler::CompiledModel& model,
         const compiler::Workload& w, const compiler::RunOptions& ro,
         const std::string& label, LayerTotals& t, double& run_seconds)
{
    auto spanned = [&](const char* name, auto&& fn) {
        const Clock::time_point t0 = Clock::now();
        {
            SpanRecorder::Scope span(ctx.spans, name, label);
            fn();
        }
        return secondsSince(t0) * 1e3;
    };

    model.clearCache();
    compiler::SimulationResult r;
    const double run_ms =
        spanned("compiler.run", [&] { r = model.run(w, ro); });

    const std::vector<ir::EinsumPlan>* plans = nullptr;
    t.plansCallMs +=
        spanned("ir.instantiate", [&] { plans = &model.plans(w); });
    t.plans += plans->size();
    t.walkMs += spanned("exec.walk", [&] {
        for (const ir::EinsumPlan& plan : *plans) {
            NullSink sink;
            exec::Executor ex(plan, sink);
            (void)ex.run();
            t.events += ex.bus().eventCount();
            t.batches += ex.bus().batchCount();
            t.muls += ex.stats().computeMuls;
            t.leafVisits += ex.stats().leafVisits;
        }
    });

    compiler::RunOptions cached = ro;
    cached.cacheState = true;
    t.runCachedMs += spanned("compiler.run_cached",
                             [&] { (void)model.run(w, cached); });
    model.clearCache();

    run_seconds = run_ms / 1e3;
    t.runMs += run_ms;
    t.simSeconds += r.perf.totalSeconds;
    t.dramBytes += r.totalTrafficBytes();
    return r;
}

const std::vector<std::string>&
endToEndKeys()
{
    static const std::vector<std::string> keys{"latency_s", "peak_rss_mb",
                                               "setup_s"};
    return keys;
}

const std::vector<std::string>&
layerKeys()
{
    static const std::vector<std::string> keys{
        "compiler.compile_ms", "ir.instantiate_ms", "ir.plans",
        "exec.walk_ms",        "exec.events",       "exec.batches",
        "exec.muls",           "exec.leaf_visits",  "exec.events_per_s",
        "model.self_ms",       "model.simulated_s", "model.dram_mb",
        "trace.overhead"};
    return keys;
}

void
layerMetrics(Context& ctx, const LayerTotals& t, double overhead)
{
    Report& r = ctx.report;
    r.metric("compiler.compile_ms", t.compileMs, "ms");
    r.metric("compiler.compiles", static_cast<double>(t.compiles), "count");
    r.metric("ir.instantiate_ms", t.runMs - t.runCachedMs, "ms");
    r.metric("ir.plans_call_ms", t.plansCallMs, "ms");
    r.metric("ir.plans", static_cast<double>(t.plans), "count");
    r.metric("exec.walk_ms", t.walkMs, "ms");
    r.metric("exec.events", static_cast<double>(t.events), "count");
    r.metric("exec.batches", static_cast<double>(t.batches), "count");
    r.metric("exec.muls", static_cast<double>(t.muls), "count");
    r.metric("exec.leaf_visits", static_cast<double>(t.leafVisits),
             "count");
    r.metric("exec.events_per_s",
             t.walkMs > 0 ? static_cast<double>(t.events) / (t.walkMs / 1e3)
                          : 0,
             "1/s");
    r.metric("model.self_ms", t.runCachedMs - t.walkMs, "ms");
    r.metric("model.simulated_s", t.simSeconds, "sim_s");
    r.metric("model.dram_mb", t.dramBytes / 1e6, "MB");
    r.metric("trace.overhead", overhead, "ratio");
}

} // namespace perfbench
