/**
 * @file
 * serve: an in-process serve::Server on an ephemeral loopback port,
 * driven closed-loop by 4 client connections that each wait for their
 * reply. The server compiles Gamma and loads 4 seeded dataset pairs;
 * plans are warmed in set-up. Each connection sends its own seeded
 * sequence: `evaluate` (threads=1) on a random pair, with a light
 * `estimate` every fifth request, so light requests can queue behind
 * heavy ones on the shared pool.
 */
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "accelerators/accelerators.hpp"
#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads/datasets.hpp"
#include "workloads/mtx.hpp"

namespace perfbench
{

using namespace teaal;
namespace fs = std::filesystem;

namespace
{

constexpr int kPairs = 4;
constexpr int kConnections = 4;
constexpr int kEstimateEvery = 5;
/// Serve datasets are the wi stand-in at this scale (serve_latency's
/// default), times --size.
constexpr double kServeScale = 0.05;

using serve::Json;

/** Expected response fields, from the library called directly. */
struct Expected
{
    double execSeconds = 0;
    double trafficBytes = 0;
    double muls = 0;
    double estimateSeconds = 0;
};

struct State
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::string> evaluate; ///< request line per pair
    std::vector<std::string> estimate;
};

Json
request(const std::string& op)
{
    Json r = Json::makeObject();
    r.set("op", Json::makeString(op));
    return r;
}

std::string
okOrThrow(const Json& response, const std::string& field)
{
    const Json* ok = response.find("ok");
    if (ok == nullptr || !ok->boolean() || response.find(field) == nullptr)
        throw std::runtime_error("serve set-up request failed: " +
                                 response.dump());
    const Json* value = response.find(field);
    return value->isString() ? value->str() : value->dump();
}

/** One completed request as the client saw it. */
struct Sample
{
    int pair = 0;
    bool evaluate = true;
    double clientMs = 0;
    double serverMs = 0; ///< elapsed_ms (evaluate) / latency_ms (estimate)
};

} // namespace

void
runServe(Context& ctx)
{
    Report& report = ctx.report;
    const std::string dir =
        ctx.path("serve-seed" + std::to_string(ctx.opt.seed));
    fs::create_directories(dir);
    auto file = [&](const std::string& t, int i) {
        return (fs::path(dir) / (t + std::to_string(i) + ".mtx")).string();
    };

    // ---- set-up: dataset files, a started server with Gamma compiled,
    // every dataset loaded and every plan warmed.
    State st;
    auto set_up = [&](State& s) {
        {
            SpanRecorder::Scope span(ctx.spans, "setup.inputs", "serve");
            const workloads::DatasetInfo& info = workloads::dataset("wi");
            const double scale = kServeScale * ctx.opt.size;
            // serve_latency's structure seeds, values per run.
            for (int i = 0; i < kPairs; ++i) {
                workloads::writeMatrixMarket(
                    file("a", i),
                    revalue(workloads::synthesize(info, "A", 100 + i,
                                                  scale, {"K", "M"}),
                            ctx.seedFor(40 + i)));
                workloads::writeMatrixMarket(
                    file("b", i),
                    revalue(workloads::synthesize(info, "B", 200 + i,
                                                  scale, {"K", "N"}),
                            ctx.seedFor(50 + i)));
            }
        }
        SpanRecorder::Scope span(ctx.spans, "serve.setup", "serve");
        s.server = std::make_unique<serve::Server>();
        s.server->start();
        serve::Client control;
        control.connect(s.server->port());
        Json compile = request("compile");
        compile.set("accel", Json::makeString("gamma"));
        const std::string model =
            okOrThrow(control.request(compile), "model");
        for (int i = 0; i < kPairs; ++i) {
            auto load = [&](const std::string& path, const char* name,
                            const char* col) {
                Json req = request("load_dataset");
                req.set("path", Json::makeString(path));
                req.set("name", Json::makeString(name));
                Json ranks = Json::makeArray();
                ranks.push(Json::makeString("K"));
                ranks.push(Json::makeString(col));
                req.set("rank_ids", std::move(ranks));
                return okOrThrow(control.request(req), "dataset");
            };
            Json bindings = Json::makeObject();
            bindings.set("A", Json::makeString(load(file("a", i), "A", "M")));
            bindings.set("B", Json::makeString(load(file("b", i), "B", "N")));
            Json eval = request("evaluate");
            eval.set("model", Json::makeString(model));
            eval.set("bindings", bindings);
            eval.set("threads", Json::makeNumber(1));
            s.evaluate.push_back(eval.dump());
            Json est = request("estimate");
            est.set("model", Json::makeString(model));
            est.set("bindings", std::move(bindings));
            s.estimate.push_back(est.dump());
            okOrThrow(serve::parseJson(control.requestLine(s.evaluate[i])),
                      "exec_seconds");
        }
    };
    const double setup_s = timed([&] { set_up(st); });

    // ---- verification references: the same files through the library
    // directly (this is also where a traced run sees compiler, ir, exec
    // and model time — the server's own calls are out of sight).
    std::vector<Expected> expected(kPairs);
    LayerTotals totals;
    std::string stats;
    {
        compiler::CompiledModel model =
            compileSpanned(ctx, accel::gamma(), "gamma/reference", totals);
        for (int i = 0; i < kPairs; ++i) {
            const ft::Tensor a =
                workloads::readMatrixMarket(file("a", i), "A", {"K", "M"});
            const ft::Tensor b =
                workloads::readMatrixMarket(file("b", i), "B", {"K", "N"});
            compiler::Workload w;
            w.add("A", a).add("B", b);
            double run_s = 0;
            const compiler::SimulationResult r =
                probeRun(ctx, model, w, {}, "gamma/pair" + std::to_string(i),
                         totals, run_s);
            Expected& e = expected[i];
            e.execSeconds = r.perf.totalSeconds;
            e.trafficBytes = r.totalTrafficBytes();
            for (const auto& rec : r.records)
                e.muls += static_cast<double>(rec.execStats.computeMuls);
            e.estimateSeconds = model.estimate(w).seconds();
            stats += "pair " + std::to_string(i) + " estimate " +
                     exact(e.estimateSeconds) + "\n" + canonical(r);
        }
    }
    checkReference(ctx, "serve", fnv1a(stats), "gamma on 4 pairs");

    // ---- closed loop: kConnections clients, each waiting for its reply.
    auto closedLoop = [&](double seconds, std::uint64_t salt) {
        std::vector<std::vector<Sample>> samples(kConnections);
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                try {
                    serve::Client client;
                    client.connect(st.server->port());
                    std::mt19937_64 rng(ctx.seedFor(salt + c));
                    for (int k = 0; secondsSince(t0) < seconds; ++k) {
                        const bool eval = k % kEstimateEvery != kEstimateEvery - 1;
                        // Evaluates go to the connection's own pair, so
                        // no two runs queue on one cached plan state;
                        // estimates pick a seeded pair.
                        const int pair =
                            eval ? c : static_cast<int>(rng() % kPairs);
                        Json req = serve::parseJson(eval ? st.evaluate[pair]
                                                         : st.estimate[pair]);
                        std::string id = "c";
                        id += std::to_string(c);
                        id += "-";
                        id += std::to_string(k);
                        req.set("id", Json::makeString(id));
                        const std::string line = req.dump();
                        std::string reply;
                        const double ms = 1e3 * timed([&] {
                            SpanRecorder::Scope span(
                                ctx.spans, "serve.request",
                                eval ? "evaluate" : "estimate", id);
                            reply = client.requestLine(line);
                        });
                        const Json r = serve::parseJson(reply);
                        const Expected& e = expected[pair];
                        const std::string code = serve::responseErrorCode(r);
                        bool ok = code.empty();
                        if (ok && eval)
                            ok = r.find("exec_seconds")->number() ==
                                     e.execSeconds &&
                                 r.find("traffic_bytes")->number() ==
                                     e.trafficBytes &&
                                 r.find("compute_muls")->number() == e.muls;
                        else if (ok)
                            ok = r.find("exec_seconds_est")->number() ==
                                 e.estimateSeconds;
                        report.check(ok, "serve " + id + ": " + reply);
                        if (!ok)
                            continue;
                        const Json* server_ms =
                            r.find(eval ? "elapsed_ms" : "latency_ms");
                        samples[c].push_back({pair, eval, ms,
                                              server_ms ? server_ms->number()
                                                        : 0});
                    }
                } catch (const std::exception& e) {
                    report.check(false, std::string("serve client ") +
                                            std::to_string(c) + ": " +
                                            e.what());
                }
            });
        }
        for (std::thread& t : clients)
            t.join();
        const double elapsed = secondsSince(t0);
        std::vector<Sample> all;
        for (const auto& v : samples)
            all.insert(all.end(), v.begin(), v.end());
        return std::make_pair(all, elapsed);
    };
    auto latencies = [](const std::vector<Sample>& all, bool eval,
                        bool server) {
        std::vector<double> v;
        for (const Sample& s : all) {
            if (s.evaluate == eval)
                v.push_back(server ? s.serverMs : s.clientMs);
        }
        return v;
    };

    if (ctx.opt.trace) {
        ctx.spans.arm(false);
        const std::vector<Sample> plain =
            closedLoop(ctx.opt.seconds / 2, 100).first;
        ctx.spans.arm(true);
        const std::vector<Sample> traced =
            closedLoop(ctx.opt.seconds / 2, 200).first;
        const double client_p50 = median(latencies(traced, true, false));
        const double server_p50 = median(latencies(traced, true, true));
        std::vector<double> transport;
        for (const Sample& s : traced) {
            if (s.evaluate)
                transport.push_back(s.clientMs - s.serverMs);
        }
        const Json stats =
            serve::parseJson(st.server->handleLine("{\"op\":\"stats\"}"));
        auto stat = [&](const char* group, const char* key) {
            const Json* g = stats.find(group);
            const Json* v = g != nullptr ? g->find(key) : nullptr;
            return v != nullptr ? v->number() : 0.0;
        };
        layerMetrics(ctx, totals,
                     client_p50 / median(latencies(plain, true, false)));
        report.metric("serve.elapsed_ms", server_p50, "ms");
        report.metric("serve.transport_ms", median(transport), "ms");
        report.metric("serve.estimate_p50_ms",
                      median(latencies(traced, false, false)), "ms");
        report.metric("serve.accepted", stat("admission", "accepted"), "count");
        report.metric("serve.shed", stat("admission", "shed"), "count");
        report.metric("serve.peak_in_flight",
                      stat("admission", "peak_in_flight"), "count");
        report.metric("serve.plan_cache_hits", stat("plan_cache", "hits"),
                      "count");
        report.metric("serve.plan_cache_misses", stat("plan_cache", "misses"),
                      "count");
        report.metric("serve_p50_ms.untraced",
                      median(latencies(plain, true, false)), "ms");
        report.metric("serve_p50_ms.traced", client_p50, "ms");
    } else {
        const auto [all, elapsed] = closedLoop(ctx.opt.seconds, 100);
        const double rss = peakRssMb();
        const std::vector<double> eval_ms = latencies(all, true, false);
        const auto [pct, tail] = tailWithSamplesBeyond(eval_ms);
        report.note("serve: closed loop, " + std::to_string(kConnections) +
                    " connections, " + std::to_string(all.size()) +
                    " requests in " + std::to_string(elapsed) + " s (" +
                    std::to_string(eval_ms.size()) + " evaluate); tail is p" +
                    std::to_string(pct) + " of " +
                    std::to_string(eval_ms.size()) +
                    " evaluate samples, with 10 beyond it");
        std::string per_pair = "serve: evaluate p50 per pair (ms):";
        for (int i = 0; i < kPairs; ++i) {
            std::vector<double> v;
            for (const Sample& s : all) {
                if (s.evaluate && s.pair == i)
                    v.push_back(s.clientMs);
            }
            per_pair += " " + std::to_string(median(v)) + " (" +
                        std::to_string(v.size()) + ")";
        }
        report.note(per_pair);
        report.metric("latency_s", median(eval_ms) / 1e3, "s");
        report.metric("serve_p50_ms", median(eval_ms), "ms");
        report.metric("serve_tail_ms", tail, "ms");
        report.metric("serve_qps", static_cast<double>(all.size()) / elapsed,
                      "1/s");
        report.metric("estimate_rtt_ms",
                      median(latencies(all, false, false)), "ms");
        report.metric("peak_rss_mb", rss, "MB");
        st.server->stop();
        report.metric("setup_s", setUpSeconds<State>(ctx, setup_s, set_up),
                      "s");
    }
    st.server->stop();
}

} // namespace perfbench
