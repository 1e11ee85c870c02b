/**
 * @file
 * Serving-latency bench for the simulation-as-a-service daemon
 * (serve/server.hpp): an open-loop Poisson load generator in the
 * TailBench style, swept from light load to past saturation.
 *
 * Methodology:
 *   1. Start an in-process Server on an ephemeral loopback port,
 *      compile one accelerator model, register several dataset pairs
 *      (distinct binding sets keep concurrent requests off a single
 *      plan's per-workload serialization), and warm every plan.
 *   2. Closed-loop phase: one client, sequential requests — measures
 *      per-request service time and calibrates capacity. This is the
 *      bench's deterministic row for the CI perf gate.
 *   3. Open-loop sweep: for each target rate (fractions and multiples
 *      of measured capacity), draw Poisson arrivals from a seeded RNG
 *      and let a pool of client connections fire them on schedule.
 *      Latency is completion minus *scheduled arrival* — queueing
 *      delay counts, which is what makes open-loop tails honest.
 *      Past saturation the server sheds with `overloaded` instead of
 *      letting the accepted tail collapse.
 *
 *   4. Deadline sweep: closed-loop requests carrying `deadline_ms`
 *      budgets at fractions of the measured service time. Budgets
 *      below the service time must come back as structured
 *      `deadline_exceeded` (and promptly — elapsed_ms tracks the
 *      budget, not the full run); generous budgets must not fire.
 *
 * Rows: one gated closed-loop jsonRow (threads/wall_ms), plus
 * informational open-loop rows (p50/p95/p99/shed per target rate)
 * and deadline-sweep rows (ok/deadline_exceeded/p95 elapsed per
 * budget) — no wall_ms on either, so the perf differ reports them
 * without gating; their wall time is load-dependent by construction.
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"
#include "workloads/mtx.hpp"

using namespace teaal;

namespace
{

using Clock = std::chrono::steady_clock;

double
nowSeconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

struct SweepPoint
{
    double targetQps = 0;
    double achievedQps = 0;
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/** One open-loop phase: @p n Poisson arrivals at @p qps, driven by
 *  @p workers synchronous client connections. */
SweepPoint
openLoopPhase(int port, const std::vector<std::string>& requests,
              double qps, std::size_t n, unsigned workers,
              std::uint32_t seed)
{
    // Pre-draw the arrival schedule (seconds from phase start) so
    // every worker sees the same deterministic Poisson process.
    std::mt19937 rng(seed);
    std::exponential_distribution<double> gap(qps);
    std::vector<double> arrivals(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += gap(rng);
        arrivals[i] = t;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::vector<double> latencies(n, -1.0);
    std::mutex latMutex;

    const Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            serve::Client client;
            client.connect(port);
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= n)
                    break;
                const double at = arrivals[i];
                const double now = nowSeconds(start);
                if (now < at)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(at - now));
                const std::string response = client.requestLine(
                    requests[(i + w) % requests.size()]);
                const double done = nowSeconds(start);
                const serve::Json r = serve::parseJson(response);
                const serve::Json* okField = r.find("ok");
                if (okField != nullptr && okField->boolean()) {
                    ok.fetch_add(1);
                    std::lock_guard<std::mutex> lk(latMutex);
                    latencies[i] = (done - at) * 1e3;
                } else {
                    shed.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& th : pool)
        th.join();
    const double elapsed = nowSeconds(start);

    std::vector<double> accepted;
    for (double ms : latencies) {
        if (ms >= 0)
            accepted.push_back(ms);
    }
    SweepPoint point;
    point.targetQps = qps;
    point.achievedQps =
        elapsed > 0 ? static_cast<double>(ok.load()) / elapsed : 0;
    point.p50Ms = percentile(accepted, 0.50);
    point.p95Ms = percentile(accepted, 0.95);
    point.p99Ms = percentile(accepted, 0.99);
    point.ok = ok.load();
    point.shed = shed.load();
    return point;
}

} // namespace

int
main()
{
    const double scale = bench::envScale("TEAAL_SERVE_SCALE", 0.05);
    std::cout << "# serve_latency: open-loop latency sweep against "
                 "the in-process serving daemon\n"
              << "# workload scale factor: " << scale
              << "  (TEAAL_SERVE_SCALE)\n\n";

    // ------------------------------------------------------ datasets
    // Several binding pairs so concurrent evaluations use distinct
    // plan-cache entries (same-workload runs serialize by design).
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "teaal_serve_bench";
    std::filesystem::create_directories(dir);
    constexpr int kPairs = 4;
    const workloads::DatasetInfo& info = workloads::dataset("wi");
    std::vector<std::string> aPaths, bPaths;
    for (int i = 0; i < kPairs; ++i) {
        const ft::Tensor a = workloads::synthesize(
            info, "A", 100 + i, scale, {"K", "M"});
        const ft::Tensor b = workloads::synthesize(
            info, "B", 200 + i, scale, {"K", "N"});
        const std::string ap =
            (dir / ("a" + std::to_string(i) + ".mtx")).string();
        const std::string bp =
            (dir / ("b" + std::to_string(i) + ".mtx")).string();
        workloads::writeMatrixMarket(ap, a);
        workloads::writeMatrixMarket(bp, b);
        aPaths.push_back(ap);
        bPaths.push_back(bp);
    }

    // -------------------------------------------------------- server
    serve::ServerOptions opts;
    opts.maxInFlight = 8; // small cap: the sweep's saturation phases
                          // must actually shed
    serve::Server server(opts);
    server.start();

    serve::Client control;
    control.connect(server.port());

    serve::Json compileReq = serve::Json::makeObject();
    compileReq.set("op", serve::Json::makeString("compile"));
    compileReq.set("accel", serve::Json::makeString("gamma"));
    const serve::Json compiled = control.request(compileReq);
    const std::string model = compiled.find("model")->str();

    std::vector<std::string> evaluateLines;
    for (int i = 0; i < kPairs; ++i) {
        auto load = [&](const std::string& path, const char* name,
                        const char* col) {
            serve::Json req = serve::Json::makeObject();
            req.set("op", serve::Json::makeString("load_dataset"));
            req.set("path", serve::Json::makeString(path));
            req.set("name", serve::Json::makeString(name));
            serve::Json ranks = serve::Json::makeArray();
            ranks.push(serve::Json::makeString("K"));
            ranks.push(serve::Json::makeString(col));
            req.set("rank_ids", std::move(ranks));
            return control.request(req).find("dataset")->str();
        };
        const std::string da = load(aPaths[i], "A", "M");
        const std::string db = load(bPaths[i], "B", "N");

        serve::Json bindings = serve::Json::makeObject();
        bindings.set("A", serve::Json::makeString(da));
        bindings.set("B", serve::Json::makeString(db));
        serve::Json eval = serve::Json::makeObject();
        eval.set("op", serve::Json::makeString("evaluate"));
        eval.set("model", serve::Json::makeString(model));
        eval.set("bindings", std::move(bindings));
        eval.set("threads", serve::Json::makeNumber(1));
        evaluateLines.push_back(eval.dump());
    }

    // Warm every plan (first evaluation instantiates and caches).
    for (const std::string& line : evaluateLines) {
        const serve::Json r =
            serve::parseJson(control.requestLine(line));
        if (r.find("ok") == nullptr || !r.find("ok")->boolean()) {
            std::cerr << "warmup failed: " << r.dump() << "\n";
            return 1;
        }
    }

    // ------------------------------------------- closed-loop capacity
    constexpr int kClosedLoop = 60;
    const Clock::time_point c0 = Clock::now();
    for (int i = 0; i < kClosedLoop; ++i)
        control.requestLine(evaluateLines[i % kPairs]);
    const double closedSeconds = nowSeconds(c0);
    const double serviceMs = closedSeconds * 1e3 / kClosedLoop;
    const double capacityQps = kClosedLoop / closedSeconds;
    std::cout << "closed loop: " << kClosedLoop << " requests, "
              << serviceMs << " ms/request, capacity ~" << capacityQps
              << " qps\n\n";

    // ------------------------------------------------ open-loop sweep
    TextTable table("open-loop sweep (Poisson arrivals, latency from "
                    "scheduled arrival)");
    table.setHeader({"target qps", "achieved", "p50 ms", "p95 ms",
                     "p99 ms", "ok", "shed"});
    std::vector<SweepPoint> sweep;
    const std::vector<double> fractions{0.5, 1.0, 2.0};
    std::vector<std::string> loadLabels;
    for (std::size_t s = 0; s < fractions.size(); ++s) {
        char label[32];
        std::snprintf(label, sizeof(label), "%gx", fractions[s]);
        loadLabels.emplace_back(label);
        const double qps =
            std::max(1.0, capacityQps * fractions[s]);
        const SweepPoint point = openLoopPhase(
            server.port(), evaluateLines, qps, /*n=*/80,
            /*workers=*/16, /*seed=*/7000 + static_cast<int>(s));
        sweep.push_back(point);
        table.addRow({TextTable::num(point.targetQps),
                      TextTable::num(point.achievedQps),
                      TextTable::num(point.p50Ms),
                      TextTable::num(point.p95Ms),
                      TextTable::num(point.p99Ms),
                      std::to_string(point.ok),
                      std::to_string(point.shed)});
    }
    std::cout << table.render() << "\n";

    // --------------------------------------------- deadline sweep
    // Per-request budgets as fractions of the measured service time.
    // Informational (no assertions): the structured-timeout contract
    // itself is covered by the serve tests; this charts how the cut
    // moves with the budget on this machine.
    struct DeadlinePoint
    {
        std::string label;
        double deadlineMs = 0;
        std::uint64_t ok = 0;
        std::uint64_t exceeded = 0;
        std::uint64_t other = 0;
        double p95ElapsedMs = 0;
    };
    TextTable dtable("deadline sweep (budget as a fraction of "
                     "closed-loop service time)");
    dtable.setHeader({"budget", "deadline ms", "ok",
                      "deadline_exceeded", "other", "p95 elapsed ms"});
    std::vector<DeadlinePoint> dsweep;
    constexpr int kDeadlineRequests = 20;
    const std::vector<std::pair<const char*, double>> budgets{
        {"0.25x", 0.25}, {"1x", 1.0}, {"4x", 4.0}};
    for (const auto& [label, frac] : budgets) {
        DeadlinePoint point;
        point.label = label;
        point.deadlineMs = std::max(0.05, serviceMs * frac);
        std::vector<double> elapsed;
        for (int i = 0; i < kDeadlineRequests; ++i) {
            serve::Json req =
                serve::parseJson(evaluateLines[i % kPairs]);
            req.set("deadline_ms",
                    serve::Json::makeNumber(point.deadlineMs));
            const serve::Json r = control.request(req);
            const std::string code = serve::responseErrorCode(r);
            if (code.empty())
                ++point.ok;
            else if (code == "deadline_exceeded")
                ++point.exceeded;
            else
                ++point.other;
            if (const serve::Json* e = r.find("elapsed_ms"))
                elapsed.push_back(e->number());
        }
        point.p95ElapsedMs = percentile(elapsed, 0.95);
        dsweep.push_back(point);
        dtable.addRow({point.label, TextTable::num(point.deadlineMs),
                       std::to_string(point.ok),
                       std::to_string(point.exceeded),
                       std::to_string(point.other),
                       TextTable::num(point.p95ElapsedMs)});
    }
    std::cout << dtable.render() << "\n";

    const auto rssKb = static_cast<double>(bench::peakRssKb());
    std::cout << "peak RSS: " << rssKb << " kB\n";
    const serve::Json stats = serve::parseJson(
        control.requestLine("{\"op\":\"stats\"}"));
    std::cout << "server stats: " << stats.dump() << "\n\n";

    // The deterministic row the CI perf gate compares across commits.
    bench::jsonRow(std::cout, "serve_latency",
                   {{"phase", "closed_loop"}},
                   {{"service_ms", serviceMs},
                    {"capacity_qps", capacityQps},
                    {"peak_rss_kb", rssKb}},
                   /*threads=*/1, /*wall_ms=*/closedSeconds * 1e3);
    // Informational rows: no wall_ms, so the differ lists but never
    // gates them (their duration is load-dependent by construction).
    for (std::size_t s = 0; s < sweep.size(); ++s) {
        const SweepPoint& point = sweep[s];
        bench::jsonRow(std::cout, "serve_latency",
                       {{"phase", "open_loop"},
                        {"load", loadLabels[s]}},
                       {{"target_qps", point.targetQps},
                        {"achieved_qps", point.achievedQps},
                        {"p50_ms", point.p50Ms},
                        {"p95_ms", point.p95Ms},
                        {"p99_ms", point.p99Ms},
                        {"ok", static_cast<double>(point.ok)},
                        {"shed", static_cast<double>(point.shed)}});
    }
    for (const DeadlinePoint& point : dsweep) {
        bench::jsonRow(
            std::cout, "serve_latency",
            {{"phase", "deadline_sweep"}, {"budget", point.label}},
            {{"deadline_ms", point.deadlineMs},
             {"requests", static_cast<double>(kDeadlineRequests)},
             {"ok", static_cast<double>(point.ok)},
             {"deadline_exceeded", static_cast<double>(point.exceeded)},
             {"other", static_cast<double>(point.other)},
             {"p95_elapsed_ms", point.p95ElapsedMs}});
    }

    control.close();
    server.stop();
    std::filesystem::remove_all(dir);

    // The load-shedding contract, asserted where it matters: past
    // saturation (the last sweep point, 2x capacity) the server must
    // have shed — an open-loop overload it absorbed silently would
    // mean an unbounded queue — and the *accepted* tail must stay
    // bounded by the in-flight cap's queueing (generous noise
    // factor; this is a contract check, not a perf gate).
    const SweepPoint& saturated = sweep.back();
    if (saturated.shed == 0) {
        std::cerr << "FAIL: no requests shed at "
                  << saturated.targetQps
                  << " qps (2x capacity); admission control did not "
                     "engage\n";
        return 1;
    }
    const double p99Bound =
        static_cast<double>(opts.maxInFlight) * serviceMs * 8.0;
    if (saturated.p99Ms > p99Bound) {
        std::cerr << "FAIL: accepted p99 " << saturated.p99Ms
                  << " ms exceeds " << p99Bound
                  << " ms (maxInFlight x service x 8) at saturation; "
                     "shedding is not bounding the tail\n";
        return 1;
    }
    return 0;
}
