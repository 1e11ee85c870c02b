/**
 * @file
 * Microbenchmarks (google-benchmark) of the fibertree substrate: the
 * operations every simulation is built from, plus the executor's
 * batched trace bus (virtual calls per logical trace event).
 */
#include <benchmark/benchmark.h>

#include <map>
#include <span>
#include <vector>

#include "compiler/pipeline.hpp"
#include "exec/executor.hpp"
#include "fibertree/coiter.hpp"
#include "fibertree/transform.hpp"
#include "ir/plan.hpp"
#include "trace/batch.hpp"
#include "util/random.hpp"
#include "workloads/datasets.hpp"

namespace
{

using namespace teaal;

ft::Tensor
matrix(std::size_t nnz)
{
    return workloads::uniformMatrix("A", 4096, 4096, nnz, 42);
}

void
BM_FiberAppend(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ft::Fiber f(static_cast<ft::Coord>(n));
        for (std::size_t i = 0; i < n; ++i)
            f.append(static_cast<ft::Coord>(i), ft::Payload(1.0));
        benchmark::DoNotOptimize(f.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FiberAppend)->Arg(1024)->Arg(65536);

void
BM_FiberLookup(benchmark::State& state)
{
    ft::Fiber f(1 << 20);
    for (ft::Coord c = 0; c < (1 << 16); ++c)
        f.append(c * 16, ft::Payload(1.0));
    Xoshiro256 rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f.find(static_cast<ft::Coord>(rng.below(1 << 20))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberLookup);

void
BM_Intersect2(benchmark::State& state)
{
    ft::Fiber a(1 << 20), b(1 << 20);
    Xoshiro256 rng(9);
    ft::Coord ca = 0, cb = 0;
    for (int i = 0; i < (1 << 15); ++i) {
        ca += 1 + static_cast<ft::Coord>(rng.below(30));
        cb += 1 + static_cast<ft::Coord>(rng.below(30));
        a.append(ca, ft::Payload(1.0));
        b.append(cb, ft::Payload(1.0));
    }
    for (auto _ : state) {
        std::size_t matches = 0;
        ft::intersect2(ft::FiberView::whole(&a),
                       ft::FiberView::whole(&b),
                       [&](ft::Coord, std::size_t, std::size_t) {
                           ++matches;
                       });
        benchmark::DoNotOptimize(matches);
    }
    state.SetItemsProcessed(state.iterations() * (2 << 15));
}
BENCHMARK(BM_Intersect2);

void
BM_Swizzle(benchmark::State& state)
{
    const auto t = matrix(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto s = ft::swizzle(t, {"M", "K"});
        benchmark::DoNotOptimize(s.nnz());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Swizzle)->Arg(10000)->Arg(100000);

/**
 * Gamma's merger swizzle of T[m, k, n] = take(A[m, k], B[k, n]) from
 * [M, K, N] to [M, N, K]: the M prefix is kept, so the sort only
 * reorders within each row of A.
 */
void
BM_SwizzleDeep(benchmark::State& state)
{
    const auto a = workloads::uniformMatrix("A", 1024, 1024, 10000, 43,
                                            {"K", "M"});
    const auto b = workloads::uniformMatrix("B", 1024, 1024, 10000, 44,
                                            {"K", "N"});
    std::map<ft::Coord, std::vector<ft::Coord>> b_rows;
    b.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value) {
        b_rows[p[0]].push_back(p[1]);
    });
    std::vector<std::pair<std::vector<ft::Coord>, ft::Value>> elems;
    a.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value v) {
        for (const ft::Coord n : b_rows[p[0]])
            elems.push_back({{p[1], p[0], n}, v});
    });
    const auto t = ft::Tensor::fromCoo("T", {"M", "K", "N"},
                                       {1024, 1024, 1024}, elems);
    for (auto _ : state) {
        auto s = ft::swizzle(t, {"M", "N", "K"});
        benchmark::DoNotOptimize(s.root());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(elems.size()));
}
BENCHMARK(BM_SwizzleDeep);

void
BM_PartitionOccupancy(benchmark::State& state)
{
    const auto t = matrix(100000);
    const auto flat = ft::flattenRanks(t, "K", "M");
    for (auto _ : state) {
        auto s = ft::splitRankByOccupancy(flat, "KM", 256, "KM1",
                                          "KM0");
        benchmark::DoNotOptimize(s.nnz());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PartitionOccupancy);

void
BM_PartitionShape(benchmark::State& state)
{
    const auto t = matrix(100000);
    for (auto _ : state) {
        auto s = ft::splitRankByShape(t, "K", 256, "K1", "K0");
        benchmark::DoNotOptimize(s.nnz());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PartitionShape);

// ------------------------------------------------- batched trace bus

/** Observer whose batch hook counts virtual calls across the
 *  interface without consuming anything. */
class NullBatchObserver : public trace::Observer
{
  public:
    std::size_t batchCalls = 0;
    std::size_t records = 0;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        ++batchCalls;
        records += batch.events.size();
    }
};

/**
 * Executor over a mid-size SpMSpM, measuring the trace bus: the
 * `events_per_call` counter is the observer virtual-call reduction
 * versus the historical one-virtual-call-per-event engine (>= 10x is
 * the bar this refactor is held to).
 */
void
BM_ExecutorTraceBus(benchmark::State& state)
{
    const char* yaml_text = "einsum:\n"
                            "  declaration:\n"
                            "    A: [K, M]\n"
                            "    B: [K, N]\n"
                            "    Z: [M, N]\n"
                            "  expressions:\n"
                            "    - Z[m, n] = A[k, m] * B[k, n]\n";
    const ft::Tensor a = workloads::uniformMatrix("A", 512, 256, 30000,
                                                  31, {"K", "M"});
    const ft::Tensor b = workloads::uniformMatrix("B", 512, 256, 30000,
                                                  37, {"K", "N"});
    auto model =
        compiler::compile(compiler::Specification::parse(yaml_text));
    compiler::Workload w;
    w.add("A", a).add("B", b);
    const ir::EinsumPlan& plan = model.plans(w)[0];

    std::size_t events = 0;
    std::size_t calls = 0;
    for (auto _ : state) {
        NullBatchObserver obs;
        exec::Executor ex(plan, obs);
        benchmark::DoNotOptimize(ex.run());
        events = obs.records;
        calls = obs.batchCalls;
    }
    state.counters["trace_events"] =
        benchmark::Counter(static_cast<double>(events));
    state.counters["observer_calls"] =
        benchmark::Counter(static_cast<double>(calls));
    state.counters["events_per_call"] = benchmark::Counter(
        calls == 0 ? 0.0
                   : static_cast<double>(events) /
                         static_cast<double>(calls));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ExecutorTraceBus);

} // namespace

BENCHMARK_MAIN();
