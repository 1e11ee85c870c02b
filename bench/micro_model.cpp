/**
 * @file
 * Model-split microbench: model-inclusive wall time of
 * CompiledModel::run per thread count, comparing the two routes the
 * performance model can take under sharded execution:
 *
 *   mode=replay  the pre-split configuration — workers capture the
 *                full trace and the coordinator replays every record
 *                through the serial observer (forced here by
 *                attaching a no-op extra observer, which requires the
 *                full stream; this is also what any run with extra
 *                trace observers gets).
 *   mode=accum   the split configuration — per-shard accumulators
 *                consume the order-independent datapath records
 *                inside the shards; the coordinator replays only the
 *                order-dependent storage records.
 *
 * At threads=1 both modes run the identical serial façade, so their
 * gap is pure noise; at threads>=2 the accum mode's speedup over
 * replay is the model work moved off the coordinator. Records are
 * byte-identical across modes and thread counts (asserted per row —
 * a violation aborts the bench).
 *
 * Emits bench::jsonRow lines keyed by (accel, dataset, mode) with
 * `wall_ms` for the CI perf differ.
 */
#include <cstdlib>
#include <iostream>

#include "common.hpp"

namespace
{

using namespace teaal;

bool
sameTraffic(const compiler::SimulationResult& a,
            const compiler::SimulationResult& b)
{
    for (const auto& [tensor, tt] : a.traffic) {
        const auto it = b.traffic.find(tensor);
        if (it == b.traffic.end() ||
            it->second.readBytes != tt.readBytes ||
            it->second.writeBytes != tt.writeBytes ||
            it->second.poBytes != tt.poBytes)
            return false;
    }
    return a.records.size() == b.records.size();
}

void
runOne(const std::string& accel_name, compiler::Specification spec,
       const std::string& dataset, const bench::SpmspmInput& in,
       TextTable& table)
{
    auto model = compiler::compile(std::move(spec));
    const compiler::Workload w = bench::workloadOf(in);

    // Reference for the per-row equivalence check.
    const compiler::SimulationResult ref = model.run(w);

    trace::Observer noop; // inert; attaching it forces full capture
    double replay_t1_ms = 0;
    for (const unsigned threads : {1u, 2u, 4u}) {
        double mode_ms[2] = {0, 0};
        for (const int accum : {0, 1}) {
            compiler::RunOptions opts;
            opts.threads = threads;
            if (accum == 0)
                opts.observers.push_back(&noop);
            const double secs = bench::bestSeconds(
                [&]() { (void)model.run(w, opts); }, 3);
            const double wall_ms = secs * 1e3;
            mode_ms[accum] = wall_ms;
            if (accum == 0 && threads == 1)
                replay_t1_ms = wall_ms;

            const compiler::SimulationResult got = model.run(w, opts);
            if (!sameTraffic(ref, got)) {
                std::cerr << "MODEL EQUIVALENCE VIOLATION: "
                          << accel_name << "/" << dataset
                          << " threads=" << threads
                          << " mode=" << (accum ? "accum" : "replay")
                          << "\n";
                std::exit(1);
            }

            bench::jsonRow(std::cout, "micro_model",
                           {{"accel", accel_name},
                            {"dataset", dataset},
                            {"mode", accum ? "accum" : "replay"}},
                           {{"speedup_vs_replay_t1",
                             replay_t1_ms / wall_ms}},
                           threads, wall_ms);
        }
        table.addRow({accel_name, dataset, std::to_string(threads),
                      TextTable::num(mode_ms[0], 2),
                      TextTable::num(mode_ms[1], 2),
                      TextTable::num(mode_ms[0] / mode_ms[1], 2) + "x"});
    }
    table.addSeparator();
}

} // namespace

int
main()
{
    const double scale = bench::matrixScale();
    bench::header("model split: serial-observer replay vs "
                  "shard-accumulated model, wall time per thread "
                  "count",
                  scale);

    TextTable table("CompiledModel::run, model-inclusive (best of 3; "
                    "byte-identical records asserted per row)");
    table.setHeader({"accel", "dataset", "threads", "replay ms",
                     "accum ms", "accum speedup"});

    for (const std::string& key :
         {std::string("p2"), std::string("wi")}) {
        const bench::SpmspmInput in = bench::loadSpmspm(key, scale);
        runOne("gamma", accel::gamma({}), key, in, table);
        runOne("extensor", accel::extensor({}), key, in, table);
    }

    table.print();
    std::cout << "\nnote: mode=replay funnels every trace record "
                 "through the coordinator's serial observer (the "
                 "pre-split Amdahl floor); mode=accum consumes the "
                 "order-independent datapath records inside the "
                 "shards and replays only the storage-model records "
                 "in order. Records are byte-identical either way.\n";
    return 0;
}
