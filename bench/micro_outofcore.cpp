/**
 * @file
 * Out-of-core microbench: the two costs the mmap store and the trace
 * spill layer exist to remove, and the offline input preparation
 * between them.
 *
 * 1. Cold start. A ~10x-validation-scale power-law matrix is written
 *    as Matrix Market and as a packed store (what `teaal-pack` emits);
 *    the bench times parse+pack against storage::mapStore of the same
 *    bytes. The mmap path must be >= 50x faster — it reads a 64-byte
 *    prologue plus a small header and binds section pointers, while
 *    the text path tokenizes tens of megabytes. A violation aborts
 *    the bench (exit 1), same contract as micro_parallel's
 *    determinism check.
 *
 * 2. Preparation. Gamma's offline preparation of the mapped A (§3.2.2):
 *    the [K, M] -> [M, K] swizzle straight off the store's rank
 *    buffers, then the uniform_occupancy splits of M and K, the first
 *    copying the swizzled tree as the planner does, the second
 *    restructuring that copy in place.
 *
 * 3. Spilled vs resident sharded replay. The same big matrix drives a
 *    Gamma SpMSpM against a diagonal B (linear work — the input is
 *    huge, the compute is not), threads = 4, once with
 *    RunOptions::spillDir set and once resident. The spilled run goes
 *    FIRST; because VmHWM is a process-lifetime high-water mark, the
 *    later resident run can only push it higher — and must, since it
 *    keeps every captured slice log in memory at once. The bench
 *    asserts exactly that ordering (spilled peak < resident peak),
 *    proving the spill bound without comparing absolute RSS across
 *    machines. Requires /proc/self/status (skipped gracefully
 *    elsewhere).
 *
 * Emits bench::jsonRow lines (phase = parse_pack | mmap | prepare |
 * spilled | resident) for the CI artifact; the threads=1 cold-start
 * and prepare rows feed the ci/perf_diff.py wall-time gate.
 */
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "fibertree/transform.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "workloads/mtx.hpp"

namespace
{

using namespace teaal;
namespace fs = std::filesystem;

double
onceSeconds(const std::function<void()>& fn)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    const double scale = bench::matrixScale();
    bench::header("out-of-core: mmap cold start + disk-spilled replay",
                  scale);

    // ~10x the largest validation matrix (em, Table 4), scaled like
    // every other bench. At the default 0.35 that is ~1.3M nonzeros —
    // a ~40 MB Matrix Market file.
    const workloads::DatasetInfo& em = workloads::dataset("em");
    const auto rows = static_cast<ft::Coord>(
        static_cast<double>(em.rows) * scale);
    const auto big_nnz = static_cast<std::size_t>(
        static_cast<double>(em.nnz) * 10.0 * scale);
    const ft::Tensor big = workloads::powerLawMatrix(
        "A", rows, rows, big_nnz, 97, {"K", "M"});

    const fs::path dir =
        fs::temp_directory_path() / "teaal_micro_outofcore";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string mtx_path = (dir / "big.mtx").string();
    const std::string store_path = (dir / "big.teaal").string();
    workloads::writeMatrixMarket(mtx_path, big);
    storage::writeStore(store_path,
                        storage::PackedTensor::fromTensor(big));

    TextTable table("out-of-core");
    table.setHeader({"phase", "wall ms", "vs parse+pack",
                     "peak RSS MB"});

    // ---- 1. cold start: parse+pack vs mmap --------------------------
    storage::PackedTensor parsed;
    const double parse_s = onceSeconds([&]() {
        parsed = workloads::readMatrixMarketPacked(mtx_path, "A",
                                                   {"K", "M"});
    });
    // mmap is microseconds; take the best of several for a stable
    // number (bestSeconds adds one warmup call).
    storage::PackedTensor mapped;
    const double map_s = bench::bestSeconds(
        [&]() { mapped = storage::mapStore(store_path); }, 5);
    const double cold_ratio = parse_s / map_s;

    if (parsed.nnz() != mapped.nnz() ||
        !(parsed.values() == mapped.values())) {
        std::cerr << "STORE MISMATCH: mapped store disagrees with "
                     "parse+pack of the same matrix\n";
        return 1;
    }

    table.addRow({"parse+pack", TextTable::num(parse_s * 1e3, 2), "1x",
                  "-"});
    table.addRow({"mmap", TextTable::num(map_s * 1e3, 3),
                  TextTable::num(cold_ratio, 0) + "x", "-"});
    bench::jsonRow(std::cout, "micro_outofcore",
                   {{"phase", "parse_pack"}},
                   {{"nnz", static_cast<double>(parsed.nnz())}}, 1,
                   parse_s * 1e3);
    bench::jsonRow(std::cout, "micro_outofcore", {{"phase", "mmap"}},
                   {{"cold_start_speedup", cold_ratio}}, 1,
                   map_s * 1e3);

    if (cold_ratio < 50.0) {
        std::cerr << "COLD-START REGRESSION: mmap is only "
                  << cold_ratio << "x faster than parse+pack "
                  << "(contract: >= 50x)\n";
        return 1;
    }

    // ---- 2. Gamma's preparation of the mapped A ----------------------
    // Timed before the runs so its allocations do not set the RSS
    // watermark the spill check compares. Best of three after a
    // warmup, like bench::bestSeconds, but the leaf count checked
    // below stays outside the timed region.
    const accel::GammaConfig gamma_cfg;
    double prepare_s = 1e30;
    std::size_t prepared_nnz = 0;
    for (int i = 0; i < 4; ++i) {
        ft::Tensor prepared;
        const double s = onceSeconds([&]() {
            const ft::Tensor swizzled = ft::swizzle(mapped, {"M", "K"});
            prepared = ft::splitRankByOccupancy(
                swizzled, "M", gamma_cfg.rowChunk, "M1", "M0");
            prepared = ft::splitRankByOccupancy(
                std::move(prepared), "K", gamma_cfg.kChunk, "K1", "K0");
        });
        if (i > 0)
            prepare_s = std::min(prepare_s, s);
        prepared_nnz = prepared.nnz();
    }
    if (prepared_nnz != mapped.nnz()) {
        std::cerr << "PREPARE MISMATCH: prepared A holds " << prepared_nnz
                  << " leaves, the store " << mapped.nnz() << "\n";
        return 1;
    }
    table.addRow({"prepare", TextTable::num(prepare_s * 1e3, 2), "-",
                  "-"});
    bench::jsonRow(std::cout, "micro_outofcore", {{"phase", "prepare"}},
                   {{"nnz", static_cast<double>(prepared_nnz)}}, 1,
                   prepare_s * 1e3);

    // ---- 3. spilled vs resident sharded replay ----------------------
    // Diagonal B keeps the compute linear in nnz(A) while the trace —
    // what the spill layer actually bounds — stays large.
    const ft::Tensor diag = workloads::bandedMatrix(
        "B", rows, rows, static_cast<std::size_t>(rows), 98,
        {"K", "N"});
    compiler::Workload w;
    w.add("A", mapped).add("B", diag);
    auto model = compiler::compile(accel::gamma());

    const fs::path spill_dir = dir / "spill";
    fs::create_directories(spill_dir);

    // Spilled first: VmHWM can only grow, so the resident run beating
    // this watermark is exactly the claim under test.
    compiler::RunOptions opts;
    opts.threads = 4;
    opts.cacheState = false;
    opts.spillDir = spill_dir.string();
    opts.spillSegmentBytes = 1u << 20;
    compiler::SimulationResult spilled;
    const double spill_s =
        onceSeconds([&]() { spilled = model.run(w, opts); });
    const std::size_t spill_hwm_kb = bench::peakRssKb();

    opts.spillDir.clear();
    compiler::SimulationResult resident;
    const double resident_s =
        onceSeconds([&]() { resident = model.run(w, opts); });
    const std::size_t resident_hwm_kb = bench::peakRssKb();

    table.addRow({"spilled t4", TextTable::num(spill_s * 1e3, 1), "-",
                  TextTable::num(spill_hwm_kb / 1024.0, 1)});
    table.addRow({"resident t4", TextTable::num(resident_s * 1e3, 1),
                  "-", TextTable::num(resident_hwm_kb / 1024.0, 1)});
    bench::jsonRow(
        std::cout, "micro_outofcore", {{"phase", "spilled"}},
        {{"peak_rss_mb", spill_hwm_kb / 1024.0},
         {"spill_files", static_cast<double>(spilled.spill.files)},
         {"spill_frames", static_cast<double>(spilled.spill.frames)},
         {"spill_mb", spilled.spill.bytes / (1024.0 * 1024.0)}},
        4, spill_s * 1e3);
    bench::jsonRow(std::cout, "micro_outofcore",
                   {{"phase", "resident"}},
                   {{"peak_rss_mb", resident_hwm_kb / 1024.0}}, 4,
                   resident_s * 1e3);

    if (spilled.spill.frames == 0) {
        std::cerr << "SPILL INERT: no frames hit disk — segment "
                     "threshold too high for this trace\n";
        return 1;
    }
    if (spill_hwm_kb != 0 && resident_hwm_kb <= spill_hwm_kb) {
        std::cerr << "RSS BOUND VIOLATION: resident peak ("
                  << resident_hwm_kb << " KiB) did not exceed the "
                  << "spilled run's watermark (" << spill_hwm_kb
                  << " KiB) — spilling is not bounding trace memory\n";
        return 1;
    }

    std::cout << "\n";
    table.print();
    std::cout << "\nmmap cold start: " << TextTable::num(cold_ratio, 0)
              << "x faster than parse+pack; spilled run wrote "
              << spilled.spill.files << " segment file(s), "
              << spilled.spill.frames << " frame(s), peak RSS "
              << TextTable::num(spill_hwm_kb / 1024.0, 1)
              << " MB vs resident "
              << TextTable::num(resident_hwm_kb / 1024.0, 1) << " MB\n";

    fs::remove_all(dir);
    return 0;
}
