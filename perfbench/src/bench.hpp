/**
 * @file
 * What the five workloads share: command-line options, the run
 * context, seeded input derivation, the stored-reference gate, and the
 * layer probe that splits one model run into instantiate / walk /
 * model time from outside the library.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "harness.hpp"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Multiplies every workload's input sizes (the self-test runs
    /// tiny).
    double size = 1.0;
    /// Scratch directory for stores, spill segments, .mtx files,
    /// spans and cross-workload digests.
    std::string outDir = ".perfbench_out";
    std::string referencePath;
    /// Record this run's digests into the reference file instead of
    /// checking them.
    bool writeReference = false;
};

/** Minimum set-ups per untraced run; setup_s is their median. */
inline constexpr std::size_t kSetupReps = 5;

/** One workload run: options, the report, and the span recorder. */
struct Context
{
    explicit Context(Options o) : opt(std::move(o)), spans(opt.trace) {}

    Options opt;
    Report report;
    SpanRecorder spans;

    /** A per-input seed derived from the run seed (splitmix64). */
    std::uint64_t
    seedFor(std::uint64_t salt) const
    {
        std::uint64_t z = opt.seed * 0x9E3779B97F4A7C15ULL + salt;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Path of a scratch file in the output directory. */
    std::string path(const std::string& name) const;
};

/**
 * @p t with the same nonzero structure and fresh values in [1, 2)
 * drawn from @p seed. The workloads draw their per-seed inputs this
 * way: structure comes from the benches' fixed stand-in seeds, so
 * every seed does the same work and simulates the same statistics.
 * Drawing the structure per seed would not: on the power-law
 * stand-ins, whether heavy rows of A and B meet swings a pass by over
 * 40% from one seed to the next, and even a shared relabeling of the
 * contraction rank moves ExTensor's tile occupancy by 10-20%.
 */
teaal::ft::Tensor revalue(const teaal::ft::Tensor& t, std::uint64_t seed);

/** FNV-1a over every nonzero's coordinates and value bits: equal
 *  digests mean bit-identical tensors. */
std::uint64_t tensorDigest(const teaal::ft::Tensor& t);

/**
 * Compare @p digest (a hash of simulated statistics) with the stored
 * reference for (@p group, size) — or record it under
 * --write-reference. The seed only draws values, so one reference
 * covers every seed; spmspm-serial and spmspm-sharded share theirs,
 * which is how their statistics are proven byte-identical.
 * @p summary is stored next to the digest so a mismatch can be read
 * without rerunning.
 */
void checkReference(Context& ctx, const std::string& group,
                    const std::string& digest, const std::string& summary);

/** Canonical text of every simulated statistic of a run: per-Einsum
 *  records (action counts, exec stats, per-PE maxima, traffic),
 *  cascade traffic and simulated seconds. */
std::string canonical(const teaal::compiler::SimulationResult& r);

/** Per-layer totals gathered by probeRun over a traced phase. */
struct LayerTotals
{
    double compileMs = 0;
    std::size_t compiles = 0;
    double plansCallMs = 0;
    std::size_t plans = 0;
    double walkMs = 0;
    std::size_t events = 0;
    std::size_t batches = 0;
    std::size_t muls = 0;
    std::size_t leafVisits = 0;
    double runMs = 0;       ///< first run: instantiate + execute + model
    double runCachedMs = 0; ///< repeat run on cached plans
    double simSeconds = 0;
    double dramBytes = 0;
};

/** compile() in a "compiler.compile" span, counted into @p t. */
teaal::compiler::CompiledModel
compileSpanned(Context& ctx, teaal::compiler::Specification spec,
               const std::string& label, LayerTotals& t);

/**
 * One model run split into layers from outside. The run itself (cache
 * cleared first, so it pays everything a single-shot run pays) is the
 * "compiler.run" span; then plans() ("ir.instantiate"), a threads=1
 * exec::Executor walk of every plan into a no-op sink ("exec.walk"),
 * and a repeat run on the now-cached plans ("compiler.run_cached").
 * Plan instantiation costs run - run_cached, and the model's own time
 * is run_cached - walk. plans() alone is not the instantiation cost:
 * for cascades (Gamma, OuterSPACE) it also executes the Einsums whose
 * outputs later plans consume.
 * Returns the run's result; @p run_seconds gets the run span alone.
 */
teaal::compiler::SimulationResult
probeRun(Context& ctx, teaal::compiler::CompiledModel& model,
         const teaal::compiler::Workload& w,
         const teaal::compiler::RunOptions& ro, const std::string& label,
         LayerTotals& t, double& run_seconds);

/** The per-layer metrics every workload reports from its traced
 *  phase; @p overhead is traced ÷ untraced time of the same calls. */
void layerMetrics(Context& ctx, const LayerTotals& t, double overhead);

/** Names of the per-layer metrics in the final JSON line. */
const std::vector<std::string>& layerKeys();

/** Names of the end-to-end metrics in the final JSON line. */
const std::vector<std::string>& endToEndKeys();

/**
 * setup_s: the median of @p first_s (the run's own set-up) and, in
 * untraced runs, more set-ups into throwaway state — at least
 * kSetupReps in all, and more (up to 100) until they add up to
 * 1.5 seconds, so a set-up of a few milliseconds is not one noise
 * burst.
 * Call it after measuring: repeated set-ups retain memory (the serve
 * workload grows ~10 MB per server started), which must not raise the
 * measured peak RSS.
 */
template <typename State, typename SetUp>
double
setUpSeconds(const Context& ctx, double first_s, SetUp&& set_up)
{
    std::vector<double> s{first_s};
    double total = first_s;
    while (!ctx.opt.trace &&
           (s.size() < kSetupReps ||
            (total < 1.5 && s.size() < 100))) {
        State scratch;
        s.push_back(timed([&] { set_up(scratch); }));
        total += s.back();
    }
    return median(s);
}

/** Repeat @p pass (at least once) while the next one, if it takes as
 *  long as the last, still ends within @p seconds, so a run does not
 *  overshoot its length by up to a pass. */
template <typename Pass>
void
forSeconds(double seconds, Pass&& pass)
{
    const Clock::time_point t0 = Clock::now();
    double last = 0;
    do {
        last = timed(pass);
    } while (secondsSince(t0) + last <= seconds);
}

// Workload entry points.
void runSpmspm(Context& ctx, unsigned threads);
void runOutOfCore(Context& ctx);
void runDse(Context& ctx);
void runServe(Context& ctx);

} // namespace perfbench
