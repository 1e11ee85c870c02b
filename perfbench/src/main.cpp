/**
 * @file
 * teaal-perfbench: one workload per process.
 *
 *   teaal-perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--size <x>] [--out <dir>]
 *                   [--reference <file>] [--write-reference]
 *
 * Prints every metric by name with its unit, then one JSON line:
 * {"correct", "attempted", "failed", "metrics"} holding the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * A traced run also writes its spans (JSON lines) and a per-layer
 * self-time table to the output directory.
 */
#include <cstdlib>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace
{

using namespace perfbench;

int
usage(const char* why)
{
    std::cerr << "teaal-perfbench: " << why
              << "\nusage: teaal-perfbench --workload "
                 "spmspm-serial|spmspm-sharded|outofcore|dse|serve "
                 "--seed N --seconds S --trace 0|1 [--size X] [--out DIR] "
                 "[--reference FILE] [--write-reference]\n";
    return 2;
}

/** Per-span-name calls, total and self time, printed and saved. */
void
layerTable(const Context& ctx)
{
    struct Row
    {
        std::size_t calls = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    const std::map<std::uint64_t, double> self = ctx.spans.selfMs();
    std::map<std::string, Row> rows;
    for (const Span& s : ctx.spans.spans()) {
        Row& row = rows[s.name];
        ++row.calls;
        row.totalMs += s.durationMs();
        row.selfMs += self.at(s.id);
    }
    std::ostringstream os;
    os << "span                          calls      total ms       self ms\n";
    for (const auto& [name, row] : rows) {
        char line[160];
        std::snprintf(line, sizeof(line), "%-28s %6zu %13.3f %13.3f\n",
                      name.c_str(), row.calls, row.totalMs, row.selfMs);
        os << line;
    }
    std::cout << "\n" << os.str();
    const std::string stem = ctx.opt.workload + "-seed" +
                             std::to_string(ctx.opt.seed);
    std::ofstream(ctx.path("layers-" + stem + ".txt")) << os.str();
    ctx.spans.write(ctx.path("spans-" + stem + ".jsonl"), ctx.opt.workload);
    std::cout << "spans written to " << ctx.path("spans-" + stem + ".jsonl")
              << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::exit(usage(("missing value for " + arg).c_str()));
            }
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
            have_seconds = true;
        } else if (arg == "--trace") {
            opt.trace = value() == "1";
            have_trace = true;
        } else if (arg == "--size")
            opt.size = std::atof(value().c_str());
        else if (arg == "--out")
            opt.outDir = value();
        else if (arg == "--reference")
            opt.referencePath = value();
        else if (arg == "--write-reference")
            opt.writeReference = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (!have_seconds || !have_trace || !(opt.seconds >= 0) ||
        !(opt.size > 0))
        return usage("--seconds and --trace are required; --size must be "
                     "positive");
    std::filesystem::create_directories(opt.outDir);

    Context ctx(opt);
    int code = 0;
    try {
        if (opt.workload == "spmspm-serial")
            runSpmspm(ctx, 1);
        else if (opt.workload == "spmspm-sharded")
            runSpmspm(ctx, 4);
        else if (opt.workload == "outofcore")
            runOutOfCore(ctx);
        else if (opt.workload == "dse")
            runDse(ctx);
        else if (opt.workload == "serve")
            runServe(ctx);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception& e) {
        ctx.report.check(false, std::string("workload aborted: ") + e.what());
        code = 1;
    }

    const std::vector<std::string>& keys =
        opt.trace ? layerKeys() : endToEndKeys();
    for (const std::string& key : keys) {
        const Metric* m = ctx.report.find(key);
        ctx.report.check(m != nullptr && std::isfinite(m->value) &&
                             (opt.trace || m->value > 0),
                         "metric " + key + " missing or not measurable");
    }
    if (opt.trace)
        layerTable(ctx);
    ctx.report.print(opt.workload, keys);
    return code;
}
