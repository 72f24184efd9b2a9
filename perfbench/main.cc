/**
 * @file
 * vp_perfbench: one benchmark run of one workload.
 *
 *   vp_perfbench --workload offline_eval|fleet_cold|fleet_warm
 *                --seed N --seconds S --trace 0|1
 *                --scratch DIR [--spans PATH]
 *
 * Prints human-readable lines prefixed with '#', then one JSON line:
 * {"correct", "attempted", "failed", "values"}, where values maps metric
 * name to value. With --trace 0 the metrics are the end-to-end ones;
 * with --trace 1 the per-layer ones, and the span log is written to
 * --spans. run.py turns the line into the benchmark result. Exits 1
 * when an output check failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>

#include "common.hh"
#include "spans.hh"

namespace
{

using namespace perfbench;

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
        } else if (key == "--scratch") {
            opt.scratch = val;
        } else if (key == "--spans") {
            opt.spansPath = val;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !opt.scratch.empty() && opt.seconds > 0.0 &&
           (opt.workload == "offline_eval" || opt.workload == "fleet_cold" ||
            opt.workload == "fleet_warm");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: vp_perfbench --workload offline_eval|fleet_cold|"
                     "fleet_warm --seed N --seconds S --trace 0|1 "
                     "--scratch DIR [--spans PATH]\n");
        return 2;
    }
    std::filesystem::create_directories(opt.scratch);

    Report rep;
    std::optional<SpanLog> spans;
    if (opt.trace)
        spans.emplace();
    SpanLog *log = spans ? &*spans : nullptr;
    try {
        if (opt.workload == "offline_eval")
            runOfflineEval(opt, rep, log);
        else
            runFleet(opt, opt.workload == "fleet_warm", rep, log);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vp_perfbench: %s\n", e.what());
        return 1;
    }

    if (!opt.trace)
        rep.set("ok_rate", 1.0 - rep.failureRate());
    if (spans && !opt.spansPath.empty() && !spans->write(opt.spansPath))
        rep.fail(1, "cannot write span log " + opt.spansPath);
    return rep.finish();
}
