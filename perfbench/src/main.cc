/**
 * @file
 * perfbench: the repository benchmark's binary.
 *
 *   perfbench --workload <serve_hot|serve_cold|crash|storm> --seed <n>
 *             --seconds <s> --trace <0|1> [--source <id>]
 *             [--spans-out <file>] [--pinned]
 *
 * --trace 0 measures the workload's end-to-end metrics. --trace 1 runs
 * the layer ladder instead: the workload's own path at full size with
 * spans around every layer call, every other path and the standalone
 * rungs at a reduced size, so each per-layer metric is present on
 * every workload. --pinned prints only the deterministic outputs
 * (modeled times, exact counts, a digest of the generated inputs).
 *
 * Every record starts with its host context: nproc, serving workers,
 * build type, compiler, source id and seed. Timing refuses to run in
 * anything but a Release build.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"
#include "util/logging.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<serve_hot|serve_cold|crash|storm> --seed <n> --seconds "
                 "<s> --trace <0|1> [--source <id>] [--spans-out <file>] "
                 "[--pinned]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *text, uint64_t *out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        uint64_t v = 0;
        if (arg == "--pinned") {
            options.pinned = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            options.workload = argv[++i];
        } else if (arg == "--seed") {
            if (!parseUnsigned(argv[++i], &options.seed))
                return usage("--seed must be a non-negative integer");
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(argv[++i], &v) || v < 1 || v > 600)
                return usage("--seconds must be an integer in [1, 600]");
            options.seconds = static_cast<double>(v);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (!parseUnsigned(argv[++i], &v) || v > 1)
                return usage("--trace must be 0 or 1");
            options.trace = v == 1;
            have_trace = true;
        } else if (arg == "--source") {
            options.source = argv[++i];
        } else if (arg == "--spans-out") {
            options.spansOut = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const std::string &w = options.workload;
    const bool serve = w == "serve_hot" || w == "serve_cold";
    if (!serve && w != "crash" && w != "storm")
        return usage("unknown or missing --workload");
    if (!have_seed)
        return usage("--seed is required");
    if (!options.pinned && (!have_seconds || !have_trace))
        return usage("--seconds and --trace are required");

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "pinned=%d\n",
                w.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                options.pinned ? 1 : 0);
    std::printf("host nproc=%u workers=%u build=%s compiler=%s source=%s "
                "seed=%llu\n",
                std::thread::hardware_concurrency(), kWorkers,
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                options.source.empty() ? "unknown" : options.source.c_str(),
                static_cast<unsigned long long>(options.seed));

    // Recovery paths log at info level; the record is the output.
    wsp::setLogLevel(wsp::LogLevel::Quiet);
    Record record;
    if (options.pinned) {
        if (serve)
            servePinned(options, record);
        else if (w == "crash")
            crashPinned(options, record);
        else
            stormPinned(options, record);
        record.print();
        return record.correct() ? 0 : 1;
    }

    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    if (!options.trace) {
        if (serve)
            runServe(options, record);
        else if (w == "crash")
            runCrash(options, record);
        else
            runStorm(options, record);
    } else {
        Tracer tracer(true);
        serveLadder(options, record, tracer, serve);
        crashLadder(options, record, tracer, w == "crash");
        stormLadder(options, record, tracer, w == "storm");
        runMicroRungs(options, record, tracer);
        record.line("self time by span (name, count, total ms, self ms):");
        for (const Tracer::Totals &t : tracer.totals()) {
            char text[200];
            std::snprintf(text, sizeof(text), "  %-28s %8llu %12.3f %12.3f",
                          t.name.c_str(),
                          static_cast<unsigned long long>(t.count),
                          t.totalNs * 1e-6, t.selfNs * 1e-6);
            record.line(text);
        }
        if (!options.spansOut.empty() && !tracer.write(options.spansOut))
            record.fail(1, "could not write spans to " + options.spansOut);
    }
    record.print();
    return record.correct() ? 0 : 1;
}
