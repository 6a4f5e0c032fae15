/**
 * @file
 * crash: the PWR_OK-drop-to-first-correct-op path, single-threaded.
 *
 * The schedule list is the base scenario's enumerated crash windows
 * (CrashExplorer::enumerateCrashPoints) crossed with schedule seeds
 * drawn from the run seed. Every schedule runs through
 * CrashExplorer::runSchedule with its default checkers, black box and
 * incremental saves; each must hold. sim, power, nvram, core, crashsim
 * and trace do all the work here and load none.
 *
 * One reference power failure on the paper-default SystemConfig (Intel
 * C5528 platform, 1050 W PSU, every cache line dirty) gives the
 * modeled save, restore and margin times, which are identical on
 * every run by construction.
 *
 * The traced ladder rebuilds a point from the same public calls
 * runSchedule makes — construct + start, the failure, image capture,
 * a fresh chassis booting from the image — and reports what the
 * point spends beyond them (workload and checkers) as the residual.
 */

#include <cstdio>
#include <memory>

#include "core/system.h"
#include "crashsim/crash_explorer.h"
#include "report.h"
#include "util/rng.h"
#include "util/units.h"

using namespace wsp;
using crashsim::CrashExplorer;
using crashsim::CrashSchedule;

namespace perfbench {

namespace {

/** Schedule seeds crossed with the enumerated windows. */
constexpr unsigned kSeedsPerWindow = 16;

/** Schedules in the pinned prefix every exact count is taken over. */
constexpr size_t kPinnedPoints = 96;

std::vector<CrashSchedule>
buildSchedules(uint64_t seed)
{
    CrashExplorer explorer;
    const std::vector<Tick> windows = explorer.enumerateCrashPoints();
    Rng rng(mixSeed(seed, 77));
    std::vector<CrashSchedule> schedules;
    std::vector<uint64_t> seeds;
    for (unsigned k = 0; k < kSeedsPerWindow; ++k)
        seeds.push_back(rng());
    // Seed-major, so any prefix covers every window once per seed.
    for (uint64_t s : seeds) {
        for (Tick window : windows) {
            CrashSchedule schedule = explorer.base();
            schedule.seed = s;
            schedule.window = window;
            schedules.push_back(schedule);
        }
    }
    return schedules;
}

uint64_t
schedulesDigest(const std::vector<CrashSchedule> &schedules)
{
    uint64_t digest = schedules.size();
    for (const CrashSchedule &s : schedules)
        digest = mixSeed(digest ^ s.seed, static_cast<uint64_t>(s.window));
    return digest;
}

/** Modeled outputs of the reference failure. */
struct Reference
{
    double saveMs = 0, restoreMs = 0, windowMs = 0, contextMs = 0;
    double flushMs = 0, markerMs = 0, nvdimmRestoreMs = 0;
    double deviceRestoreMs = 0;
    bool usedWsp = false;
};

Reference
referenceFailure()
{
    SystemConfig config; // Intel C5528 + 1050 W PSU, paper devices
    WspSystem system(config);
    system.start();
    Rng rng(0x5245464cull); // fixed: the reference does not vary by seed
    system.machine().fillCachesDirty(system.machine().spec().cachePerSocket,
                                     rng);
    // powerFailAndRestore's sequence, split so the residual window
    // drawn for this failure can be read before the boot clears it.
    const Tick fail_at = system.queue().now() + fromMillis(1.0);
    system.psu().failInputAt(fail_at);
    system.queue().runUntil(fail_at + fromSeconds(30.0));
    const Tick window = system.psu().residualWindow();
    RestoreReport restore;
    bool booted = false;
    system.wsp().boot(nullptr, [&](RestoreReport report) {
        restore = report;
        booted = true;
    });
    while (!booted && system.queue().step()) {
    }
    const std::optional<SaveReport> save = system.wsp().lastSave();
    Reference r;
    r.windowMs = toMillis(window);
    if (save.has_value()) {
        r.saveMs = toMillis(save->duration());
        r.contextMs = toMillis(save->contextSaveTime);
        r.flushMs = toMillis(save->cacheFlushTime);
        r.markerMs = toMillis(save->markerTime);
    }
    r.restoreMs = toMillis(restore.duration());
    r.nvdimmRestoreMs = toMillis(restore.nvdimmRestoreTime);
    r.deviceRestoreMs = toMillis(restore.deviceReport.latency);
    r.usedWsp = booted && restore.usedWsp;
    return r;
}

void
noteReference(const Reference &r, Record &record)
{
    if (!r.usedWsp || r.saveMs <= 0.0 || r.windowMs <= r.saveMs)
        record.fail(1, "reference failure did not save within its window "
                       "and resume via WSP");
    record.attempt(1);
    record.note("sim_save_ms", r.saveMs, "ms");
    record.note("sim_restore_ms", r.restoreMs, "ms");
    record.note("sim_margin_ms", r.windowMs - r.saveMs, "ms");
    record.note("core.sim_context_ms", r.contextMs, "ms");
    record.note("core.sim_flush_ms", r.flushMs, "ms");
    record.note("core.sim_marker_ms", r.markerMs, "ms");
    record.note("core.sim_nvdimm_restore_ms", r.nvdimmRestoreMs, "ms");
    record.note("power.sim_window_ms", r.windowMs, "ms");
    record.note("devices.sim_restore_ms", r.deviceRestoreMs, "ms");
}

/** Run one schedule; a violation is a failed point. */
bool
runPoint(const CrashSchedule &schedule, Record &record, bool *used_wsp)
{
    const crashsim::CrashPointResult result =
        CrashExplorer::runSchedule(schedule);
    record.attempt(1);
    if (used_wsp != nullptr)
        *used_wsp = result.restore.usedWsp;
    if (!result.held()) {
        record.fail(1, "crash schedule violated: " + schedule.summary() +
                           ": " + result.violations.front());
        return false;
    }
    return true;
}

/** The replica of one point, built from the calls runSchedule makes. */
struct Replica
{
    double bootNs = 0, failNs = 0, captureNs = 0, restoreNs = 0,
           teardownNs = 0;
    uint64_t events = 0;
};

Replica
replicaPoint(const CrashSchedule &schedule, Tracer &tracer, uint32_t iter)
{
    Replica r;
    ScopedSpan whole(tracer, "crashsim.replica", iter);
    const SystemConfig config = CrashExplorer::configFor(schedule);

    int64_t t0 = nowNs();
    std::unique_ptr<WspSystem> crashed;
    {
        ScopedSpan span(tracer, "core.boot", iter);
        crashed = std::make_unique<WspSystem>(config);
        crashed->start();
    }
    int64_t t1 = nowNs();
    r.bootNs = static_cast<double>(t1 - t0);
    {
        ScopedSpan span(tracer, "core.powerfail", iter);
        uint64_t events = 0;
        crashed->queue().setDispatchObserver([&events](Tick) { ++events; });
        crashed->psu().failInputAt(crashed->queue().now() +
                                   schedule.failDelay);
        crashed->runFor(schedule.failDelay + schedule.outage);
        for (unsigned guard = 0;
             !crashed->nvdimms().allIdle() && guard < 1000; ++guard)
            crashed->runFor(fromMillis(10.0));
        crashed->queue().setDispatchObserver(nullptr);
        r.events = events;
    }
    t0 = nowNs();
    r.failNs = static_cast<double>(t0 - t1);
    NvramImage image;
    {
        ScopedSpan span(tracer, "nvram.capture", iter);
        image = crashed->captureNvramImage();
    }
    t1 = nowNs();
    r.captureNs = static_cast<double>(t1 - t0);
    std::unique_ptr<WspSystem> revived;
    {
        ScopedSpan span(tracer, "core.restore", iter);
        revived = std::make_unique<WspSystem>(config);
        revived->bootFromImage(image);
    }
    t0 = nowNs();
    r.restoreNs = static_cast<double>(t0 - t1);
    {
        ScopedSpan span(tracer, "core.teardown", iter);
        revived.reset();
        crashed.reset();
    }
    r.teardownNs = static_cast<double>(nowNs() - t0);
    return r;
}

double
usOf(double ns)
{
    return ns * 1e-3;
}

} // namespace

void
runCrash(const Options &options, Record &record)
{
    HostProbe probe;
    std::vector<CrashSchedule> schedules;
    const double setup_s = scaledSetup(probe, 101, 10, [&](unsigned) {
        schedules = buildSchedules(options.seed);
    });
    const size_t block = schedules.size() / kSeedsPerWindow;
    char text[200];
    std::snprintf(text, sizeof(text),
                  "crash list: %zu schedules (%zu windows x %u seeds), "
                  "passes over it for %.0f s",
                  schedules.size(), block, kSeedsPerWindow, options.seconds);
    record.line(text);

    noteReference(referenceFailure(), record);

    // Whole passes over the list, so every run weighs every point
    // equally; points_per_s is points over the time they took. The
    // host probe runs after every block of one seed's windows, and the
    // block's times are scaled by it (see HostProbe).
    std::vector<double> point_ns;
    size_t passes = 0;
    double total_ns = 0.0;
    size_t run = 0, wsp = 0, violations = 0;
    probe.next();
    const int64_t end =
        nowNs() + static_cast<int64_t>(options.seconds * 1e9);
    while (passes < 3 || nowNs() < end) {
        for (size_t first = 0; first < schedules.size(); first += block) {
            const size_t from = point_ns.size();
            const int64_t block_start = nowNs();
            for (size_t i = first; i < first + block; ++i) {
                bool used_wsp = false;
                const int64_t t0 = nowNs();
                violations += runPoint(schedules[i], record, &used_wsp) ? 0
                                                                        : 1;
                point_ns.push_back(static_cast<double>(nowNs() - t0));
                wsp += used_wsp ? 1 : 0;
                ++run;
            }
            const auto block_ns = static_cast<double>(nowNs() - block_start);
            const double scale = probe.next();
            for (size_t i = from; i < point_ns.size(); ++i)
                point_ns[i] *= scale;
            total_ns += block_ns * scale;
        }
        ++passes;
    }

    const double points_per_s = static_cast<double>(run) / (total_ns * 1e-9);
    record.metric("work_per_s", points_per_s, "1/s");
    record.note("points_per_s", points_per_s, "1/s");
    record.metric("p50_us", usOf(median(point_ns)), "us");
    record.note("p99_us", usOf(quantile(point_ns, 0.99)), "us");
    record.metric("setup_s", setup_s, "s");
    record.metric("rss_mb", peakRssMb(), "MB");
    record.note("host_probe_ms", probe.medianNs() * 1e-6, "ms");
    record.note("violation_ratio",
                static_cast<double>(violations) / static_cast<double>(run),
                "ratio");
    record.note("crashsim.wsp_ratio",
                static_cast<double>(wsp) / static_cast<double>(run), "ratio");
    record.note("points", static_cast<double>(run), "count");
}

void
crashPinned(const Options &options, Record &record)
{
    const std::vector<CrashSchedule> schedules = buildSchedules(options.seed);
    record.note("inputs_digest",
                static_cast<double>(schedulesDigest(schedules) >> 11),
                "digest");
    record.note("crash_points", static_cast<double>(schedules.size()),
                "count");
    noteReference(referenceFailure(), record);
    Tracer off(false);
    size_t wsp = 0;
    uint64_t events = 0;
    for (size_t i = 0; i < kPinnedPoints; ++i) {
        bool used_wsp = false;
        runPoint(schedules[i], record, &used_wsp);
        wsp += used_wsp ? 1 : 0;
        CrashSchedule quiet = schedules[i];
        quiet.blackBox = false;
        events += replicaPoint(quiet, off, static_cast<uint32_t>(i)).events;
    }
    record.note("crashsim.wsp_ratio",
                static_cast<double>(wsp) / kPinnedPoints, "ratio");
    record.note("sim.events_per_powerfail",
                static_cast<double>(events) / kPinnedPoints, "count");
}

void
crashLadder(const Options &options, Record &record, Tracer &tracer, bool full)
{
    const std::vector<CrashSchedule> schedules = buildSchedules(options.seed);
    const double budget = full ? options.seconds : 0.8;

    // Each iteration: the point as runSchedule runs it (black box on),
    // the same point with the black box off, and the replica (black
    // box off). Untraced points interleave for the overhead figure.
    std::vector<double> on_ns, diff_ns, untraced_ns;
    std::vector<Replica> replicas;
    size_t wsp = 0;
    uint64_t pinned_events = 0;
    const int64_t end = nowNs() + static_cast<int64_t>(budget * 1e9);
    const bool tracing = tracer.enabled();
    for (size_t i = 0; i < kPinnedPoints || nowNs() < end; ++i) {
        const CrashSchedule &s = schedules[i % schedules.size()];
        const auto iter = static_cast<uint32_t>(i);
        CrashSchedule quiet = s;
        quiet.blackBox = false;

        if (full) {
            tracer.setEnabled(false);
            const int64_t t0 = nowNs();
            runPoint(s, record, nullptr);
            untraced_ns.push_back(static_cast<double>(nowNs() - t0));
            tracer.setEnabled(tracing);
        }
        bool used_wsp = false;
        int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, "crashsim.point", iter);
            runPoint(s, record, &used_wsp);
        }
        const auto on = static_cast<double>(nowNs() - t0);
        t0 = nowNs();
        {
            ScopedSpan span(tracer, "crashsim.point_no_blackbox", iter);
            runPoint(quiet, record, nullptr);
        }
        const auto off = static_cast<double>(nowNs() - t0);
        on_ns.push_back(on);
        diff_ns.push_back(on - off);
        replicas.push_back(replicaPoint(quiet, tracer, iter));
        if (i < kPinnedPoints) {
            wsp += used_wsp ? 1 : 0;
            pinned_events += replicas.back().events;
        }
    }

    auto med = [&](double Replica::*field) {
        std::vector<double> v;
        for (const Replica &r : replicas)
            v.push_back(r.*field);
        return median(v);
    };
    const double point = median(on_ns);
    const double boot = med(&Replica::bootNs);
    const double fail = med(&Replica::failNs);
    const double capture = med(&Replica::captureNs);
    const double restore = med(&Replica::restoreNs);
    const double teardown = med(&Replica::teardownNs);
    const double blackbox = median(diff_ns);
    const double residual =
        point - (boot + fail + capture + restore + teardown + blackbox);

    record.metric("crashsim.point_us", usOf(point), "us");
    record.metric("crashsim.point_p99_us", usOf(quantile(on_ns, 0.99)), "us");
    record.metric("crashsim.residual_us", usOf(residual), "us");
    record.metric("crashsim.wsp_ratio",
                  static_cast<double>(wsp) / kPinnedPoints, "ratio");
    record.metric("core.boot_us", usOf(boot), "us");
    record.metric("core.powerfail_us", usOf(fail), "us");
    record.metric("core.restore_us", usOf(restore), "us");
    record.metric("core.teardown_us", usOf(teardown), "us");
    record.metric("nvram.capture_us", usOf(capture), "us");
    record.metric("trace.blackbox_us_per_point", usOf(blackbox), "us");
    record.metric("sim.events_per_powerfail",
                  static_cast<double>(pinned_events) / kPinnedPoints,
                  "count");
    if (full) {
        const double untraced = median(untraced_ns);
        record.metric("trace.span_overhead_pct",
                      (point - untraced) / untraced * 100.0, "%");
    }

    char text[400];
    std::snprintf(text, sizeof(text),
                  "ladder crash (us per point): point %.1f = core.boot %.1f "
                  "+ core.powerfail %.1f + nvram.capture %.1f + core.restore "
                  "%.1f + core.teardown %.1f + trace.blackbox %.1f + residual "
                  "%.1f (workload and checkers, %.1f%%)",
                  usOf(point), usOf(boot), usOf(fail), usOf(capture),
                  usOf(restore), usOf(teardown), usOf(blackbox),
                  usOf(residual), point > 0 ? residual / point * 100.0 : 0.0);
    record.line(text);
    if (full)
        noteReference(referenceFailure(), record);
}

} // namespace perfbench
