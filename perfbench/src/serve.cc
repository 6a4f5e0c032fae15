/**
 * @file
 * serve_hot and serve_cold: the client-op path, from a generated op
 * through the load plane's rings into the sharded store, its cache
 * model and NVRAM, and back.
 *
 * Both workloads drive load::TrafficPlane::run over 8 shards with
 * kWorkers workers and disjoint per-worker key ranges, so the
 * threaded result is exactly checkable against runSequential. They
 * differ in what dominates:
 *
 *  - serve_hot: read-heavy Zipf(0.99) over 8192 keys, far below the
 *    2 MiB modeled cache of each shard. Every line stays resident, so
 *    time goes to the plane (streams, rings, drains) and the store's
 *    probes. Shows dispatch changes; hides cache and NVRAM changes.
 *  - serve_cold: write-heavy uniform over 3M keys (about 375k live per
 *    shard against 131k slots of cache per shard), so nearly every op
 *    misses, evicts and writes back into NVRAM. Shows cache-store and
 *    NVRAM changes; a dispatch-only change stays flat here.
 *
 * A run sets the rig up three times (median = setup_s), checks the
 * first paced and the first unpaced round against a sequential replay
 * on an identically built twin, then spends half of --seconds on
 * unpaced rounds (throughput) and half on open-loop rounds at a fixed
 * per-worker rate (latency from each op's intended send time).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "apps/kv_store.h"
#include "load/traffic_plane.h"
#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "report.h"
#include "sim/event_queue.h"
#include "util/thread_pool.h"
#include "util/units.h"

using namespace wsp;

namespace perfbench {

namespace {

constexpr unsigned kShards = 8;

/** The inputs of one serving workload. */
struct ServeShape
{
    const char *name;
    uint64_t perShardCapacity; ///< slots per shard (power of two)
    uint64_t keysPerWorker;
    uint32_t getPermille;
    uint32_t erasePermille;
    double zipfTheta;
    uint64_t roundOps;      ///< per worker, unpaced round
    double pacedPerWorker;  ///< open-loop offered rate, ops/s per worker
    uint64_t pacedRoundOps; ///< per worker, paced round
    unsigned setups;        ///< rig builds per run (median = setup_s)
};

constexpr ServeShape kHot{"serve_hot", 16384, 4096, 900, 20, 0.99,
                          1u << 20, 5.0e6, 1u << 20, 9};
constexpr ServeShape kCold{"serve_cold", 1u << 20, 1500000, 200, 100, 0.0,
                           1u << 18, 0.25e6, 1u << 16, 3};

/** One shard's private machine: NVDIMM, address space, cache. */
struct ShardMachine
{
    ShardMachine(const std::string &name, uint64_t bytes)
        : dimm(queue, name, dimmConfig(bytes)),
          cache(name + ".cache", 2 * kMiB, CacheTiming{}, space)
    {
        space.addModule(dimm);
    }

    static NvdimmConfig dimmConfig(uint64_t bytes)
    {
        NvdimmConfig config;
        config.capacityBytes = ((bytes + kMiB - 1) / kMiB) * kMiB;
        return config;
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    CacheModel cache;
};

/** A prefilled sharded store over private shard machines. */
struct Rig
{
    std::vector<std::unique_ptr<ShardMachine>> shards;
    std::unique_ptr<apps::ShardedKvStore> store;
};

uint64_t
prefillValue(uint64_t seed, uint64_t key)
{
    return mixSeed(seed, key) | 1;
}

std::unique_ptr<Rig>
buildRig(const ServeShape &shape, uint64_t seed, ThreadPool &pool)
{
    auto rig = std::make_unique<Rig>();
    const uint64_t region =
        apps::ShardedKvStore::regionBytes(kShards, shape.perShardCapacity);
    std::vector<CacheModel *> caches;
    for (unsigned i = 0; i < kShards; ++i) {
        rig->shards.push_back(std::make_unique<ShardMachine>(
            "pb.shard" + std::to_string(i), region));
        caches.push_back(&rig->shards.back()->cache);
    }
    rig->store = std::make_unique<apps::ShardedKvStore>(
        std::span<CacheModel *const>(caches), 0, shape.perShardCapacity);

    // Every key of every worker's range starts live, so gets hit and
    // the cold working set is full from the first op. Shards are
    // private machines, so the workers fill disjoint shard sets in
    // ascending key order: the result does not depend on scheduling.
    const uint64_t keys = shape.keysPerWorker * kWorkers;
    apps::ShardedKvStore &store = *rig->store;
    pool.runWorkers([&](unsigned w) {
        std::vector<std::vector<apps::KvOp>> runs(kShards);
        auto flush = [&](unsigned s) {
            store.applyShardBatch(s, runs[s]);
            runs[s].clear();
        };
        for (uint64_t key = 1; key <= keys; ++key) {
            const unsigned s = store.shardOf(key);
            if (s % kWorkers != w)
                continue;
            runs[s].push_back(apps::KvOp::put(key, prefillValue(seed, key)));
            if (runs[s].size() == 512)
                flush(s);
        }
        for (unsigned s = w; s < kShards; s += kWorkers)
            flush(s);
    });
    return rig;
}

load::TrafficPlaneConfig
planeConfig(const ServeShape &shape, uint64_t seed, bool paced)
{
    load::TrafficPlaneConfig config;
    config.workers = kWorkers;
    config.opsPerWorker = paced ? shape.pacedRoundOps : shape.roundOps;
    config.keysPerWorker = shape.keysPerWorker;
    config.disjointKeys = true;
    config.getPermille = shape.getPermille;
    config.erasePermille = shape.erasePermille;
    config.zipfTheta = shape.zipfTheta;
    config.seed = seed;
    config.pacedOpsPerSec = paced ? shape.pacedPerWorker : 0.0;
    // Paced producers send in small bursts, so an op's intended time
    // is close to its own schedule slot rather than its burst's.
    config.burstOps = 256;
    // 1 us buckets up to 100 ms; anything later is overflow and is
    // never reported as a value.
    config.latencyHiMs = 100.0;
    config.latencyBuckets = 100000;
    return config;
}

bool
sameResult(const apps::KvBatchResult &a, const apps::KvBatchResult &b)
{
    return a.puts == b.puts && a.putsRejected == b.putsRejected &&
           a.gets == b.gets && a.getHits == b.getHits &&
           a.getValueSum == b.getValueSum && a.erases == b.erases &&
           a.erasesHit == b.erasesHit;
}

/** One timed round of the plane. */
struct Round
{
    apps::KvBatchResult result;
    double wallNs = 0.0;
    uint64_t stalls = 0;
    Histogram latencyNs{0.0, 1.0, 1};
};

/** Everything one serving run holds: rig, pool, counters. */
class ServeSession
{
  public:
    ServeSession(const ServeShape &shape, const Options &options,
                 Record &record, Tracer &tracer)
        : shape_(shape), options_(options), record_(record),
          tracer_(tracer), pool_(kWorkers)
    {
    }

    /** Build and warm the rig shape.setups times; keep the last two
     *  as the run's rig and its sequential-replay twin. Returns the
     *  median seconds. */
    double setup()
    {
        return timeSetup(shape_.setups, [&](unsigned i) {
            auto rig = buildRig(shape_, options_.seed, pool_);
            warmUp(*rig);
            if (i + 2 == shape_.setups)
                twin_ = std::move(rig);
            else if (i + 1 == shape_.setups)
                rig_ = std::move(rig);
        });
    }

    /**
     * One unpaced round on a freshly built rig, so the cache model's
     * line tables, region views and NVRAM pages reach their serving
     * state before any checked or timed round. It is part of set-up,
     * which would otherwise be a few milliseconds of allocation whose
     * cost follows the host's page-fault latency more than the code.
     * Rig and twin get the same round; with disjoint keys its result
     * does not depend on scheduling.
     */
    void warmUp(Rig &rig)
    {
        load::TrafficPlane plane(
            *rig.store, planeConfig(shape_, mixSeed(options_.seed, 900), false));
        plane.run(pool_);
    }

    /**
     * Run one paced and one unpaced round on the rig and the same
     * streams sequentially on the twin; every counter, size() and
     * checksum() must agree. Frees the twin. Returns the unpaced
     * round's counters (exact for a seed).
     */
    apps::KvBatchResult checkAgainstSequential()
    {
        apps::KvBatchResult unpaced;
        for (bool paced : {true, false}) {
            const auto config =
                planeConfig(shape_, mixSeed(options_.seed, paced ? 901 : 902),
                            paced);
            load::TrafficPlane plane(*rig_->store, config);
            const load::TrafficPlaneReport threaded = plane.run(pool_);
            const apps::KvBatchResult sequential =
                plane.runSequential(*twin_->store);
            const uint64_t ops = config.opsPerWorker * kWorkers;
            record_.attempt(ops);
            if (!sameResult(threaded.result, sequential) ||
                rig_->store->size() != twin_->store->size() ||
                rig_->store->checksum() != twin_->store->checksum()) {
                record_.fail(ops, std::string(shape_.name) +
                                      (paced ? " paced" : " unpaced") +
                                      " round differs from runSequential");
            }
            countRound(threaded.result, ops);
            if (!paced)
                unpaced = threaded.result;
            inputsDigest_ = mixSeed(inputsDigest_, twin_->store->checksum());
        }
        twin_.reset();
        return unpaced;
    }

    /** Digest of the twin's store after the checked rounds: a function
     *  of the generated prefill and op streams only. */
    uint64_t inputsDigest() const { return inputsDigest_; }

    Round round(uint64_t salt, bool paced, uint32_t iter)
    {
        const auto config =
            planeConfig(shape_, mixSeed(options_.seed, salt), paced);
        load::TrafficPlane plane(*rig_->store, config);
        Round round;
        load::TrafficPlaneReport report;
        {
            ScopedSpan span(tracer_, paced ? "load.plane_paced" : "load.plane",
                            iter);
            const int64_t t0 = nowNs();
            report = plane.run(pool_);
            round.wallNs = static_cast<double>(nowNs() - t0);
        }
        round.result = report.result;
        round.stalls = report.backpressureStalls;
        round.latencyNs = report.latencyNs;
        const uint64_t ops = config.opsPerWorker * kWorkers;
        record_.attempt(ops);
        if (report.result.ops() != ops)
            record_.fail(ops, std::string(shape_.name) +
                                  ": round applied " +
                                  std::to_string(report.result.ops()) +
                                  " of " + std::to_string(ops) + " ops");
        countRound(report.result, ops);
        return round;
    }

    double roundOps(bool paced) const
    {
        return static_cast<double>((paced ? shape_.pacedRoundOps
                                          : shape_.roundOps) *
                                   kWorkers);
    }

    /** Seconds a paced round is scheduled to take. */
    double pacedSeconds() const
    {
        return static_cast<double>(shape_.pacedRoundOps) /
               shape_.pacedPerWorker;
    }

    const ServeShape &shape() const { return shape_; }
    apps::ShardedKvStore &store() { return *rig_->store; }
    load::OpStream stream(uint64_t salt, unsigned worker) const
    {
        const auto config =
            planeConfig(shape_, mixSeed(options_.seed, salt), false);
        load::TrafficPlane plane(*rig_->store, config);
        return plane.makeStream(worker);
    }

    uint64_t rejected() const { return rejected_; }
    uint64_t applied() const { return applied_; }

  private:
    /** A rejected put means a shard filled up: the workload is sized
     *  so that never happens, so it fails the run. */
    void countRound(const apps::KvBatchResult &result, uint64_t ops)
    {
        applied_ += ops;
        rejected_ += result.putsRejected;
        if (result.putsRejected > 0)
            record_.fail(result.putsRejected,
                         std::string(shape_.name) + ": " +
                             std::to_string(result.putsRejected) +
                             " puts rejected (store full)");
    }

    ServeShape shape_;
    const Options &options_;
    Record &record_;
    Tracer &tracer_;
    ThreadPool pool_;
    std::unique_ptr<Rig> rig_, twin_;
    uint64_t inputsDigest_ = 0;
    uint64_t rejected_ = 0;
    uint64_t applied_ = 0;
};

const ServeShape &
shapeFor(const std::string &workload)
{
    return workload == "serve_cold" ? kCold : kHot;
}

void
describe(const ServeSession &session, Record &record)
{
    const ServeShape &s = session.shape();
    char text[320];
    std::snprintf(text, sizeof(text),
                  "serve shape %s: %u shards x %llu slots, %u workers x "
                  "%llu keys, get/erase permille %u/%u, zipf %.2f, "
                  "offered %.3g ops/s per worker (%.3g total)",
                  s.name, kShards,
                  static_cast<unsigned long long>(s.perShardCapacity),
                  kWorkers, static_cast<unsigned long long>(s.keysPerWorker),
                  s.getPermille, s.erasePermille, s.zipfTheta,
                  s.pacedPerWorker, s.pacedPerWorker * kWorkers);
    record.line(text);
}

/**
 * What the timed rounds of a run measured. Throughput is total ops
 * over total time, and latency quantiles come from every paced op of
 * the run pooled into one histogram: round-level figures on this
 * threaded path are bimodal (they depend on how the host co-schedules
 * the workers), and a median of round medians jumps between the modes.
 */
struct Phases
{
    double unpacedWallNs = 0.0;
    uint64_t unpacedOps = 0;
    uint64_t stalls = 0;
    std::vector<double> lateMs; ///< paced lateness per round
    Histogram latencyNs{0.0, 1.0, 1};
    bool anyPaced = false;

    double opsPerSec() const
    {
        return static_cast<double>(unpacedOps) / (unpacedWallNs * 1e-9);
    }
    /** Worker-ns per op: comparable with single-thread rungs. */
    double workerNsPerOp() const
    {
        return unpacedWallNs * kWorkers / static_cast<double>(unpacedOps);
    }
};

/**
 * Alternate unpaced and paced rounds for @p seconds, so both figures
 * see the same host conditions. With @p quiet, every other unpaced
 * round runs with the tracer off and is accounted there instead: the
 * two accumulators then measure the same stretch of time with and
 * without spans.
 */
void
timedRounds(ServeSession &session, Tracer &tracer, double seconds,
            uint64_t salt_base, Phases &out, Phases *quiet = nullptr)
{
    const bool tracing = tracer.enabled();
    const int64_t end = nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (uint32_t r = 0; r < 8 || nowNs() < end; ++r) {
        const bool paced = (r & 1) != 0;
        const bool off = quiet != nullptr && !paced && (r & 2) != 0;
        tracer.setEnabled(tracing && !off);
        const Round round = session.round(salt_base + r, paced, r);
        tracer.setEnabled(tracing);
        Phases &into = off ? *quiet : out;
        if (!paced) {
            into.unpacedWallNs += round.wallNs;
            into.unpacedOps += round.result.ops();
            into.stalls += round.stalls;
            continue;
        }
        if (!out.anyPaced)
            out.latencyNs = round.latencyNs;
        else
            out.latencyNs.merge(round.latencyNs);
        out.anyPaced = true;
        out.lateMs.push_back((round.wallNs * 1e-9 - session.pacedSeconds()) *
                             1e3);
    }
}

/**
 * Print a latency quantile beside the histogram's overflow count. A
 * quantile that lands in the overflow bucket has no value and is
 * refused: no metric is recorded, so the run's result is rejected.
 */
void
latencyMetric(Record &record, const char *name, const Histogram &h, double q,
              bool gated)
{
    const HistQuantile v = histQuantile(h, q);
    char text[200];
    if (v.inOverflow) {
        std::snprintf(text, sizeof(text),
                      "%s: lands in the overflow bucket (>100 ms; overflow "
                      "%llu of %llu) - not reported",
                      name, static_cast<unsigned long long>(h.overflow()),
                      static_cast<unsigned long long>(h.total()));
        record.line(text);
        return;
    }
    std::snprintf(text, sizeof(text), "%s: %.3f us (overflow %llu of %llu)",
                  name, v.value * 1e-3,
                  static_cast<unsigned long long>(h.overflow()),
                  static_cast<unsigned long long>(h.total()));
    record.line(text);
    if (gated)
        record.metric(name, v.value * 1e-3, "us");
    else
        record.note(name, v.value * 1e-3, "us");
}

} // namespace

void
runServe(const Options &options, Record &record)
{
    Tracer tracer(false);
    ServeSession session(shapeFor(options.workload), options, record,
                         tracer);
    describe(session, record);
    const double setup_s = session.setup();
    const apps::KvBatchResult checked = session.checkAgainstSequential();

    Phases phases;
    timedRounds(session, tracer, options.seconds, 1000, phases);

    record.metric("work_per_s", phases.opsPerSec(), "1/s");
    record.note("ops_per_s", phases.opsPerSec(), "1/s");
    latencyMetric(record, "p50_us", phases.latencyNs, 0.50, true);
    latencyMetric(record, "p99_us", phases.latencyNs, 0.99, false);
    record.metric("setup_s", setup_s, "s");
    record.metric("rss_mb", peakRssMb(), "MB");
    record.note("op_fail_ratio",
                static_cast<double>(session.rejected()) /
                    static_cast<double>(session.applied()),
                "ratio");
    record.note("apps.get_hit_ratio",
                static_cast<double>(checked.getHits) /
                    static_cast<double>(std::max<uint64_t>(1, checked.gets)),
                "ratio");
    record.note("rounds_paced", static_cast<double>(phases.lateMs.size()),
                "count");
}

void
servePinned(const Options &options, Record &record)
{
    Tracer off(false);
    ServeSession session(shapeFor(options.workload), options, record, off);
    session.setup();
    const apps::KvBatchResult r = session.checkAgainstSequential();
    record.note("inputs_digest", static_cast<double>(session.inputsDigest() >> 11),
                "digest");
    record.note("apps.get_hit_ratio",
                static_cast<double>(r.getHits) /
                    static_cast<double>(std::max<uint64_t>(1, r.gets)),
                "ratio");
    record.note("apps.put_reject_ratio",
                static_cast<double>(r.putsRejected) /
                    static_cast<double>(r.ops()),
                "ratio");
    record.note("apps.check_puts", static_cast<double>(r.puts), "count");
    record.note("apps.check_get_hits", static_cast<double>(r.getHits), "count");
    record.note("apps.check_erases_hit", static_cast<double>(r.erasesHit),
                "count");
}

void
serveLadder(const Options &options, Record &record, Tracer &tracer, bool full)
{
    const ServeShape &shape =
        full ? shapeFor(options.workload) : kHot;
    ServeSession session(shape, options, record, tracer);
    session.setup();
    const apps::KvBatchResult checked = session.checkAgainstSequential();
    const double budget = full ? options.seconds : 0.6;

    // Unpaced rounds alternate between spans on and off: the difference
    // is the tracing overhead.
    Phases traced, untraced;
    timedRounds(session, tracer, budget * 0.7, 2000, traced, &untraced);
    const double plane_ns = traced.workerNsPerOp();

    // Single-thread rungs on the same streams.
    const uint64_t rung_ops = shape.roundOps;
    double stream_ns = 0.0;
    {
        uint64_t sink = 0;
        ScopedSpan span(tracer, "load.stream", 0);
        const int64_t t0 = nowNs();
        for (unsigned w = 0; w < kWorkers; ++w) {
            load::OpStream stream = session.stream(3000, w);
            for (uint64_t i = 0; i < rung_ops; ++i)
                sink += stream.next().key;
        }
        stream_ns = static_cast<double>(nowNs() - t0) /
                    static_cast<double>(rung_ops * kWorkers);
        keep(sink);
    }

    double ring_ns = 0.0;
    {
        constexpr size_t kFrames = 2048, kBurst = 256, kDrain = 512;
        std::vector<load::OpFrame> storage(kFrames), out(kDrain);
        load::SpscRing<load::OpFrame> ring(storage.data(), kFrames);
        load::OpStream stream = session.stream(3001, 0);
        std::vector<load::OpFrame> frames(kBurst);
        for (auto &f : frames)
            f.op = stream.next();
        uint64_t moved = 0, sink = 0;
        ScopedSpan span(tracer, "load.ring", 0);
        const int64_t t0 = nowNs();
        while (moved < rung_ops) {
            for (size_t i = 0; i < kBurst; ++i)
                ring.tryPush(frames[i]);
            size_t n;
            while ((n = ring.tryPop(std::span<load::OpFrame>(out))) > 0)
                sink += out[n - 1].op.key;
            moved += kBurst;
        }
        ring_ns = static_cast<double>(nowNs() - t0) /
                  static_cast<double>(moved);
        keep(sink);
    }

    double batch_ns = 0.0;
    {
        // One round's ops, grouped by shard off the clock, applied
        // through applyShardBatch in drain-sized runs.
        std::vector<std::vector<apps::KvOp>> by_shard(kShards);
        for (unsigned w = 0; w < kWorkers; ++w) {
            load::OpStream stream = session.stream(3002, w);
            for (uint64_t i = 0; i < rung_ops; ++i) {
                const apps::KvOp op = stream.next();
                by_shard[session.store().shardOf(op.key)].push_back(op);
            }
        }
        apps::KvBatchResult result;
        ScopedSpan span(tracer, "apps.batch", 0);
        const int64_t t0 = nowNs();
        for (unsigned s = 0; s < kShards; ++s) {
            const auto &ops_s = by_shard[s];
            for (size_t i = 0; i < ops_s.size(); i += 512) {
                const size_t n = std::min<size_t>(512, ops_s.size() - i);
                result.merge(session.store().applyShardBatch(
                    s, std::span<const apps::KvOp>(ops_s.data() + i, n)));
            }
        }
        batch_ns = static_cast<double>(nowNs() - t0) /
                   static_cast<double>(rung_ops * kWorkers);
        record.attempt(result.ops());
    }

    record.metric("load.plane_ns_per_op", plane_ns, "ns");
    record.metric("load.stream_ns_per_op", stream_ns, "ns");
    record.metric("load.ring_ns_per_op", ring_ns, "ns");
    record.metric("apps.batch_ns_per_op", batch_ns, "ns");
    const double residual = plane_ns - stream_ns - ring_ns - batch_ns;
    record.metric("load.residual_ns_per_op", residual, "ns");
    record.metric("load.stalls_per_mop",
                  static_cast<double>(traced.stalls) * 1e6 /
                      static_cast<double>(
                          std::max<uint64_t>(1, traced.unpacedOps)),
                  "count");
    record.metric("load.gen_late_ms", median(traced.lateMs), "ms");
    latencyMetric(record, "load.p99_us", traced.latencyNs, 0.99, true);
    record.metric("apps.get_hit_ratio",
                  static_cast<double>(checked.getHits) /
                      static_cast<double>(
                          std::max<uint64_t>(1, checked.gets)),
                  "ratio");
    record.note("apps.put_reject_ratio",
                static_cast<double>(checked.putsRejected) /
                    static_cast<double>(checked.ops()),
                "ratio");
    if (full) {
        const double off = untraced.workerNsPerOp();
        record.metric("trace.span_overhead_pct",
                      (plane_ns - off) / off * 100.0, "%");
    }

    char text[400];
    std::snprintf(
        text, sizeof(text),
        "ladder %s (worker-ns per op): plane %.2f = stream %.2f + ring %.2f "
        "+ apps.batch %.2f (cache and NVRAM accesses included) + "
        "residual %.2f (%.1f%% unexplained)",
        shape.name, plane_ns, stream_ns, ring_ns, batch_ns, residual,
        plane_ns > 0 ? residual / plane_ns * 100.0 : 0.0);
    record.line(text);
}

} // namespace perfbench
