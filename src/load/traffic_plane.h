/**
 * @file
 * Threaded traffic plane: open-loop load generation into per-shard
 * submission rings, drained by shard-owning consumers into batched
 * store application.
 *
 * This is the serving tier's front door and the only threaded path
 * into a ShardedKvStore (DESIGN.md §15). Rather than modeling client
 * traffic as analytic arrivals, the plane pushes real operations from
 * real threads:
 *
 *  - W pool workers each run a deterministic OpStream
 *    (Rng::stream(w), disjoint or shared key ranges, uniform or
 *    Zipfian popularity).
 *  - Every (producer, shard) pair is connected by an SPSC ring of
 *    fixed KvOp frames carved from one util::Arena at construction —
 *    the steady-state request path allocates nothing: no per-request
 *    std::function, no queue nodes, no batch vectors.
 *  - Shard s is owned by worker s mod W. Each worker alternates
 *    producing its stream (routing ops by ShardedKvStore::shardOf at
 *    enqueue time) and draining the rings of its owned shards, so a
 *    run is already grouped per shard and applies through
 *    applyShardBatch without the counting sort the mutex-batch
 *    dispatch pays.
 *  - Back-pressure: a full ring never drops or blocks on a condvar —
 *    the producer counts the stall and spends the wait draining its
 *    own shards (or yielding when it owns none), which is also what
 *    makes the scheme deadlock-free on any core count.
 *  - Latency is recorded coordinated-omission-safely: the *intended*
 *    time of an op comes from the pacing schedule (or the burst
 *    stamp in unpaced mode), never from when the op actually got
 *    enqueued, so a stalled server inflates the tail instead of
 *    hiding it. Completion is stamped once per drained batch; each
 *    worker records into its own Histogram and the plane merges them
 *    (Histogram::merge) at the end.
 *
 * Mutex dispatch (every worker calling the store's front door, per
 * op or per hand-built batch, under per-shard mutexes) is kept as
 * runMutexPerOp() and runMutexBatch() — bench/kv_throughput measures
 * every arm in one binary, and tests check each arm against a
 * sequential replay of the same streams.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "apps/kv_store.h"
#include "load/op_stream.h"
#include "load/spsc_ring.h"
#include "util/arena.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace wsp::load {

/** One queued request: the op plus its schedule-intended time. */
struct OpFrame
{
    apps::KvOp op;
    int64_t intendedNs = 0;
};

/** Shape of one traffic-plane run. */
struct TrafficPlaneConfig
{
    unsigned workers = 4;          ///< producer (and consumer) threads
    uint64_t opsPerWorker = 100000;
    uint64_t keysPerWorker = 512;
    bool disjointKeys = true;      ///< private key ranges (exact equiv)
    uint32_t getPermille = 400;
    uint32_t erasePermille = 100;  ///< remainder are puts
    double zipfTheta = 0.0;        ///< 0 = uniform
    uint64_t seed = 42;

    size_t ringFrames = 2048;      ///< per (producer, shard) ring
    size_t burstOps = 256;         ///< producer generation burst
    size_t drainOps = 512;         ///< max frames per consumer batch
    double pacedOpsPerSec = 0.0;   ///< open-loop arrival rate; 0 = max
    bool pinWorkers = false;       ///< pin pool threads to cores

    double latencyHiMs = 10.0;     ///< histogram range
    size_t latencyBuckets = 400;
};

/** Outcome of a run, merged across workers in worker order. */
struct TrafficPlaneReport
{
    apps::KvBatchResult result;
    double wallSeconds = 0.0;
    uint64_t backpressureStalls = 0; ///< full-ring push attempts
    Histogram latencyNs{0.0, 1.0, 1};

    uint64_t ops() const { return result.ops(); }
    double opsPerSec() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(ops()) / wallSeconds
                                 : 0.0;
    }
};

/**
 * The plane. Construction wires the ring matrix over an arena; each
 * run arm drives one full load through the store (repeated runs
 * continue mutating it).
 */
class TrafficPlane
{
  public:
    TrafficPlane(apps::ShardedKvStore &store, TrafficPlaneConfig config);
    ~TrafficPlane(); // defined where WorkerSlot is complete

    const TrafficPlaneConfig &config() const { return config_; }

    /** The rings plane described above. @p pool must have exactly
     *  config.workers threads. */
    TrafficPlaneReport run(ThreadPool &pool);

    /**
     * The pre-PR request path: every generated op goes through the
     * store's front door individually (put/get/erase), so each op
     * pays one shard-mutex acquisition and one size-header round
     * trip — mutex-per-shard dispatch exactly as a server dispatched
     * requests before the rings existed. This is the baseline arm of
     * bench/kv_throughput's ≥5x gate.
     */
    TrafficPlaneReport runMutexPerOp(ThreadPool &pool);

    /**
     * Hand-batched middle arm (the PR 7 shape): each worker
     * generates a burst into a local buffer and applies it via
     * ShardedKvStore::applyBatch (counting sort + per-shard locks,
     * one lock and one header update per shard per batch). Isolates
     * what batching alone buys over runMutexPerOp, and what the
     * rings buy over batching. Latency is recorded per batch with
     * the same intended-time rules, so all arms' histograms are
     * comparable.
     */
    TrafficPlaneReport runMutexBatch(ThreadPool &pool);

    /**
     * Sequential replay of the same per-worker streams (worker 0
     * fully, then worker 1, ...) into @p store — the equivalence
     * reference for the threaded planes. In disjoint-keys mode the
     * merged counters and final store state match run()'s exactly.
     */
    apps::KvBatchResult runSequential(apps::ShardedKvStore &store) const;

    /** Per-worker stream, as both planes and the replay build it. */
    OpStream makeStream(unsigned worker) const;

  private:
    struct WorkerSlot; // per-worker scratch + outcome, cache separated

    SpscRing<OpFrame> &ring(unsigned producer, unsigned shard)
    {
        return *rings_[producer * shardCount_ + shard];
    }

    /**
     * The per-run skeleton every arm shares: checks the pool size,
     * resets the worker slots, pins, derives the pacing interval,
     * runs @p worker(w, slot, nsPerOp) on each pool thread under the
     * wall clock, and merges the slots into the report in worker
     * order.
     */
    template <typename Worker>
    TrafficPlaneReport runArm(ThreadPool &pool, Worker &&worker);

    /** Drain every ring of the shards @p slot owns; returns frames
     *  applied. */
    uint64_t drainOwnedShards(WorkerSlot &slot);

    apps::ShardedKvStore &store_;
    TrafficPlaneConfig config_;
    unsigned shardCount_;

    util::Arena arena_;
    std::vector<SpscRing<OpFrame> *> rings_; ///< [producer][shard]
    std::vector<WorkerSlot> slots_;
    std::atomic<unsigned> producersDone_{0};
};

} // namespace wsp::load
