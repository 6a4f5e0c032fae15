#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "load/op_stream.h"
#include "load/spsc_ring.h"
#include "trace/stat_registry.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace wsp::fleet {

namespace {

/** Bytes one streamed (key, value) pair stands for on the wire. */
constexpr uint64_t kPairBytes = 16;

/** runStormThreaded's generator op mix (puts get the remaining 500,
 *  matching runStorm's put_fraction = 0.5 traffic) and the depth of
 *  each generator's SPSC ring. */
constexpr uint32_t kStormGetPermille = 400;
constexpr uint32_t kStormErasePermille = 100;
constexpr size_t kStormRingFrames = 1024;

/**
 * Order-independent digest of a key subset of one shard — the
 * anti-entropy exchange unit. Two nodes digesting the same logical
 * subset agree iff their surviving contents agree; the commutative
 * mix makes scan order (which differs between a node that wrote keys
 * in one order and a peer that replayed them in another) irrelevant.
 */
struct ShardDigest
{
    uint64_t sum = 0;
    uint64_t count = 0;

    void add(uint64_t key, uint64_t value)
    {
        uint64_t h = key * 0x9e3779b97f4a7c15ull ^ value;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        sum += h;
        ++count;
    }

    uint64_t value() const { return sum ^ (count * 0xc4ceb9fe1a85ec53ull); }
};

} // namespace

Fleet::Fleet(FleetConfig config)
    : config_(config), rng_(config.seed),
      capacity_{"fleet up fraction", {}, {}}
{
    WSP_CHECKF(config_.nodes >= 1 && config_.nodes <= 64,
               "fleet size must be 1..64 (kill masks are 64-bit)");
    effectiveR_ = std::max(1u, std::min(config_.replication, config_.nodes));
    writeQuorum_ =
        config_.writeQuorum == 0
            ? effectiveR_ / 2 + 1
            : std::min(config_.writeQuorum, effectiveR_);

    for (uint32_t id = 0; id < config_.nodes; ++id) {
        FleetNodeConfig node_config;
        node_config.id = id;
        node_config.seed = Rng(config_.seed).stream(id + 1)();
        node_config.shards = config_.shardsPerNode;
        node_config.perShardCapacity = config_.perShardCapacity;
        node_config.killWindow = config_.killWindow;
        node_config.salvage = config_.salvage;
        auto node = std::make_unique<FleetNode>(node_config);
        node->setRefillSource([this, id](unsigned shard) {
            // The backend's checkpoint+log view of this node: every
            // acked pair that hashes to the shard and whose replica
            // set (under the *current* ring) includes the node.
            std::vector<std::pair<uint64_t, uint64_t>> pairs;
            for (const auto &[key, value] : model_)
                if (nodes_[id]->shardOf(key) == shard &&
                    assignedTo(key, id))
                    pairs.emplace_back(key, value);
            return pairs;
        });
        node->bootFresh();
        nodes_.push_back(std::move(node));
        ring_.addNode(id);
        latency_.emplace_back(0.0, config_.latencyHiMs,
                              config_.latencyBuckets);
        epoch_.push_back(0);
    }
    recordCapacity();
}

Fleet::~Fleet() = default;

unsigned
Fleet::upNodes() const
{
    unsigned up = 0;
    for (const auto &node : nodes_)
        up += node->up() ? 1 : 0;
    return up;
}

bool
Fleet::assignedTo(uint64_t key, uint32_t node_id) const
{
    return (ring_.replicaMask(key, effectiveR_) >> node_id) & 1;
}

Tick
Fleet::serviceDraw()
{
    // Exponential service time around the configured mean.
    double u = rng_.uniform();
    while (u >= 1.0)
        u = rng_.uniform();
    return std::max<Tick>(
        1, fromSeconds(-toSeconds(config_.serviceMean) *
                       std::log(1.0 - u)));
}

Tick
Fleet::backoff(unsigned attempt)
{
    // Capped exponential backoff with +/-50% jitter so a storm's
    // retries do not re-synchronize into a thundering herd.
    Tick base = config_.backoffBase;
    for (unsigned i = 0; i < attempt && base < config_.backoffCap; ++i)
        base *= 2;
    base = std::min(base, config_.backoffCap);
    return base / 2 + rng_.next(base / 2 + 1);
}

void
Fleet::recordLatency(const std::vector<uint32_t> &replicas, Tick latency)
{
    // Attribute to the key's primary so per-node histograms show
    // which owners ran hot; the fleet-wide view is their merge.
    if (replicas.empty())
        return;
    latency_[replicas.front()].add(toSeconds(latency) * 1e3);
}

void
Fleet::recordCapacity()
{
    unsigned commissioned = 0;
    unsigned up = 0;
    for (const auto &node : nodes_) {
        if (node->state() == NodeState::Decommissioned)
            continue;
        ++commissioned;
        up += node->up() ? 1 : 0;
    }
    capacity_.add(toSeconds(now_),
                  commissioned == 0
                      ? 0.0
                      : static_cast<double>(up) / commissioned);
}

// Client plane -------------------------------------------------------

bool
Fleet::applyWrite(uint64_t key, uint64_t value, bool is_erase)
{
    WSP_CHECKF(key != 0, "key 0 is reserved by the store");
    ++stats_.requests;
    const auto replicas = ring_.replicaSet(key, effectiveR_);
    Tick latency = 0;
    const Tick start = now_;

    for (unsigned attempt = 0; attempt < config_.maxAttempts; ++attempt) {
        unsigned up = 0;
        for (uint32_t id : replicas)
            up += nodes_[id]->up() ? 1 : 0;

        if (up >= writeQuorum_) {
            // Fan out to the Up quorum in parallel; the ack waits for
            // the slowest member.
            Tick round = 0;
            for (uint32_t id : replicas)
                if (nodes_[id]->up())
                    round = std::max(round, serviceDraw());
            latency += round;
            // Apply to *every* live replica (catching-up and degraded
            // nodes included) so live replicas never diverge and
            // repair only has to cover each node's dark window.
            for (uint32_t id : replicas) {
                if (!nodes_[id]->live() || !nodes_[id]->serving())
                    continue;
                if (is_erase)
                    nodes_[id]->erase(key);
                else
                    nodes_[id]->put(key, value);
            }
            if (is_erase)
                model_.erase(key);
            else
                model_[key] = value;
            touched_.insert(key);
            ++stats_.succeeded;
            ++stats_.ackedWrites;
            recordLatency(replicas, latency);
            return true;
        }

        // Quorum unreachable: the client burns its timeout on the
        // dead majority, backs off, and retries — recoveries may
        // complete while it waits.
        latency += config_.requestTimeout + backoff(attempt);
        ++stats_.timeouts;
        ++stats_.retries;
        advanceTo(start + latency);
    }

    ++stats_.failed;
    ++stats_.rejectedWrites;
    recordLatency(replicas, latency);
    return false;
}

bool
Fleet::clientPut(uint64_t key, uint64_t value)
{
    return applyWrite(key, value, false);
}

bool
Fleet::clientErase(uint64_t key)
{
    return applyWrite(key, 0, true);
}

bool
Fleet::clientGet(uint64_t key, uint64_t *value_out)
{
    WSP_CHECKF(key != 0, "key 0 is reserved by the store");
    ++stats_.requests;
    const auto replicas = ring_.replicaSet(key, effectiveR_);
    Tick latency = 0;
    const Tick start = now_;

    for (unsigned attempt = 0; attempt < config_.maxAttempts; ++attempt) {
        for (uint32_t id : replicas) {
            FleetNode &node = *nodes_[id];
            const bool degraded_ok =
                config_.policy == RecoveryPolicy::DegradedTier &&
                node.state() == NodeState::DegradedReadOnly &&
                node.serving();
            if (node.up() || degraded_ok) {
                latency += serviceDraw();
                if (degraded_ok)
                    ++stats_.degradedReads;
                ++stats_.succeeded;
                recordLatency(replicas, latency);
                const bool found = node.get(key, value_out);
                return found;
            }
            // Dead or syncing replica: pay the contact timeout and
            // fall through to the next member of the set.
            latency += config_.requestTimeout;
            ++stats_.timeouts;
        }
        latency += backoff(attempt);
        ++stats_.retries;
        advanceTo(start + latency);
    }

    ++stats_.failed;
    recordLatency(replicas, latency);
    return false;
}

void
Fleet::oneRequest(double put_fraction)
{
    const uint64_t key = rng_.next(config_.keyUniverse) + 1;
    const double draw = rng_.uniform();
    if (draw < put_fraction) {
        clientPut(key, ++opCounter_);
    } else if (draw < put_fraction + (1.0 - put_fraction) * 0.8) {
        clientGet(key);
    } else {
        clientErase(key);
    }
}

void
Fleet::runTraffic(unsigned requests, double put_fraction)
{
    for (unsigned i = 0; i < requests; ++i) {
        now_ += config_.trafficSpacing;
        // Process any recovery event the spacing stepped over.
        advanceTo(now_);
        oneRequest(put_fraction);
    }
}

// Timeline -----------------------------------------------------------

void
Fleet::advanceTo(Tick t)
{
    while (!agenda_.empty() && agenda_.begin()->first <= t) {
        const auto it = agenda_.begin();
        const Tick when = it->first;
        const Event event = it->second;
        agenda_.erase(it);
        now_ = std::max(now_, when);
        processEvent(when, event);
    }
    now_ = std::max(now_, t);
}

void
Fleet::settle()
{
    while (!agenda_.empty())
        advanceTo(agenda_.begin()->first);
}

// Modelled-time plane ------------------------------------------------

apps::ClusterConfig
Fleet::analytic() const
{
    apps::ClusterConfig cluster;
    cluster.servers = config_.nodes;
    cluster.memoryPerServer = config_.memoryPerServer;
    cluster.backend = config_.backend;
    cluster.nvdimm.capacityBytes = config_.memoryPerServer;
    cluster.nvdimm.flashChannels = 0; // auto: one per GiB
    cluster.wspBootOverhead = config_.wspBootOverhead;
    cluster.staleFraction = config_.staleFraction;
    return cluster;
}

Tick
Fleet::modeledBootAndRestore() const
{
    return config_.wspBootOverhead +
           apps::nvdimmRestoreTime(analytic().nvdimm);
}

Tick
Fleet::modeledStaleFetch(unsigned concurrent) const
{
    apps::BackendStore backend(config_.backend);
    return backend.recoveryTime(
        static_cast<uint64_t>(config_.staleFraction *
                              static_cast<double>(config_.memoryPerServer)),
        std::max(1u, concurrent));
}

Tick
Fleet::modeledWspRecovery(unsigned concurrent) const
{
    return modeledBootAndRestore() + modeledStaleFetch(concurrent);
}

Tick
Fleet::modeledRefill(unsigned concurrent) const
{
    apps::BackendStore backend(config_.backend);
    return backend.recoveryTime(config_.memoryPerServer,
                                std::max(1u, concurrent));
}

// Fault plane --------------------------------------------------------

unsigned
Fleet::killSubset(uint64_t mask, Tick outage, Tick window)
{
    if (config_.nodes < 64)
        mask &= (1ull << config_.nodes) - 1;
    if (mask == 0)
        mask = config_.nodes < 64 ? (1ull << config_.nodes) - 1 : ~0ull;

    std::vector<uint32_t> victims;
    for (uint32_t id = 0; id < config_.nodes; ++id) {
        if (!(mask & (1ull << id)))
            continue;
        FleetNode &node = *nodes_[id];
        if (node.serving()) {
            victims.push_back(id);
        } else if (node.state() == NodeState::Dark) {
            // Already dark: power stays out longer. Its pending
            // PowerRestored event is superseded.
            ++epoch_[id];
            agenda_.insert(
                {now_ + outage,
                 Event{EventKind::PowerRestored, id, epoch_[id]}});
        }
    }

    if (!storm_.active || storm_.remaining == 0) {
        storm_ = StormState{};
        storm_.active = true;
        storm_.start = now_;
    }
    storm_.powerRestored = now_ + outage;
    storm_.victims += static_cast<unsigned>(victims.size());
    storm_.remaining += static_cast<unsigned>(victims.size());

    for (uint32_t id : victims) {
        nodes_[id]->crash(window);
        ++epoch_[id]; // stale recovery events for this node die here
        agenda_.insert({now_ + outage,
                        Event{EventKind::PowerRestored, id, epoch_[id]}});
    }
    recordCapacity();
    return static_cast<unsigned>(victims.size());
}

void
Fleet::processEvent(Tick when, const Event &event)
{
    FleetNode &node = *nodes_[event.node];
    if (event.epoch != epoch_[event.node])
        return; // the node was re-killed; this timeline is dead
    auto &stats = trace::StatRegistry::instance();

    switch (event.kind) {
      case EventKind::PowerRestored: {
        if (node.state() != NodeState::Dark)
            return;
        const unsigned concurrent = std::max(1u, storm_.remaining);
        Tick duration = 0;
        if (config_.policy == RecoveryPolicy::BackendRefill) {
            node.rebootColdRefill();
            duration = modeledRefill(concurrent);
            ++storm_.backendRefills;
        } else {
            const RestoreReport &report = node.reboot();
            if (report.usedWsp) {
                duration = modeledBootAndRestore();
                ++storm_.wspRecoveries;
            } else if (report.salvageMode) {
                // Intact regions restored locally; the quarantined
                // fraction of the modelled memory refills from the
                // backend alongside the other victims.
                const double quarantined =
                    report.regions.empty()
                        ? 0.0
                        : static_cast<double>(report.regionsQuarantined) /
                              static_cast<double>(report.regions.size());
                apps::BackendStore backend(config_.backend);
                duration =
                    modeledBootAndRestore() +
                    backend.recoveryTime(
                        static_cast<uint64_t>(
                            quarantined *
                            static_cast<double>(config_.memoryPerServer)),
                        concurrent);
                ++storm_.salvageBoots;
            } else {
                duration = modeledRefill(concurrent);
                ++storm_.backendRefills;
            }
        }
        agenda_.insert(
            {when + duration,
             Event{EventKind::RestoreDone, event.node, event.epoch}});
        break;
      }

      case EventKind::RestoreDone: {
        if (node.state() != NodeState::Restoring)
            return;
        // The node rejoins the replication stream now; anti-entropy
        // covers the window it was dark.
        const RepairResult repair = repairNode(node);
        storm_.digests += repair.digests;
        storm_.streamed += repair.streamed;
        storm_.shardsRepaired += repair.shards;
        stats.counter("fleet.repair_streamed_bytes")
            .add(repair.streamed);

        Tick duration =
            fromSeconds(static_cast<double>(repair.streamed) /
                        config_.antiEntropyBandwidth);
        const bool wsp_path =
            config_.policy != RecoveryPolicy::BackendRefill &&
            (node.lastRestore().usedWsp || node.lastRestore().salvageMode);
        if (wsp_path)
            duration += modeledStaleFetch(std::max(1u, storm_.remaining));

        if (config_.policy == RecoveryPolicy::DegradedTier && wsp_path) {
            node.setState(NodeState::DegradedReadOnly);
            stats.counter("fleet.degraded_entries").add();
        } else {
            node.setState(NodeState::CatchingUp);
        }
        agenda_.insert(
            {when + std::max<Tick>(duration, 1),
             Event{EventKind::RepairDone, event.node, event.epoch}});
        break;
      }

      case EventKind::RepairDone: {
        if (node.state() != NodeState::CatchingUp &&
            node.state() != NodeState::DegradedReadOnly)
            return;
        // Certification pass: the node took live writes while it
        // caught up, so this final delta is normally empty.
        const RepairResult repair = repairNode(node);
        storm_.digests += repair.digests;
        storm_.streamed += repair.streamed;
        storm_.shardsRepaired += repair.shards;
        node.setState(NodeState::Up);
        recordCapacity();
        if (storm_.remaining > 0)
            --storm_.remaining;
        storm_.lastReady = std::max(storm_.lastReady, when);
        stats.counter("fleet.repairs_certified").add();
        break;
      }
    }
}

template <typename NextRequest>
StormOutcome
Fleet::stormLoop(uint64_t mask, Tick outage, Tick window,
                 NextRequest &&next_request)
{
    const StormState before = storm_;
    killSubset(mask, outage, window);

    // Drive one client request per trafficSpacing tick between
    // recovery events until the fleet is whole again.
    while (!agenda_.empty()) {
        const Tick next = agenda_.begin()->first;
        while (now_ + config_.trafficSpacing <= next) {
            now_ += config_.trafficSpacing;
            next_request();
        }
        advanceTo(next);
    }

    StormOutcome outcome;
    outcome.start = storm_.start;
    outcome.powerRestored = storm_.powerRestored;
    outcome.fullCapacityAt = storm_.lastReady;
    outcome.timeToFullCapacity =
        storm_.lastReady > storm_.powerRestored
            ? storm_.lastReady - storm_.powerRestored
            : 0;
    outcome.victims = storm_.victims - before.victims;
    outcome.wspRecoveries = storm_.wspRecoveries - before.wspRecoveries;
    outcome.salvageBoots = storm_.salvageBoots - before.salvageBoots;
    outcome.backendRefills =
        storm_.backendRefills - before.backendRefills;
    outcome.digestsExchanged = storm_.digests - before.digests;
    outcome.repairStreamedBytes = storm_.streamed - before.streamed;
    outcome.shardsRepaired =
        storm_.shardsRepaired - before.shardsRepaired;
    storm_.active = false;
    return outcome;
}

StormOutcome
Fleet::runStorm(uint64_t mask, Tick outage, Tick window,
                double put_fraction)
{
    return stormLoop(mask, outage, window,
                     [&] { oneRequest(put_fraction); });
}

StormOutcome
Fleet::runStormThreaded(ThreadPool &pool, uint64_t mask, Tick outage,
                        Tick window)
{
    using Ring = wsp::load::SpscRing<apps::KvOp>;
    WSP_CHECKF(pool.threadCount() == kStormGenerators + 1,
               "pool has %u threads, the storm wants %u generators + 1",
               pool.threadCount(), kStormGenerators);

    // One SPSC ring per generator, timeline worker as sole consumer.
    std::vector<apps::KvOp> frames(kStormGenerators * kStormRingFrames);
    std::vector<std::unique_ptr<Ring>> rings;
    for (unsigned g = 0; g < kStormGenerators; ++g)
        rings.push_back(std::make_unique<Ring>(
            frames.data() + g * kStormRingFrames, kStormRingFrames));

    std::atomic<bool> done{false};
    uint64_t produced[kStormGenerators] = {};
    uint64_t stalls[kStormGenerators] = {};
    StormOutcome outcome;

    pool.runWorkers([&](unsigned worker) {
        if (worker == 0) {
            // Timeline worker: the storm loop with each client request
            // popped from the generator rings (round-robin by request
            // index) instead of drawn from the fleet rng. Fleet state
            // stays single-threaded.
            unsigned turn = 0;
            outcome = stormLoop(mask, outage, window, [&] {
                apps::KvOp op{};
                Ring &ring = *rings[turn];
                turn = (turn + 1) % kStormGenerators;
                while (ring.tryPop({&op, 1}) == 0) {
                    // Generators only stop after done is set below,
                    // so the ring always refills; just wait our turn.
                    std::this_thread::yield();
                }
                switch (op.kind) {
                case apps::KvOp::Kind::Put:
                    clientPut(op.key, op.value);
                    break;
                case apps::KvOp::Kind::Get:
                    clientGet(op.key);
                    break;
                case apps::KvOp::Kind::Erase:
                    clientErase(op.key);
                    break;
                }
            });
            done.store(true, std::memory_order_release);
            return;
        }

        // Generator worker: deterministic op stream into our ring
        // until the timeline declares the storm over. Keys are drawn
        // from the full client universe (all generators share it —
        // aggregate totals are deterministic, per-key history is the
        // drain interleave's, which is also fixed).
        const unsigned g = worker - 1;
        wsp::load::OpStreamConfig sc;
        sc.keyLo = 1;
        sc.keyCount = config_.keyUniverse;
        sc.getPermille = kStormGetPermille;
        sc.erasePermille = kStormErasePermille;
        wsp::load::OpStream stream(sc, Rng(config_.seed).stream(g + 100));
        Ring &ring = *rings[g];
        while (!done.load(std::memory_order_acquire)) {
            const apps::KvOp next = stream.next();
            while (!ring.tryPush(next)) {
                ++stalls[g];
                if (done.load(std::memory_order_acquire))
                    return; // leftover frames are simply dropped
                std::this_thread::yield();
            }
            ++produced[g];
        }
    });

    for (unsigned g = 0; g < kStormGenerators; ++g) {
        outcome.generatorOps += produced[g];
        outcome.generatorStalls += stalls[g];
    }
    auto &stats = trace::StatRegistry::instance();
    stats.counter("fleet.storm.generator_ops").add(outcome.generatorOps);
    stats.counter("fleet.storm.generator_stalls")
        .add(outcome.generatorStalls);
    return outcome;
}

// Anti-entropy -------------------------------------------------------

Fleet::RepairResult
Fleet::repairNode(FleetNode &target)
{
    RepairResult result;
    if (!target.serving())
        return result;
    const uint64_t target_bit = uint64_t{1} << target.id();

    // Authority, bucketed by shard in one pass over the model. Up
    // peers carry exactly the acked history for their keys (live
    // replicas never diverge) and the backend's acked-write log
    // covers the rest, so the authoritative value is the model's
    // either way. Each acked key's placement is computed here once;
    // buckets stay in ascending key order.
    struct Placed
    {
        uint64_t key;
        uint64_t value;
        uint64_t mask; ///< replica set, bit i = node i
    };
    std::vector<std::vector<Placed>> acked(target.shards());
    for (const auto &[key, value] : model_)
        acked[target.shardOf(key)].push_back(
            {key, value, ring_.replicaMask(key, effectiveR_)});
    // A held key's placement: the bucket's, else (a key the model no
    // longer holds) computed afresh.
    const auto maskOf = [&](const std::vector<Placed> &bucket,
                            uint64_t key) {
        const auto it = std::lower_bound(
            bucket.begin(), bucket.end(), key,
            [](const Placed &p, uint64_t k) { return p.key < k; });
        return it != bucket.end() && it->key == key
                   ? it->mask
                   : ring_.replicaMask(key, effectiveR_);
    };

    for (unsigned shard = 0; shard < target.shards(); ++shard) {
        const std::vector<Placed> &bucket = acked[shard];
        // The target's shard, read once: the pairs it is assigned.
        std::vector<Placed> held;
        for (const auto &[key, value] : target.collectShard(shard)) {
            const uint64_t mask = maskOf(bucket, key);
            if (mask & target_bit)
                held.push_back({key, value, mask});
        }

        // Digest exchange: compare the target against every Up peer
        // over the key subset both are assigned, each peer's shard
        // read once; if every pairwise digest matches (and the
        // backend fallback agrees for keys with no Up peer), the
        // shard streams nothing.
        bool divergent = false;
        for (const auto &peer : nodes_) {
            if (peer.get() == &target || !peer->up() || !peer->serving())
                continue;
            const uint64_t both = target_bit | uint64_t{1} << peer->id();
            ShardDigest mine, theirs;
            for (const Placed &pair : held)
                if ((pair.mask & both) == both)
                    mine.add(pair.key, pair.value);
            for (const auto &[key, value] : peer->collectShard(shard))
                if ((maskOf(bucket, key) & both) == both)
                    theirs.add(key, value);
            ++result.digests;
            if (mine.value() != theirs.value())
                divergent = true;
        }

        std::vector<Placed> authority;
        for (const Placed &pair : bucket)
            if (pair.mask & target_bit)
                authority.push_back(pair);
        std::sort(held.begin(), held.end(),
                  [](const Placed &a, const Placed &b) {
                      return a.key < b.key;
                  });
        // Peers matched; the backend-covered keys must match too.
        const auto same = [](const Placed &a, const Placed &b) {
            return a.key == b.key && a.value == b.value;
        };
        if (!divergent && std::equal(held.begin(), held.end(),
                                     authority.begin(), authority.end(),
                                     same))
            continue;

        // Stream only this shard's missed updates: puts in ascending
        // key order, then erases in ascending key order.
        uint64_t shard_streamed = 0;
        auto have = held.begin();
        for (const Placed &want : authority) {
            while (have != held.end() && have->key < want.key)
                ++have;
            if (have == held.end() || !same(*have, want)) {
                target.put(want.key, want.value);
                shard_streamed += kPairBytes;
            }
        }
        auto want = authority.begin();
        for (const Placed &pair : held) {
            while (want != authority.end() && want->key < pair.key)
                ++want;
            if (want == authority.end() || want->key != pair.key) {
                target.erase(pair.key);
                shard_streamed += kPairBytes;
            }
        }
        if (shard_streamed > 0) {
            result.streamed += shard_streamed;
            ++result.shards;
        }
    }
    return result;
}

// Rebalance ----------------------------------------------------------

RebalanceReport
Fleet::decommission(uint32_t id)
{
    RebalanceReport report;
    WSP_CHECK(id < nodes_.size());
    WSP_CHECKF(ring_.contains(id), "node %u already decommissioned", id);

    // Capture the old placement of every acked key before the ring
    // changes under us.
    std::vector<std::pair<uint64_t, uint64_t>> old_masks;
    for (const auto &[key, value] : model_) {
        (void)value;
        old_masks.emplace_back(key, ring_.replicaMask(key, effectiveR_));
    }

    ring_.removeNode(id);
    ++epoch_[id]; // cancel any in-flight recovery of the lost node
    nodes_[id]->decommission();

    // Rendezvous rebalance: only keys that listed the lost node gain
    // a (single) new replica; every other set is untouched.
    for (const auto &[key, old_mask] : old_masks) {
        if (!((old_mask >> id) & 1))
            continue;
        for (uint32_t gained : ring_.replicaSet(key, effectiveR_)) {
            if ((old_mask >> gained) & 1)
                continue;
            FleetNode &node = *nodes_[gained];
            if (node.live() && node.serving())
                node.put(key, model_.at(key));
            ++report.keysMoved;
        }
    }
    report.bytesMoved = report.keysMoved * kPairBytes;
    report.duration = fromSeconds(static_cast<double>(report.bytesMoved) /
                                  config_.antiEntropyBandwidth);
    recordCapacity();
    return report;
}

// Checks -------------------------------------------------------------

std::vector<std::string>
Fleet::checkReplicaConvergence() const
{
    std::vector<std::string> violations;
    for (uint64_t key : touched_) {
        const auto expected = model_.find(key);
        const bool should_exist = expected != model_.end();
        for (uint64_t mask = ring_.replicaMask(key, effectiveR_); mask;
             mask &= mask - 1) {
            const auto id = static_cast<uint32_t>(__builtin_ctzll(mask));
            const FleetNode &node = *nodes_[id];
            if (!node.up() || !node.serving())
                continue;
            uint64_t value = 0;
            const bool found = node.get(key, &value);
            if (found != should_exist) {
                violations.push_back(
                    "key " + std::to_string(key) + " node " +
                    std::to_string(id) +
                    (should_exist ? ": acked write lost"
                                  : ": acked erase resurfaced"));
            } else if (found && value != expected->second) {
                violations.push_back(
                    "key " + std::to_string(key) + " node " +
                    std::to_string(id) + ": stale value " +
                    std::to_string(value) + " != acked " +
                    std::to_string(expected->second));
            }
        }
    }
    return violations;
}

Histogram
Fleet::fleetLatency() const
{
    Histogram merged(0.0, config_.latencyHiMs, config_.latencyBuckets);
    for (const Histogram &h : latency_)
        merged.merge(h);
    return merged;
}

} // namespace wsp::fleet
