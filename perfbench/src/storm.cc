/**
 * @file
 * storm: the kill-to-full-capacity path of a replicated fleet.
 *
 * One fleet::Fleet of 12 nodes, R=3, WSP-local recovery, 256 GiB of
 * modeled state per node, takes a train of seeded storms. Each cycle
 * writes a set of tracked keys (outside the client traffic's key
 * universe, so only these writes touch them), kills one or two nodes
 * mid-save through runStorm, runs sampled traffic and settles. After
 * every cycle each acknowledged tracked write must read back with its
 * value, and NoReplicaDivergence must hold. This is the only workload
 * that runs fleet code: quorum writes, the event agenda and
 * anti-entropy repair.
 */

#include <cstdio>
#include <map>
#include <memory>

#include "fleet/fleet.h"
#include "fleet/fleet_sweep.h"
#include "report.h"
#include "util/rng.h"
#include "util/units.h"

using namespace wsp;
using namespace wsp::fleet;

namespace perfbench {

namespace {

constexpr unsigned kNodes = 12;
constexpr unsigned kReplication = 3;
constexpr uint64_t kKeyUniverse = 512;
constexpr uint64_t kTrackedKeys = 32;
constexpr unsigned kTrafficPerCycle = 40;

/** Cycles in the pinned prefix every exact count is taken over. */
constexpr unsigned kPinnedStorms = 4;

FleetConfig
fleetConfig(uint64_t seed)
{
    FleetConfig config;
    config.nodes = kNodes;
    config.replication = kReplication;
    config.seed = mixSeed(seed, 55);
    config.policy = RecoveryPolicy::WspLocal;
    config.keyUniverse = kKeyUniverse;
    config.memoryPerServer = 256ull * kGiB;
    config.trafficSpacing = fromMillis(50.0);
    return config;
}

std::unique_ptr<Fleet>
buildFleet(uint64_t seed)
{
    auto fleet = std::make_unique<Fleet>(fleetConfig(seed));
    fleet->runTraffic(100, 0.6);
    return fleet;
}

/** What one cycle did, for the exact counts and the ladder. */
struct Cycle
{
    StormOutcome storm;
    RequestStats before, after;
    double cycleNs = 0, stormNs = 0, trafficNs = 0, settleNs = 0;
    uint64_t trackedAcked = 0;
    uint64_t trackedLost = 0;
};

class StormSession
{
  public:
    StormSession(const Options &options, Record &record, Tracer &tracer)
        : options_(options), record_(record), tracer_(tracer),
          rng_(mixSeed(options.seed, 56))
    {
    }

    /** (Re)build the fleet from the seed. */
    void build()
    {
        fleet_.reset();
        fleet_ = buildFleet(options_.seed);
    }

    Cycle cycle(uint32_t iter)
    {
        Cycle c;
        c.before = fleet_->stats();
        // Victims: one node on even cycles, two on odd ones, drawn
        // from the seed; alternating keeps every stretch of cycles
        // the same mix.
        const unsigned victims = 1 + (iter & 1);
        uint64_t mask = 0;
        while (static_cast<unsigned>(__builtin_popcountll(mask)) < victims)
            mask |= uint64_t{1} << rng_.next(kNodes);
        inputsDigest_ = mixSeed(inputsDigest_, mask);

        std::map<uint64_t, uint64_t> acked;
        {
            ScopedSpan whole(tracer_, "fleet.cycle", iter);
            const int64_t t0 = nowNs();
            {
                ScopedSpan span(tracer_, "fleet.writes", iter);
                for (uint64_t k = 0; k < kTrackedKeys; ++k) {
                    const uint64_t key = kKeyUniverse + 1 + k;
                    const uint64_t value = rng_() | 1;
                    if (fleet_->clientPut(key, value))
                        acked[key] = value;
                }
            }
            const int64_t t1 = nowNs();
            {
                ScopedSpan span(tracer_, "fleet.storm", iter);
                c.storm = fleet_->runStorm(mask, fromSeconds(2.0),
                                           fleet_->config().killWindow, 0.5);
            }
            const int64_t t2 = nowNs();
            {
                ScopedSpan span(tracer_, "fleet.traffic", iter);
                fleet_->runTraffic(kTrafficPerCycle, 0.5);
            }
            const int64_t t3 = nowNs();
            {
                ScopedSpan span(tracer_, "fleet.settle", iter);
                fleet_->settle();
            }
            const int64_t t4 = nowNs();
            c.stormNs = static_cast<double>(t2 - t1);
            c.trafficNs = static_cast<double>(t3 - t2);
            c.settleNs = static_cast<double>(t4 - t3);
            c.cycleNs = static_cast<double>(t4 - t0);
        }
        c.after = fleet_->stats();

        // Off the clock: every acked tracked write must read back.
        for (const auto &[key, value] : acked) {
            uint64_t got = 0;
            if (!fleet_->clientGet(key, &got) || got != value)
                ++c.trackedLost;
        }
        c.trackedAcked = acked.size();
        const std::vector<std::string> divergence =
            noReplicaDivergence(*fleet_);
        record_.attempt(c.trackedAcked + 1);
        if (c.trackedLost > 0)
            record_.fail(c.trackedLost,
                         "storm cycle " + std::to_string(iter) + " lost " +
                             std::to_string(c.trackedLost) +
                             " acked tracked writes");
        if (!divergence.empty())
            record_.fail(1, "storm cycle " + std::to_string(iter) +
                                ": " + divergence.front());
        return c;
    }

    uint64_t inputsDigest() const { return inputsDigest_; }

  private:
    const Options &options_;
    Record &record_;
    Tracer &tracer_;
    Rng rng_;
    std::unique_ptr<Fleet> fleet_;
    uint64_t inputsDigest_ = 0;
};

/** Exact counts over the pinned prefix of cycles. */
void
noteExact(const std::vector<Cycle> &cycles, Record &record, bool gated)
{
    double ttfc = 0;
    uint64_t requests = 0, retries = 0, timeouts = 0, failed = 0;
    uint64_t bytes = 0, digests = 0, victims = 0, wsp = 0;
    for (unsigned i = 0; i < kPinnedStorms && i < cycles.size(); ++i) {
        const Cycle &c = cycles[i];
        ttfc += toSeconds(c.storm.timeToFullCapacity);
        requests += c.after.requests - c.before.requests;
        retries += c.after.retries - c.before.retries;
        timeouts += c.after.timeouts - c.before.timeouts;
        failed += c.after.failed - c.before.failed;
        bytes += c.storm.repairStreamedBytes;
        digests += c.storm.digestsExchanged;
        victims += c.storm.victims;
        wsp += c.storm.wspRecoveries;
    }
    const double n = kPinnedStorms;
    const double req = static_cast<double>(std::max<uint64_t>(1, requests));
    auto put = [&](const char *name, double value, const char *unit) {
        if (gated)
            record.metric(name, value, unit);
        else
            record.note(name, value, unit);
    };
    record.note("sim_ttfc_s", ttfc / n, "s");
    record.note("req_fail_ratio", static_cast<double>(failed) / req, "ratio");
    put("fleet.retries_per_req", static_cast<double>(retries) / req,
        "count");
    put("fleet.timeouts_per_req", static_cast<double>(timeouts) / req,
        "count");
    put("fleet.repair_bytes_per_storm", static_cast<double>(bytes) / n,
        "B");
    put("fleet.digests_per_storm", static_cast<double>(digests) / n,
        "count");
    put("fleet.wsp_ratio",
        static_cast<double>(wsp) /
            static_cast<double>(std::max<uint64_t>(1, victims)),
        "ratio");
}

} // namespace

void
runStorm(const Options &options, Record &record)
{
    Tracer tracer(false);
    StormSession session(options, record, tracer);
    HostProbe probe;
    const double setup_s =
        scaledSetup(probe, 61, 1, [&](unsigned) { session.build(); });
    // The pinned prefix warms the fleet up off the clock; storms_per_s
    // is the timed cycles over the time they took. Timed cycles go in
    // pairs, one 1-node and one 2-node storm, so every pair is the same
    // mix; the host probe runs after every pair, and the pair's time is
    // scaled by it (see HostProbe).
    std::vector<Cycle> cycles;
    std::vector<double> pair_ns;
    double total_ns = 0, pair = 0;
    uint64_t acked = 0, lost = 0;
    int64_t end = 0;
    for (uint32_t i = 0;
         i < kPinnedStorms + 2 || (i & 1) != 0 || nowNs() < end; ++i) {
        if (i == kPinnedStorms) {
            probe.next();
            end = nowNs() + static_cast<int64_t>(options.seconds * 1e9);
        }
        cycles.push_back(session.cycle(i));
        acked += cycles.back().trackedAcked;
        lost += cycles.back().trackedLost;
        if (i < kPinnedStorms)
            continue;
        pair += cycles.back().cycleNs;
        if ((i & 1) != 0) {
            pair *= probe.next();
            pair_ns.push_back(pair);
            total_ns += pair;
            pair = 0;
        }
    }
    char text[160];
    std::snprintf(text, sizeof(text),
                  "storm fleet: %u nodes, R=%u, WSP-local, 256 GiB/node; "
                  "%zu cycles of 1-2 node kills",
                  kNodes, kReplication, cycles.size());
    record.line(text);

    const double storms_per_s =
        static_cast<double>(2 * pair_ns.size()) / (total_ns * 1e-9);
    record.metric("work_per_s", storms_per_s, "1/s");
    record.note("storms_per_s", storms_per_s, "1/s");
    record.metric("p50_us", median(pair_ns) * 0.5e-3, "us");
    record.metric("setup_s", setup_s, "s");
    record.metric("rss_mb", peakRssMb(), "MB");
    record.note("host_probe_ms", probe.medianNs() * 1e-6, "ms");
    record.note("lost_write_ratio",
                static_cast<double>(lost) /
                    static_cast<double>(std::max<uint64_t>(1, acked)),
                "ratio");
    noteExact(cycles, record, false);
}

void
stormPinned(const Options &options, Record &record)
{
    Tracer off(false);
    StormSession session(options, record, off);
    session.build();
    std::vector<Cycle> cycles;
    for (uint32_t i = 0; i < kPinnedStorms; ++i)
        cycles.push_back(session.cycle(i));
    record.note("inputs_digest",
                static_cast<double>(session.inputsDigest() >> 11), "digest");
    noteExact(cycles, record, false);
}

void
stormLadder(const Options &options, Record &record, Tracer &tracer, bool full)
{
    StormSession session(options, record, tracer);
    session.build();
    const double budget = full ? options.seconds : 0.5;
    std::vector<Cycle> cycles;
    std::vector<double> traced_ns, untraced_ns;
    const bool tracing = tracer.enabled();
    const int64_t end = nowNs() + static_cast<int64_t>(budget * 1e9);
    for (uint32_t i = 0; i < kPinnedStorms || nowNs() < end; ++i) {
        // Every other pair of cycles (one of each victim count) runs
        // without spans, for the overhead figure.
        const bool on = !full || (i & 2) == 0;
        tracer.setEnabled(tracing && on);
        cycles.push_back(session.cycle(i));
        (on ? traced_ns : untraced_ns).push_back(cycles.back().cycleNs);
    }
    tracer.setEnabled(tracing);

    auto med = [&](double Cycle::*field) {
        std::vector<double> v;
        for (const Cycle &c : cycles)
            v.push_back(c.*field);
        return median(v);
    };
    const double traffic_us_per_req =
        med(&Cycle::trafficNs) * 1e-3 / kTrafficPerCycle;
    record.metric("fleet.storm_ms", med(&Cycle::stormNs) * 1e-6, "ms");
    record.metric("fleet.settle_ms", med(&Cycle::settleNs) * 1e-6, "ms");
    record.metric("fleet.traffic_us_per_req", traffic_us_per_req, "us");
    record.metric("fleet.cycle_ms", med(&Cycle::cycleNs) * 1e-6, "ms");
    noteExact(cycles, record, true);
    if (full) {
        const double off = median(untraced_ns), on = median(traced_ns);
        record.metric("trace.span_overhead_pct", (on - off) / off * 100.0,
                      "%");
    }
}

} // namespace perfbench
