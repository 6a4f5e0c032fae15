/**
 * @file
 * Standalone ladder rungs: one module's public calls timed in a tight
 * loop, each the median of five repeats.
 *
 *  - machine.hit_rw_ns: CacheModel 8-byte read + write on a resident
 *    dirty line.
 *  - machine.miss_rw_ns: an 8-byte write that allocates a line in a
 *    full cache (evicting, with write-back into NVRAM) plus an 8-byte
 *    read of a line that is not cached.
 *  - nvram.line_rw_ns: NvramSpace 64-byte read + 64-byte write.
 *  - sim.dispatch_ns: EventQueue dispatch under a re-arm mix: every
 *    event cancels and re-schedules its device's deadline timer and
 *    schedules its successor.
 */

#include <array>
#include <memory>
#include <string>

#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "report.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/units.h"

using namespace wsp;

namespace perfbench {

namespace {

constexpr uint64_t kSpaceBytes = 64 * kMiB;
constexpr uint64_t kLines = kSpaceBytes / CacheModel::kLineSize;

struct CacheRig
{
    CacheRig() : dimm(queue, "pb.rung", config()),
                 cache("pb.rung.cache", 2 * kMiB, CacheTiming{}, space)
    {
        space.addModule(dimm);
    }
    static NvdimmConfig config()
    {
        NvdimmConfig c;
        c.capacityBytes = kSpaceBytes;
        return c;
    }
    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    CacheModel cache;
};

template <typename Fn>
double
medianOfFive(Fn &&fn)
{
    std::vector<double> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(fn());
    return median(v);
}

double
hitRw(CacheRig &rig, uint64_t seed)
{
    constexpr uint64_t kResident = 1024, kOps = 1u << 20;
    for (uint64_t i = 0; i < kResident; ++i)
        rig.cache.writeU64(i * CacheModel::kLineSize, seed + i);
    uint64_t sink = 0;
    const int64_t t0 = nowNs();
    for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t addr = (i & (kResident - 1)) * CacheModel::kLineSize;
        const uint64_t v = rig.cache.readU64(addr);
        rig.cache.writeU64(addr, v + 1);
        sink += v;
    }
    keep(sink);
    return static_cast<double>(nowNs() - t0) / kOps;
}

double
missRw(CacheRig &rig, uint64_t &cursor)
{
    constexpr uint64_t kOps = 1u << 17;
    uint64_t sink = 0;
    const int64_t t0 = nowNs();
    for (uint64_t i = 0; i < kOps; ++i) {
        // Lines walk the whole space, far beyond the cache: the write
        // allocates and evicts, the read (half the space away) finds
        // nothing cached.
        const uint64_t line = cursor++ % kLines;
        rig.cache.writeU64(line * CacheModel::kLineSize, line);
        sink += rig.cache.readU64(((line + kLines / 2) % kLines) *
                                  CacheModel::kLineSize);
    }
    keep(sink);
    return static_cast<double>(nowNs() - t0) / kOps;
}

double
lineRw(CacheRig &rig, Rng &rng)
{
    constexpr uint64_t kOps = 1u << 17;
    std::array<uint8_t, 64> buf{};
    const int64_t t0 = nowNs();
    for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t addr = rng.next(kLines) * CacheModel::kLineSize;
        rig.space.read(addr, buf);
        buf[0] ^= static_cast<uint8_t>(i);
        rig.space.write(addr, buf);
    }
    return static_cast<double>(nowNs() - t0) / kOps;
}

/** Re-arm mix state shared by all pending events. */
struct Mix
{
    EventQueue queue;
    Rng rng;
    std::vector<EventId> deadline;
    uint64_t remaining = 0;
    uint64_t fired = 0;
};

void
pump(Mix *mix, uint32_t device)
{
    ++mix->fired;
    EventId &timer = mix->deadline[device];
    mix->queue.cancel(timer);
    timer = mix->queue.scheduleAfter(4096, [mix, device] {
        mix->deadline[device] = EventId{};
    });
    if (mix->remaining == 0)
        return;
    --mix->remaining;
    mix->queue.scheduleAfter(1 + mix->rng.next(1024),
                             [mix, device] { pump(mix, device); });
}

double
dispatchMix(uint64_t seed)
{
    constexpr uint32_t kDevices = 1024;
    constexpr uint64_t kEvents = 1u << 20;
    auto mix = std::make_unique<Mix>();
    mix->rng = Rng(seed);
    mix->deadline.assign(kDevices, EventId{});
    mix->remaining = kEvents;
    Mix *m = mix.get();
    for (uint32_t d = 0; d < kDevices; ++d)
        m->queue.schedule(1 + m->rng.next(1024), [m, d] { pump(m, d); });
    const int64_t t0 = nowNs();
    m->queue.run();
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(m->fired);
}

} // namespace

void
runMicroRungs(const Options &options, Record &record, Tracer &tracer)
{
    CacheRig rig;
    Rng rng(mixSeed(options.seed, 31));
    uint64_t cursor = 1024;
    {
        ScopedSpan span(tracer, "machine.hit_rw", 0);
        record.metric("machine.hit_rw_ns",
                      medianOfFive([&] { return hitRw(rig, options.seed); }),
                      "ns");
    }
    {
        ScopedSpan span(tracer, "machine.miss_rw", 0);
        record.metric("machine.miss_rw_ns",
                      medianOfFive([&] { return missRw(rig, cursor); }),
                      "ns");
    }
    {
        ScopedSpan span(tracer, "nvram.line_rw", 0);
        record.metric("nvram.line_rw_ns",
                      medianOfFive([&] { return lineRw(rig, rng); }), "ns");
    }
    {
        ScopedSpan span(tracer, "sim.dispatch", 0);
        uint64_t salt = 0;
        record.metric("sim.dispatch_ns", medianOfFive([&] {
                          return dispatchMix(mixSeed(options.seed, ++salt));
                      }),
                      "ns");
    }
}

} // namespace perfbench
