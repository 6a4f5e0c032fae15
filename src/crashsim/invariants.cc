#include "crashsim/invariants.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "apps/kv_store.h"
#include "core/salvage_directory.h"
#include "crashsim/conditions/kv_conditions.h"
#include "util/rng.h"

namespace wsp::crashsim {

namespace {

/** "kv<i>.meta" / "kv<i>.data" → "kv<i>"; other names pass through. */
std::string
shardKey(const std::string &region_name)
{
    return region_name.substr(0, region_name.find('.'));
}

} // namespace

void
addViolation(std::vector<std::string> *violations, const char *fmt, ...)
{
    char line[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    violations->emplace_back(line);
}

// MarkerAtomicityChecker -----------------------------------------------

void
MarkerAtomicityChecker::check(WspSystem &crashed, WspSystem &revived,
                              const RestoreReport &restore,
                              bool backend_ran,
                              std::vector<std::string> *violations)
{
    (void)revived;
    const SaveReport &save = crashed.wsp().saveRoutine().progress();

    // A marker that decodes as valid must have been stamped by the
    // save routine; it can never materialize out of a torn write.
    if (restore.markerValid &&
        !SaveRoutine::stepReached(save, "mark image as valid"))
        addViolation(violations,
                     "marker-atomicity: marker decoded as valid but the "
                     "stamp step never completed");

    // The paper's protocol: the marker vouches for the image, so a WSP
    // resume implies the caches were flushed before the crash. The
    // deliberately broken marker-before-flush order violates exactly
    // this.
    if (restore.usedWsp &&
        !SaveRoutine::stepReached(save, "flush caches (all sockets)"))
        addViolation(violations,
                     "marker-atomicity: WSP resume from an image whose "
                     "caches were never flushed (marker stamped before "
                     "wbinvd?)");

    // Whole-system resume demands the full chain of vouchers: intact
    // flash, a stamped marker from the current generation, a matching
    // resume checksum, an undegraded (bulk-tier) image, and a
    // decodable marker-bound directory.
    const bool image_usable =
        restore.flashValid && restore.markerValid &&
        restore.generationOk && restore.checksumOk &&
        restore.imageTierCut == SaveTier::Bulk && restore.directoryOk;
    if (restore.usedWsp != image_usable)
        addViolation(violations,
                     "marker-atomicity: usedWsp=%d inconsistent with "
                     "flashValid=%d markerValid=%d generationOk=%d "
                     "checksumOk=%d tierCut=%s directoryOk=%d",
                     restore.usedWsp ? 1 : 0, restore.flashValid ? 1 : 0,
                     restore.markerValid ? 1 : 0,
                     restore.generationOk ? 1 : 0,
                     restore.checksumOk ? 1 : 0,
                     saveTierName(restore.imageTierCut).c_str(),
                     restore.directoryOk ? 1 : 0);

    // Exactly one recovery path must run.
    const int paths = (restore.usedWsp ? 1 : 0) + (backend_ran ? 1 : 0) +
                      (restore.salvageMode ? 1 : 0);
    if (paths != 1)
        addViolation(violations,
                     "marker-atomicity: usedWsp=%d backend_ran=%d "
                     "salvageMode=%d; exactly one recovery path must run",
                     restore.usedWsp ? 1 : 0, backend_ran ? 1 : 0,
                     restore.salvageMode ? 1 : 0);
}

// DeviceReinitChecker --------------------------------------------------

void
DeviceReinitChecker::prepare(WspSystem &system,
                             const CrashSchedule &schedule)
{
    (void)schedule;
    deviceCount_ = system.devices().devices().size();
}

void
DeviceReinitChecker::check(WspSystem &crashed, WspSystem &revived,
                           const RestoreReport &restore, bool backend_ran,
                           std::vector<std::string> *violations)
{
    (void)crashed;
    (void)revived;
    (void)backend_ran;
    if (!restore.usedWsp || deviceCount_ == 0)
        return;

    // Every device must be accounted for on the restore path: either
    // restarted or explicitly reported unsupported — none skipped.
    const size_t accounted = restore.deviceReport.devicesRestarted +
                             restore.deviceReport.devicesUnsupported;
    if (accounted != deviceCount_)
        addViolation(violations,
                     "device-reinit: %zu of %zu devices accounted for "
                     "after WSP resume",
                     accounted, deviceCount_);
}

// Media-fault planning ------------------------------------------------

std::vector<PlannedMediaFault>
plannedMediaFaults(const CrashSchedule &schedule, size_t module_count,
                   uint64_t module_capacity)
{
    std::vector<PlannedMediaFault> faults;
    if (!schedule.salvage || schedule.mediaFaults == 0 ||
        module_count == 0)
        return faults;
    Rng rng(schedule.mediaFaultSeed ^ schedule.seed ^ 0x666c74ull); // "flt"
    const uint64_t kv_bytes = apps::ShardedKvStore::regionBytes(
        schedule.shards,
        conditions::KvConditionsChecker::kCapacity / schedule.shards);
    for (unsigned i = 0; i < schedule.mediaFaults; ++i) {
        PlannedMediaFault fault;
        fault.kind =
            schedule.mediaFaultKind >= 0
                ? static_cast<MediaFaultKind>(schedule.mediaFaultKind)
                : static_cast<MediaFaultKind>(rng.next(3));
        if (i == 0) {
            // The first fault always hits the KV region (module 0 owns
            // the low addresses), so every faulted run proves at least
            // one quarantine-and-recover.
            fault.module = 0;
            fault.addr = conditions::KvConditionsChecker::kBase +
                         rng.next(std::min(kv_bytes, module_capacity));
        } else {
            fault.module = static_cast<size_t>(rng.next(module_count));
            fault.addr = rng.next(module_capacity);
        }
        faults.push_back(fault);
    }
    return faults;
}

/** Global NVRAM extent a planned fault clobbers. */
namespace {

struct FaultExtent
{
    uint64_t base = 0;
    uint64_t size = 0;
};

FaultExtent
faultExtent(const PlannedMediaFault &fault, uint64_t module_base)
{
    switch (fault.kind) {
      case MediaFaultKind::BitFlip:
        return {module_base + fault.addr, 1};
      case MediaFaultKind::BadBlock:
        return {module_base + fault.addr / SparseMemory::kPageSize *
                                  SparseMemory::kPageSize,
                SparseMemory::kPageSize};
      case MediaFaultKind::TornWrite:
        // The first half-line programmed; the second half did not.
        return {module_base + fault.addr / 64 * 64 + 32, 32};
    }
    return {};
}

bool
overlaps(uint64_t a, uint64_t an, uint64_t b, uint64_t bn)
{
    return a < b + bn && b < a + an;
}

} // namespace

// SalvageSoundChecker --------------------------------------------------

void
SalvageSoundChecker::prepare(WspSystem &system,
                             const CrashSchedule &schedule)
{
    (void)system;
    schedule_ = schedule;
}

void
SalvageSoundChecker::check(WspSystem &crashed, WspSystem &revived,
                           const RestoreReport &restore, bool backend_ran,
                           std::vector<std::string> *violations)
{
    (void)revived;
    (void)backend_ran;
    if (restore.regions.empty())
        return;

    NvramSpace &memory = crashed.memory();
    std::vector<FaultExtent> faulted;
    for (const PlannedMediaFault &fault :
         plannedMediaFaults(schedule_, memory.moduleCount(),
                            memory.module(0).capacity()))
        faulted.push_back(
            faultExtent(fault, memory.moduleBase(fault.module)));

    // A region byte reached flash iff its module programmed it: the
    // copy engine writes the suffix [capacity - savedBytes, capacity)
    // of each module, top down.
    const auto flashCovered = [&memory](uint64_t base, uint64_t size) {
        for (size_t i = 0; i < memory.moduleCount(); ++i) {
            const NvdimmModule &module = memory.module(i);
            const uint64_t mbase = memory.moduleBase(i);
            const uint64_t mend = mbase + module.capacity();
            const uint64_t lo = std::max(base, mbase);
            const uint64_t hi = std::min(base + size, mend);
            if (lo >= hi)
                continue;
            if (lo < mend - module.flashSavedBytes())
                return false;
        }
        return true;
    };

    // Once a shard was quarantined, its recovery rebuilt the shard's
    // bytes in place — later CRC checks over sibling regions of the
    // same shard compare the replayed layout against the saved one,
    // so their verdicts are exempt from the intact-must-salvage rule.
    std::set<std::string> rebuilt;
    for (const RegionOutcome &region : restore.regions) {
        if (region.saved && !region.salvaged && !region.quarantined)
            addViolation(violations,
                         "salvage-sound: region '%s' neither salvaged "
                         "nor quarantined",
                         region.name.c_str());
        if (!region.saved && region.salvaged)
            addViolation(violations,
                         "salvage-sound: region '%s' was never saved "
                         "yet came back salvaged",
                         region.name.c_str());

        bool hit = false;
        for (const FaultExtent &extent : faulted)
            hit = hit || overlaps(region.base, region.size, extent.base,
                                  extent.size);
        if (region.saved && !hit && !region.salvaged &&
            rebuilt.count(shardKey(region.name)) == 0 &&
            flashCovered(region.base, region.size))
            addViolation(violations,
                         "salvage-sound: intact region '%s' (saved, "
                         "fully in flash, no fault) was quarantined",
                         region.name.c_str());

        if (region.quarantined)
            rebuilt.insert(shardKey(region.name));
    }
}

// NoSilentCorruptionChecker --------------------------------------------

void
NoSilentCorruptionChecker::prepare(WspSystem &system,
                                   const CrashSchedule &schedule)
{
    (void)system;
    schedule_ = schedule;
}

void
NoSilentCorruptionChecker::check(WspSystem &crashed, WspSystem &revived,
                                 const RestoreReport &restore,
                                 bool backend_ran,
                                 std::vector<std::string> *violations)
{
    (void)crashed;
    (void)backend_ran;
    if (restore.regions.empty())
        return;

    // Shards a quarantine rebuilt hold the replayed model's byte
    // layout, not the saved image's, so the saved CRCs no longer
    // apply to any of their regions.
    std::set<std::string> rebuilt;
    for (const RegionOutcome &region : restore.regions) {
        if (!region.quarantined)
            continue;
        rebuilt.insert(shardKey(region.name));
        if (schedule_.salvage && !region.recovered)
            addViolation(violations,
                         "no-silent-corruption: quarantined region '%s' "
                         "was never handed to recovery",
                         region.name.c_str());
    }

    const uint64_t base = revived.wsp().salvageDirectory().base();
    auto image = SalvageDirectory::read(revived.memory(), base);
    if (!image) {
        addViolation(violations,
                     "no-silent-corruption: salvage directory "
                     "unreadable after a region-verified recovery");
        return;
    }

    for (const RegionOutcome &region : restore.regions) {
        if (!region.salvaged || rebuilt.count(shardKey(region.name)) != 0)
            continue;
        const SalvageDirectoryEntry *entry = nullptr;
        for (const SalvageDirectoryEntry &candidate : image->entries) {
            if (candidate.name == region.name)
                entry = &candidate;
        }
        if (entry == nullptr)
            continue;
        const uint64_t crc = SalvageDirectory::regionCrc(
            revived.memory(), region.base, region.size);
        if (crc != entry->crc)
            addViolation(violations,
                         "no-silent-corruption: region '%s' was revived "
                         "with content that fails its saved CRC "
                         "(got %llx, directory says %llx)",
                         region.name.c_str(),
                         static_cast<unsigned long long>(crc),
                         static_cast<unsigned long long>(entry->crc));
    }
}

void
IncrementalSaveSoundChecker::check(WspSystem &crashed, WspSystem &revived,
                                   const RestoreReport &restore,
                                   bool backend_ran,
                                   std::vector<std::string> *violations)
{
    (void)restore;
    (void)backend_ran;
    const auto report = [violations](const char *which, size_t i,
                                     uint64_t mismatches) {
        if (mismatches > 0)
            addViolation(violations,
                         "incremental-save-sound: %s module %zu recorded "
                         "%llu save image mismatch(es) against DRAM",
                         which, i,
                         static_cast<unsigned long long>(mismatches));
    };
    for (size_t i = 0; i < crashed.memory().moduleCount(); ++i)
        report("crashed", i, crashed.memory().module(i).saveMismatches());
    for (size_t i = 0; i < revived.memory().moduleCount(); ++i)
        report("revived", i, revived.memory().module(i).saveMismatches());
}

trace::FrByteReader
imageByteReader(const NvramImage &image)
{
    return [&image](uint64_t addr, std::span<uint8_t> out) -> size_t {
        uint64_t base = 0;
        for (size_t i = 0; i < image.moduleCount(); ++i) {
            const NvramImage::ModuleImage &module = image.module(i);
            const uint64_t capacity = module.flash.capacity();
            if (addr >= base + capacity) {
                base += capacity;
                continue;
            }
            const uint64_t local = addr - base;
            if (local + out.size() > capacity)
                return out.size(); // straddles a module boundary
            // Only the programmed suffix carries this save's bytes;
            // anything below it is residue of an older image the
            // metadata does not claim.
            const uint64_t claimed_from =
                capacity - std::min(capacity, module.savedBytes);
            const auto refused = static_cast<size_t>(std::min<uint64_t>(
                out.size(), claimed_from - std::min(claimed_from, local)));
            module.flash.read(local + refused, out.subspan(refused));
            return refused;
        }
        return out.size();
    };
}

trace::FrDecodeResult
decodeBlackBox(const NvramImage &image)
{
    uint64_t top = 0;
    for (size_t i = 0; i < image.moduleCount(); ++i)
        top += image.module(i).flash.capacity();
    const trace::FrByteReader read = imageByteReader(image);
    // The recorder header sits just below the salvage directory at
    // the top of memory; 2 MiB of scan comfortably covers the control
    // structures above it without assuming the exact layout.
    const auto header = trace::frFindHeader(read, top, 2 * kMiB);
    if (!header) {
        trace::FrDecodeResult result;
        result.notes.push_back(
            "no flight-recorder header in the surviving image");
        return result;
    }
    return trace::frDecode(read, *header);
}

void
BlackBoxSoundChecker::prepare(WspSystem &system,
                              const CrashSchedule &schedule)
{
    (void)system;
    schedule_ = schedule;
}

void
BlackBoxSoundChecker::check(WspSystem &crashed, WspSystem &revived,
                            const RestoreReport &restore,
                            bool backend_ran,
                            std::vector<std::string> *violations)
{
    (void)revived;
    (void)restore;
    (void)backend_ran;
    if (!schedule_.blackBox)
        return;
    const NvramImage image = crashed.captureNvramImage();
    const trace::FrDecodeResult decode = decodeBlackBox(image);
    if (!decode.sound()) {
        addViolation(violations,
                     "black-box-sound: %zu torn slot(s) inside the "
                     "published window (head %llu, tail %llu): %s",
                     decode.tornSlots,
                     static_cast<unsigned long long>(decode.headSeq),
                     static_cast<unsigned long long>(decode.tailSeq),
                     decode.notes.empty() ? "(no detail)"
                                          : decode.notes.front().c_str());
    }
}

std::vector<std::unique_ptr<InvariantChecker>>
standardCheckers()
{
    std::vector<std::unique_ptr<InvariantChecker>> checkers;
    // The conditions battery leads (the explorer assumes it is
    // front()); its companion detectability checker must follow it,
    // since it judges the history the battery's check() assembled.
    auto battery = std::make_unique<conditions::KvConditionsChecker>();
    auto detectable =
        std::make_unique<conditions::DetectableExecutionChecker>(
            battery.get());
    checkers.push_back(std::move(battery));
    checkers.push_back(std::move(detectable));
    checkers.push_back(std::make_unique<MarkerAtomicityChecker>());
    checkers.push_back(std::make_unique<DeviceReinitChecker>());
    checkers.push_back(std::make_unique<SalvageSoundChecker>());
    checkers.push_back(std::make_unique<NoSilentCorruptionChecker>());
    checkers.push_back(std::make_unique<IncrementalSaveSoundChecker>());
    checkers.push_back(std::make_unique<BlackBoxSoundChecker>());
    return checkers;
}

} // namespace wsp::crashsim
