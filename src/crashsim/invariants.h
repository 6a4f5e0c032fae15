/**
 * @file
 * Pluggable invariant checkers for crash-point exploration.
 *
 * A checker sees three moments of a crash run:
 *
 *  - prepare():  the pre-crash system, where it installs a workload
 *    and records what it expects to survive,
 *  - onBackendRecovery(): invoked inside same-system train cycles
 *    whenever WSP recovery fell back, so the checker can rebuild its
 *    application state from the "storage back end" (its own model),
 *  - check():    after the surviving NVRAM image was socketed into a
 *    fresh system and booted, where it appends human-readable
 *    violation strings for anything that does not hold.
 *
 * The central invariant (DESIGN.md §5) splits into the concrete
 * checks here: the surviving KV state must satisfy the formal
 * persistency conditions (durable linearizability and friends —
 * DESIGN.md §13, crashsim/conditions/); the valid marker must never
 * vouch for an unflushed image; devices must all be reinitialized; and
 * exactly one of {WSP restore, region salvage, back-end recovery}
 * must happen.
 *
 * The salvage regime (schedule.salvage) adds two checkers over the
 * per-region outcomes: SalvageSound — a region the save persisted and
 * nothing corrupted must come back salvaged, never thrown away — and
 * NoSilentCorruption — a region reported salvaged must actually hold
 * the bytes its saved CRC vouches for, and every quarantined region
 * must have been handed to recovery.
 */

#pragma once

#include <cstdarg>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "crashsim/crash_schedule.h"
#include "nvram/nvram_image.h"
#include "trace/flight_recorder.h"

namespace wsp::crashsim {

/** Append a printf-formatted violation to @p violations. */
void addViolation(std::vector<std::string> *violations, const char *fmt,
                  ...) __attribute__((format(printf, 2, 3)));

/** Interface of one invariant checker. */
class InvariantChecker
{
  public:
    virtual ~InvariantChecker() = default;

    virtual const char *name() const = 0;

    /** Install workload / record expectations on the pre-crash system. */
    virtual void prepare(WspSystem &system, const CrashSchedule &schedule)
    {
        (void)system;
        (void)schedule;
    }

    /** Back-end recovery hook for same-system train cycles. */
    virtual void onBackendRecovery(WspSystem &system) { (void)system; }

    /**
     * Judge the revived system. @p crashed is the original machine
     * (post-outage, power off), @p revived the fresh chassis that
     * booted from the captured image.
     */
    virtual void check(WspSystem &crashed, WspSystem &revived,
                       const RestoreReport &restore, bool backend_ran,
                       std::vector<std::string> *violations) = 0;
};

/**
 * Valid-marker atomicity: a marker that decodes as valid must imply
 * the stamp step actually executed, and a WSP restore must imply the
 * caches were flushed before the crash. Also checks the structural
 * identity usedWsp == (flashValid && markerValid && checksumOk) and
 * that exactly one recovery path ran.
 */
class MarkerAtomicityChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "marker-atomicity"; }
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;
};

/**
 * Device reinit completeness: after a WSP restore with devices
 * attached, every device must have been restarted or explicitly
 * reported unsupported — none silently skipped.
 */
class DeviceReinitChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "device-reinit"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override;
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

  private:
    size_t deviceCount_ = 0;
};

/** One planned silent flash fault of a salvage schedule. */
struct PlannedMediaFault
{
    size_t module = 0; ///< crashed-system module index
    uint64_t addr = 0; ///< module-local flash address
    MediaFaultKind kind = MediaFaultKind::BitFlip;

    bool operator==(const PlannedMediaFault &other) const = default;
};

/**
 * The deterministic fault set a salvage schedule injects into the
 * captured image: a pure function of the schedule, so checkers
 * re-derive exactly what the explorer injected. Fault 0 always lands
 * inside the KV region, guaranteeing the sweep exercises at least one
 * quarantine. Empty unless schedule.salvage.
 */
std::vector<PlannedMediaFault>
plannedMediaFaults(const CrashSchedule &schedule, size_t module_count,
                   uint64_t module_capacity);

/**
 * Salvage soundness: a region the directory says was saved, whose
 * bytes every module actually programmed to flash, and that no
 * planned media fault touched, must be salvaged — the restore may
 * never discard intact data. Conversely a region the save never
 * persisted must not come back as salvaged.
 */
class SalvageSoundChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "salvage-sound"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override;
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

  private:
    CrashSchedule schedule_;
};

/**
 * No silent corruption: every region reported salvaged must, in the
 * revived machine's NVRAM, still match the CRC the save recorded for
 * it (this is what catches a restore that trusts the directory and
 * skips re-verification), and every quarantined region must have been
 * handed to the recovery hook rather than left scrubbed.
 */
class NoSilentCorruptionChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "no-silent-corruption"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override;
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

  private:
    CrashSchedule schedule_;
};

/**
 * Incremental-save soundness: with verifySaves enabled every module
 * self-checks that a completed save left flash byte-identical to DRAM
 * (contentEquals) and that a failed save's claimed suffix still
 * matches (rangeEquals) — delta or full. Any recorded mismatch on the
 * crashed or revived machine means the incremental engine produced an
 * image a full save would not have.
 */
class IncrementalSaveSoundChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "incremental-save-sound"; }
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;
};

/**
 * Byte reader over a captured image: addresses span the concatenated
 * module flashes, and the part of a range below its module's
 * programmed suffix [capacity - savedBytes, capacity) is refused —
 * bytes below the suffix are residue of an older save the image does
 * not claim. A range that straddles two modules is refused whole.
 * The closure borrows @p image; it must outlive the reader.
 */
trace::FrByteReader imageByteReader(const NvramImage &image);

/**
 * Locate (magic scan down from the top of the concatenated space) and
 * decode the black-box flight-recorder ring surviving in @p image.
 * headerFound stays false when no recorder header survived.
 */
trace::FrDecodeResult decodeBlackBox(const NvramImage &image);

/**
 * Black-box soundness: the NVRAM ring a crash leaves behind must obey
 * the publish discipline — every record the header vouches for
 * decodes intact, with at most the single in-flight tail slot torn.
 * A torn slot strictly inside the published window means a record was
 * claimed published before its line reached NVRAM, the exact analogue
 * of a marker stamped before the flush.
 */
class BlackBoxSoundChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "black-box-sound"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override;
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

  private:
    CrashSchedule schedule_;
};

/** The standard checker set for system-level sweeps. */
std::vector<std::unique_ptr<InvariantChecker>> standardCheckers();

} // namespace wsp::crashsim
