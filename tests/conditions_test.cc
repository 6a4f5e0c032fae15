/**
 * @file
 * The correctness-conditions battery: FliT tracker mechanics, the
 * durable-linearizability / buffered / detectable checkers against
 * hand-built histories, a differential sweep of the exact checkers
 * against brute-force linearization searchers on small histories, the
 * schedule plumbing for the new condition fields, and the end-to-end
 * planted bug: acknowledge-before-apply is caught by the DL checker at
 * every enumerated crash point in the gap, minimizes, and replays —
 * while a buffered-only sweep (correctly) forgives it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "crashsim/conditions/conditions.h"
#include "crashsim/crash_explorer.h"
#include "util/flit.h"
#include "util/rng.h"

#include "test_seed.h"

namespace wsp::crashsim::conditions {
namespace {

// FliT tracker mechanics ----------------------------------------------

TEST(Flit, StoreThenWritebackPersistsTheOp)
{
    util::FlitTracker flit;
    Tick now = 0;
    flit.setClock([&now]() { return now; });

    const uint64_t id = flit.declareOp(0, 1, 42);
    now = 10;
    flit.beginApply(id);
    flit.onStore(128, 8);
    flit.onStore(192, 16); // straddles nothing; second line
    flit.endApply();

    EXPECT_TRUE(flit.op(id).applied);
    EXPECT_EQ(flit.pendingStores(128), 1u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, util::kNoTick);

    now = 20;
    flit.onWriteback(128);
    EXPECT_EQ(flit.pendingStores(128), 0u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id))); // line 192 still dirty

    now = 30;
    flit.onWriteback(192);
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, 30u);
}

TEST(Flit, LostLineNeverPersists)
{
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 42);
    flit.beginApply(id);
    flit.onStore(256, 8);
    flit.endApply();

    // Power loss drops the line: the counter clears (the line is gone)
    // but the op's stores never reached the NV domain.
    flit.onLineLost(256);
    EXPECT_EQ(flit.pendingStores(256), 0u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));

    // A later write-back of recovery traffic on the same line must not
    // retroactively persist the lost stores.
    flit.onWriteback(256);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));
}

TEST(Flit, NewerStoreReopensTheLine)
{
    util::FlitTracker flit;
    const uint64_t a = flit.declareOp(0, 1, 1);
    const uint64_t b = flit.declareOp(0, 1, 2);
    flit.beginApply(a);
    flit.onStore(0, 8);
    flit.endApply();
    flit.onWriteback(0);
    EXPECT_TRUE(flit.opPersisted(flit.op(a)));

    flit.beginApply(b);
    flit.onStore(0, 8); // same line dirtied again
    flit.endApply();
    EXPECT_TRUE(flit.opPersisted(flit.op(a))); // a's seq still covered
    EXPECT_FALSE(flit.opPersisted(flit.op(b)));
}

TEST(Flit, ZeroStoreOpPersistsAtApply)
{
    util::FlitTracker flit;
    Tick now = 7;
    flit.setClock([&now]() { return now; });
    const uint64_t id = flit.declareOp(1, 9, 0); // erase of absent key
    flit.beginApply(id);
    flit.endApply();
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, 7u);
}

TEST(Flit, RespondBeforeApplyStillCountsAsInvoked)
{
    // The ack-before-apply bug responds before any mutation ran; the
    // history must still show an invoked op or the checkers would
    // never see the phantom.
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 5);
    flit.respond(id, true, 5);
    EXPECT_TRUE(flit.op(id).invoked);
    EXPECT_TRUE(flit.op(id).responded);
    EXPECT_FALSE(flit.op(id).applied);
}

TEST(Flit, CoveredPredicateGatesPersistence)
{
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 1);
    flit.beginApply(id);
    flit.onStore(64, 8);
    flit.endApply();
    flit.onWriteback(64);
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    // ...but the module never programmed that line to flash.
    EXPECT_FALSE(flit.opPersisted(flit.op(id),
                                  [](uint64_t) { return false; }));
    EXPECT_TRUE(flit.opPersisted(flit.op(id),
                                 [](uint64_t) { return true; }));
}

TEST(Flit, UntouchedLineWritebackAndLossLeaveNoState)
{
    // A save's wbinvd writes back every dirty line, most of which no
    // op stored to: those must neither count nor leave state behind.
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 1);
    flit.beginApply(id);
    flit.onStore(0, 8);
    flit.endApply();
    ASSERT_EQ(flit.outstandingLines(), 1u);

    flit.onWriteback(640);
    flit.onLineLost(704);
    flit.onWriteback(704);
    EXPECT_EQ(flit.outstandingLines(), 1u);
    EXPECT_EQ(flit.pendingStores(640), 0u);
    EXPECT_EQ(flit.pendingStores(704), 0u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));

    // Later traffic on those lines behaves exactly as on a fresh
    // tracker: the earlier loss does not discard the new store, and a
    // loss after it does.
    util::FlitTracker fresh;
    for (util::FlitTracker *t : {&flit, &fresh}) {
        const uint64_t a = t->declareOp(0, 2, 2);
        t->beginApply(a);
        t->onStore(704, 8);
        t->onStore(640, 8);
        t->endApply();
        EXPECT_EQ(t->pendingStores(704), 1u);
        t->onWriteback(704);
        t->onLineLost(640);
        t->onWriteback(640);
    }
    const util::FlitOp &touched = flit.ops().back();
    const util::FlitOp &reference = fresh.ops().back();
    EXPECT_EQ(flit.outstandingLines(), 1u); // line 0 of the first op
    EXPECT_EQ(fresh.outstandingLines(), 0u);
    for (uint64_t line : {640ull, 704ull})
        EXPECT_EQ(flit.pendingStores(line), fresh.pendingStores(line));
    EXPECT_EQ(flit.opPersisted(touched), fresh.opPersisted(reference));
    EXPECT_FALSE(fresh.opPersisted(reference)); // 640's store was lost
    EXPECT_EQ(touched.persistTick, reference.persistTick);
}

/**
 * The FliT bookkeeping before the per-line op index: every write-back
 * scans every op, and every line of each op, for ones it completes.
 * The differential oracle the indexed settle must match exactly.
 */
class FlitScanOracle
{
  public:
    explicit FlitScanOracle(const Tick *now) : now_(now) {}

    void declare() { ops_.emplace_back(); }

    void beginApply(uint64_t id) { current_ = id; }

    void endApply()
    {
        if (current_ != kNone) {
            Op &op = ops_[current_];
            if (op.persistTick == util::kNoTick && persisted(op))
                op.persistTick = *now_;
        }
        current_ = kNone;
    }

    void store(uint64_t addr, uint64_t len)
    {
        for (uint64_t line = addr & ~63ull;
             line <= ((addr + len - 1) & ~63ull); line += 64) {
            Line &ls = lines_[line];
            ls.lastStoreSeq = ++storeSeq_;
            if (current_ == kNone)
                continue;
            Op &op = ops_[current_];
            auto it = std::find_if(
                op.lines.begin(), op.lines.end(),
                [line](const auto &e) { return e.first == line; });
            if (it == op.lines.end())
                op.lines.emplace_back(line, ls.lastStoreSeq);
            else
                it->second = ls.lastStoreSeq;
            op.persistTick = util::kNoTick;
        }
    }

    void writeback(uint64_t line)
    {
        Line &ls = lines_[line];
        ls.lastWritebackSeq = ls.lastStoreSeq;
        for (Op &op : ops_) {
            if (op.persistTick != util::kNoTick)
                continue;
            const bool touches = std::any_of(
                op.lines.begin(), op.lines.end(),
                [line](const auto &e) { return e.first == line; });
            if (touches && persisted(op))
                op.persistTick = *now_;
        }
    }

    void lose(uint64_t line)
    {
        Line &ls = lines_[line];
        ls.wbAtLoss = ls.lastWritebackSeq;
        ls.lostSeq = ls.lastStoreSeq;
    }

    Tick persistTick(uint64_t id) const { return ops_[id].persistTick; }

  private:
    static constexpr uint64_t kNone = ~0ull;

    struct Line
    {
        uint64_t lastStoreSeq = 0, lastWritebackSeq = 0;
        uint64_t lostSeq = 0, wbAtLoss = 0;
    };
    struct Op
    {
        Tick persistTick = util::kNoTick;
        std::vector<std::pair<uint64_t, uint64_t>> lines;
    };

    bool persisted(const Op &op)
    {
        for (const auto &[line, seq] : op.lines) {
            const Line &ls = lines_[line];
            if (ls.lastWritebackSeq < seq ||
                (seq > ls.wbAtLoss && seq <= ls.lostSeq))
                return false;
        }
        return true;
    }

    const Tick *now_;
    std::vector<Op> ops_;
    std::map<uint64_t, Line> lines_;
    uint64_t current_ = kNone;
    uint64_t storeSeq_ = 0;
};

TEST(Flit, IndexedSettleMatchesAllOpsScanAcrossSeeds)
{
    constexpr int kSeeds = 24;
    constexpr int kEvents = 600;
    constexpr uint64_t kLines = 12;
    size_t settled = 0;
    for (int trial = 0; trial < kSeeds; ++trial) {
        Rng rng(wsp::testing::testSeed(0xf117 + static_cast<uint64_t>(trial)));
        Tick now = 0;
        util::FlitTracker flit;
        flit.setClock([&now]() { return now; });
        FlitScanOracle oracle(&now);
        uint64_t declared = 0;
        bool applying = false;
        for (int event = 0; event < kEvents; ++event) {
            now += 1 + rng.next(5);
            const uint64_t line = rng.next(kLines) * 64;
            switch (rng.next(7)) {
              case 0:
                flit.declareOp(0, rng.next(16), rng());
                oracle.declare();
                ++declared;
                break;
              case 1:
                if (applying) {
                    flit.endApply();
                    oracle.endApply();
                    applying = false;
                } else if (declared > 0) {
                    // Any declared op, so ops are re-applied too.
                    const uint64_t id = rng.next(declared);
                    flit.beginApply(id);
                    oracle.beginApply(id);
                    applying = true;
                }
                break;
              case 2:
              case 3: {
                // 1-3 lines from an arbitrary offset in the first.
                const uint64_t span = 1 + rng.next(3);
                const uint64_t addr = line + rng.next(64);
                const uint64_t end = line + (span - 1) * 64 + rng.next(64);
                const uint64_t len = end >= addr ? end - addr + 1 : 1;
                flit.onStore(addr, len);
                oracle.store(addr, len);
                break;
              }
              case 4:
              case 5:
                flit.onWriteback(line);
                oracle.writeback(line);
                break;
              default:
                if (rng.next(3) == 0) {
                    flit.onLineLost(line);
                    oracle.lose(line);
                } else if (declared > 0) {
                    flit.respond(rng.next(declared), rng.next(2) == 1,
                                 rng());
                }
                break;
            }
            ASSERT_EQ(flit.ops().size(), declared);
            for (uint64_t id = 0; id < declared; ++id) {
                ASSERT_EQ(flit.ops()[id].persistTick,
                          oracle.persistTick(id))
                    << "seed trial " << trial << " event " << event
                    << " op " << id;
            }
        }
        for (const util::FlitOp &op : flit.ops())
            settled += op.persistTick != util::kNoTick;
    }
    // The walk must actually settle ops, not only compare kNoTick.
    EXPECT_GT(settled, static_cast<size_t>(kSeeds));
}

// Checker unit tests ---------------------------------------------------

HistoryOp
op(uint64_t id, uint64_t key, uint64_t value, bool responded,
   bool persisted, bool isErase = false, bool applied = true)
{
    HistoryOp h;
    h.id = id;
    h.isErase = isErase;
    h.key = key;
    h.value = value;
    h.invoked = true;
    h.applied = applied;
    h.responded = responded;
    h.persisted = persisted && applied;
    return h;
}

TEST(DurableLin, RespondedEffectMustSurvive)
{
    // The planted persist-before-response bug in miniature: op 1
    // responded to the caller but its effect is gone.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, true, false, false, /*applied=*/false),
    };
    const KvState state{{1, 5}};
    const ConditionResult dl = checkDurableLinearizable(history, state);
    EXPECT_FALSE(dl.ok);
    ASSERT_FALSE(dl.violations.empty());
    EXPECT_NE(dl.violations.front().find("durable-lin"),
              std::string::npos);
    EXPECT_FALSE(bruteForceDurablyLinearizable(history, state));

    // Buffered durable linearizability forgives exactly this: the
    // phantom never persisted, so the cut before it is legal.
    EXPECT_TRUE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_TRUE(bruteForceBufferedDurablyLinearizable(history, state));
}

TEST(DurableLin, InFlightOpMaySurfaceOrVanishWhole)
{
    std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, false, false), // in flight at the crash
    };
    EXPECT_TRUE(checkDurableLinearizable(history, KvState{{1, 5}}).ok);
    EXPECT_TRUE(checkDurableLinearizable(history, KvState{{1, 7}}).ok);
    // ...but not half of it (some other value).
    EXPECT_FALSE(checkDurableLinearizable(history, KvState{{1, 6}}).ok);
}

TEST(DurableLin, InventedKeyIsAlwaysAViolation)
{
    const std::vector<HistoryOp> history = {op(0, 1, 5, true, true)};
    const KvState state{{1, 5}, {9, 1}};
    EXPECT_FALSE(checkDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkDetectableExecution(history, state).ok);
}

TEST(Buffered, PersistedOpMustBeInsideTheCut)
{
    // Op 1 persisted; a surviving state that rolled back before it is
    // a violation even though op 1 never responded.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, false, true),
    };
    EXPECT_FALSE(
        checkBufferedDurableLinearizable(history, KvState{{1, 5}}).ok);
    EXPECT_FALSE(
        bruteForceBufferedDurablyLinearizable(history, KvState{{1, 5}}));
    EXPECT_TRUE(
        checkBufferedDurableLinearizable(history, KvState{{1, 7}}).ok);
}

TEST(Buffered, LosesAnUnpersistedRespondedSuffix)
{
    // BDL (unlike DL) tolerates losing responded-but-unpersisted work:
    // the explicit-flush world's contract between flushes.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 2, 9, true, false),
        op(2, 1, 7, true, false),
    };
    const KvState state{{1, 5}};
    EXPECT_TRUE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkDurableLinearizable(history, state).ok);
}

TEST(Detectable, ClassifiesEveryOpOrFails)
{
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 2, 3, true, true),
        op(2, 1, 7, false, false), // in flight
    };
    std::vector<std::pair<uint64_t, OpVerdict>> verdicts;
    const ConditionResult ok = checkDetectableExecution(
        history, KvState{{1, 7}, {2, 3}}, &verdicts);
    ASSERT_TRUE(ok.ok);
    ASSERT_EQ(verdicts.size(), 3u);
    EXPECT_EQ(verdicts[2].second, OpVerdict::Committed); // surfaced

    verdicts.clear();
    const ConditionResult rolled = checkDetectableExecution(
        history, KvState{{1, 5}, {2, 3}}, &verdicts);
    ASSERT_TRUE(rolled.ok);
    EXPECT_EQ(verdicts[2].second, OpVerdict::Aborted); // vanished

    // A torn value belongs to no commit/abort assignment.
    const ConditionResult torn = checkDetectableExecution(
        history, KvState{{1, 6}, {2, 3}}, nullptr);
    EXPECT_FALSE(torn.ok);
    ASSERT_FALSE(torn.violations.empty());
    EXPECT_NE(torn.violations.front().find("partial effect"),
              std::string::npos);
}

// Differential battery: exact checkers vs brute-force searchers --------

KvState
randomState(Rng &rng)
{
    KvState state;
    for (uint64_t key = 1; key <= 3; ++key) {
        const uint64_t value = rng.next(6); // 0 = absent
        if (value != 0)
            state[key] = value;
    }
    return state;
}

std::vector<HistoryOp>
randomHistory(Rng &rng, size_t n)
{
    std::vector<HistoryOp> history;
    for (size_t i = 0; i < n; ++i) {
        HistoryOp h;
        h.id = i;
        h.isErase = rng.chance(0.3);
        h.key = 1 + rng.next(3);
        h.value = 1 + rng.next(5);
        h.invoked = rng.chance(0.9);
        h.applied = h.invoked && rng.chance(0.8);
        // Responded-without-applied is the ack-before-apply shape;
        // keep it in the mix so the differential covers the bug.
        h.responded = h.invoked && rng.chance(0.7);
        h.persisted = h.applied && rng.chance(0.7);
        history.push_back(h);
    }
    return history;
}

/**
 * Brute-force detectable-execution oracle: try every commit/abort
 * assignment of the invoked operations in which each responded one
 * commits; the state is explained iff replaying the committed
 * operations in history order yields it.
 */
bool
bruteForceDetectable(const std::vector<HistoryOp> &history,
                     const KvState &state)
{
    for (uint64_t mask = 0; mask < (1ull << history.size()); ++mask) {
        bool legal = true;
        for (size_t i = 0; i < history.size(); ++i) {
            const bool committed = (mask >> i) & 1;
            legal = legal && (history[i].invoked || !committed) &&
                    (committed || !history[i].responded);
        }
        if (legal &&
            replay(history, [&history, mask](const HistoryOp &h) {
                return (mask >> (&h - history.data())) & 1;
            }) == state)
            return true;
    }
    return false;
}

/** Are @p verdicts one such explaining assignment: one verdict per
 *  invoked op, every responded op committed, and the committed ops
 *  replaying to @p state? */
bool
verdictsExplain(const std::vector<HistoryOp> &history, const KvState &state,
                const std::vector<std::pair<uint64_t, OpVerdict>> &verdicts)
{
    std::map<uint64_t, OpVerdict> by_id(verdicts.begin(), verdicts.end());
    for (const HistoryOp &h : history) {
        const auto it = by_id.find(h.id);
        if (h.invoked != (it != by_id.end()))
            return false;
        if (h.responded && it->second != OpVerdict::Committed)
            return false;
    }
    return by_id.size() == verdicts.size() &&
           replay(history, [&by_id](const HistoryOp &h) {
               return by_id.at(h.id) == OpVerdict::Committed;
           }) == state;
}

TEST(Differential, ExactCheckersMatchBruteForceAcrossTenSeeds)
{
    size_t dl_sat = 0, dl_unsat = 0, bdl_sat = 0, bdl_unsat = 0;
    size_t de_sat = 0, de_unsat = 0, untouched = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const uint64_t pinned = seed * 0x636f6e64ull + seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     wsp::testing::seedTrace(pinned));
        Rng rng(wsp::testing::testSeed(pinned));
        for (int round = 0; round < 200; ++round) {
            const size_t n = 1 + rng.next(8);
            const std::vector<HistoryOp> history = randomHistory(rng, n);

            // Half the states replay a random subset of the history
            // (usually close to satisfiable), half are adversarial.
            KvState state;
            if (rng.chance(0.5)) {
                const uint64_t mask = rng.next(1ull << n);
                state = replay(history,
                               [&history, mask](const HistoryOp &h) {
                                   const size_t i = static_cast<size_t>(
                                       &h - history.data());
                                   return (mask >> i) & 1;
                               });
            } else {
                state = randomState(rng);
            }
            // Some states also hold a key no operation touched, which
            // every condition must refuse.
            if (rng.chance(0.15)) {
                state[4 + rng.next(2)] = 1 + rng.next(5);
                ++untouched;
            }

            const bool dl_exact =
                checkDurableLinearizable(history, state).ok;
            const bool dl_brute =
                bruteForceDurablyLinearizable(history, state);
            ASSERT_EQ(dl_exact, dl_brute)
                << "DL divergence, round " << round;
            (dl_exact ? dl_sat : dl_unsat) += 1;

            const bool bdl_exact =
                checkBufferedDurableLinearizable(history, state).ok;
            const bool bdl_brute =
                bruteForceBufferedDurablyLinearizable(history, state);
            ASSERT_EQ(bdl_exact, bdl_brute)
                << "BDL divergence, round " << round;
            (bdl_exact ? bdl_sat : bdl_unsat) += 1;

            std::vector<std::pair<uint64_t, OpVerdict>> verdicts;
            const bool de_exact =
                checkDetectableExecution(history, state, &verdicts).ok;
            ASSERT_EQ(de_exact, bruteForceDetectable(history, state))
                << "detectable divergence, round " << round;
            if (de_exact) {
                ASSERT_TRUE(verdictsExplain(history, state, verdicts))
                    << "detectable verdicts explain nothing, round "
                    << round;
            }
            (de_exact ? de_sat : de_unsat) += 1;
        }
    }
    // The sweep must have exercised both verdicts of every checker.
    EXPECT_GT(dl_sat, 0u);
    EXPECT_GT(dl_unsat, 0u);
    EXPECT_GT(bdl_sat, 0u);
    EXPECT_GT(bdl_unsat, 0u);
    EXPECT_GT(de_sat, 0u);
    EXPECT_GT(de_unsat, 0u);
    EXPECT_GT(untouched, 0u);
}

TEST(Differential, ViolationTextIsPinned)
{
    // Key 1: two responded puts, then an in-flight erase and put;
    // key 2: one in-flight put; key 3: a responded, persisted put.
    // The state holds a torn value on key 1, a value no op wrote on
    // key 2, loses key 3 and invents key 9.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, true, false),
        op(2, 1, 0, false, false, /*isErase=*/true),
        op(3, 1, 8, false, false),
        op(4, 2, 3, false, false),
        op(5, 3, 2, true, true),
    };
    const KvState state{{1, 6}, {2, 4}, {9, 1}};

    EXPECT_EQ(
        checkDurableLinearizable(history, state).violations,
        (std::vector<std::string>{
            "durable-lin: key 1 holds 6 after recovery; admissible: "
            "{7, absent, 8} (last responded op 1)",
            "durable-lin: key 2 holds 4 after recovery; admissible: "
            "{absent, 3} (last responded op none)",
            "durable-lin: key 3 holds absent after recovery; "
            "admissible: {2} (last responded op 5)",
            "durable-lin: key 9=1 survived but no operation in the "
            "history ever touched it",
        }));
    EXPECT_EQ(
        checkBufferedDurableLinearizable(history, state).violations,
        (std::vector<std::string>{
            "buffered: no prefix cut of the 6-op history containing "
            "all persisted ops (earliest legal cut 6) replays to the "
            "surviving state",
            "buffered: key 9=1 survived but no operation in the "
            "history ever touched it",
        }));
    EXPECT_EQ(
        checkDetectableExecution(history, state).violations,
        (std::vector<std::string>{
            "detectable: key 1 holds 6 — no commit/abort assignment of "
            "its 4 ops explains it (partial effect survived?)",
            "detectable: key 2 holds 4 — no commit/abort assignment of "
            "its 1 ops explains it (partial effect survived?)",
            "detectable: key 3 holds absent — no commit/abort "
            "assignment of its 1 ops explains it (partial effect "
            "survived?)",
            "detectable: key 9=1 survived but no operation in the "
            "history ever touched it",
        }));
}

// Schedule plumbing ----------------------------------------------------

TEST(ConditionSchedule, SerializationRoundTripsConditionFields)
{
    CrashSchedule schedule;
    schedule.condition = ConditionMode::BufferedDurableLin;
    schedule.ackDelay = fromMicros(30.0) + 3;
    schedule.ackBeforeApply = true;
    const auto reread = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(reread.has_value());
    EXPECT_TRUE(*reread == schedule);
    EXPECT_NE(schedule.summary().find("condition=buffered"),
              std::string::npos);
    EXPECT_NE(schedule.summary().find("ACK-BEFORE-APPLY"),
              std::string::npos);
}

TEST(ConditionSchedule, ParseRejectsBadConditionAndNonSequentialAck)
{
    CrashSchedule schedule;
    std::string text = schedule.serialize();
    const size_t pos = text.find("condition=all");
    ASSERT_NE(pos, std::string::npos);
    std::string bad = text;
    bad.replace(pos, 13, "condition=zzz");
    EXPECT_FALSE(CrashSchedule::parse(bad).has_value());

    // ackDelay >= opSpacing would overlap consecutive operations; the
    // checkers assume a sequential history, so the file is refused.
    CrashSchedule overlapping;
    overlapping.ackDelay = overlapping.opSpacing;
    EXPECT_FALSE(
        CrashSchedule::parse(overlapping.serialize()).has_value());
}

TEST(ConditionSchedule, ModeNamesRoundTrip)
{
    for (ConditionMode mode :
         {ConditionMode::All, ConditionMode::DurableLin,
          ConditionMode::BufferedDurableLin, ConditionMode::Detectable}) {
        const auto back = conditionModeFromName(conditionModeName(mode));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, mode);
    }
    EXPECT_FALSE(conditionModeFromName("linearizable").has_value());
}

// End-to-end: the planted ack-before-apply bug -------------------------

/**
 * ackDelay=30us puts each op's respond/apply pair at t and t+30us on a
 * 50us grid; failDelay=5.01ms lands strictly inside op 99's gap (ack
 * at 5.000ms, apply gated at 5.030ms), so a phantom — responded,
 * never applied — exists at every enumerated window.
 */
CrashSchedule
ackBugSchedule()
{
    CrashSchedule schedule;
    schedule.ops = 128;
    schedule.ackDelay = fromMicros(30.0);
    schedule.failDelay = fromMillis(5.0) + fromMicros(10.0);
    schedule.ackBeforeApply = true;
    schedule.outage = fromMillis(500.0);
    return schedule;
}

TEST(AckBeforeApply, IsCaughtMinimizedAndReplayable)
{
    CrashExplorer explorer(ackBugSchedule());
    const SweepReport report = explorer.sweepEnumerated(true, 120);
    ASSERT_FALSE(report.allHeld())
        << "ack-before-apply survived the sweep";
    const CrashPointResult &failure = report.failures.front();
    ASSERT_FALSE(failure.violations.empty());
    bool named_dl = false;
    for (const std::string &violation : failure.violations)
        named_dl = named_dl ||
                   violation.find("durable-lin") != std::string::npos;
    EXPECT_TRUE(named_dl) << failure.violations.front();

    // Minimization keeps the phantom alive...
    const CrashSchedule minimized =
        CrashExplorer::minimize(failure.schedule, 32);
    EXPECT_TRUE(minimized.ackBeforeApply);
    const CrashPointResult replayed =
        CrashExplorer::runSchedule(minimized);
    EXPECT_FALSE(replayed.held());

    // ...and the replay file reproduces it bit-for-bit.
    const std::string path = ::testing::TempDir() +
                             "wsp_conditions_replay_" +
                             std::to_string(::getpid()) + ".txt";
    ASSERT_TRUE(minimized.writeFile(path));
    const auto reread = CrashSchedule::readFile(path);
    ASSERT_TRUE(reread.has_value());
    EXPECT_TRUE(*reread == minimized);
    EXPECT_FALSE(CrashExplorer::runSchedule(*reread).held());
    std::remove(path.c_str());
}

TEST(AckBeforeApply, BufferedModeForgivesTheSameSchedule)
{
    // The phantom never persisted, so buffered durable linearizability
    // admits the cut just before it: a buffered-only sweep of the very
    // same buggy schedule must hold. This is the DL ⊊ BDL separation,
    // end to end.
    CrashSchedule schedule = ackBugSchedule();
    schedule.condition = ConditionMode::BufferedDurableLin;
    CrashExplorer explorer(schedule);
    const SweepReport report = explorer.sweepEnumerated(false, 60);
    EXPECT_TRUE(report.allHeld())
        << report.failures.front().violations.front();
}

TEST(AckBeforeApply, DetectableModeAlsoCatchesThePhantom)
{
    // A responded op with no surviving effect cannot be classified
    // committed, so detectability flags the same bug independently.
    CrashSchedule schedule = ackBugSchedule();
    schedule.condition = ConditionMode::Detectable;
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    ASSERT_FALSE(result.held());
    bool named = false;
    for (const std::string &violation : result.violations)
        named = named || violation.find("detectable-execution") !=
                             std::string::npos;
    EXPECT_TRUE(named) << result.violations.front();
}

TEST(ConditionsBattery, CorrectModeHoldsWithAnOpInFlightAtTheCrash)
{
    // Same timing, bug disabled: op 99 applies at 5.000ms and its
    // response (5.030ms) is cut off by the failure — a genuinely
    // in-flight op at every window. DL must accept it surfacing.
    CrashSchedule schedule = ackBugSchedule();
    schedule.ackBeforeApply = false;
    CrashExplorer explorer(schedule);
    const SweepReport report = explorer.sweepEnumerated(false, 60);
    EXPECT_TRUE(report.allHeld())
        << report.failures.front().violations.front();
}

} // namespace
} // namespace wsp::crashsim::conditions
