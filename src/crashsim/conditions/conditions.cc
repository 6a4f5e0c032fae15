#include "crashsim/conditions/conditions.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <span>

#include "util/logging.h"

namespace wsp::crashsim::conditions {

namespace {

/** A key's value after an operation takes effect (nullopt = absent). */
std::optional<uint64_t>
valueAfter(const HistoryOp &op)
{
    if (op.isErase)
        return std::nullopt;
    return op.value;
}

std::string
formatValue(const std::optional<uint64_t> &value)
{
    if (!value)
        return "absent";
    return std::to_string(*value);
}

using OpRun = std::span<const HistoryOp *const>;

/**
 * The invoked operations of @p ops sorted by (key, position): a stable
 * sort by key, so each key's run stays in history order. Durable
 * linearizability is local (a history is durably linearizable iff
 * each key's history is), so every checker walks these runs instead
 * of rescanning the whole history once per key.
 */
std::vector<const HistoryOp *>
sortByKey(const std::vector<HistoryOp> &ops)
{
    std::vector<const HistoryOp *> sorted;
    sorted.reserve(ops.size());
    for (const HistoryOp &op : ops) {
        if (op.invoked)
            sorted.push_back(&op);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const HistoryOp *a, const HistoryOp *b) {
                  return a->key != b->key ? a->key < b->key
                                          : std::less<>()(a, b);
              });
    return sorted;
}

/** Call @p visit(first, run) for each key's run of @p sorted, in key
 *  order; @p first is the run's position in @p sorted. */
template <typename Visit>
void
forEachKey(OpRun sorted, Visit visit)
{
    for (size_t first = 0, end = 0; first < sorted.size(); first = end) {
        end = first + 1;
        while (end < sorted.size() && sorted[end]->key == sorted[first]->key)
            ++end;
        visit(first, sorted.subspan(first, end - first));
    }
}

/** Position of the last responded op in @p kops, or -1. */
ptrdiff_t
lastResponded(OpRun kops)
{
    for (size_t i = kops.size(); i > 0; --i) {
        if (kops[i - 1]->responded)
            return static_cast<ptrdiff_t>(i - 1);
    }
    return -1;
}

/** Value the responded ops leave on the key: the one value every
 *  admissible outcome must start from. */
std::optional<uint64_t>
respondedValue(OpRun kops, ptrdiff_t last)
{
    return last >= 0 ? valueAfter(*kops[static_cast<size_t>(last)])
                     : std::nullopt;
}

std::optional<uint64_t>
stateValue(const KvState &state, uint64_t key)
{
    auto it = state.find(key);
    if (it == state.end())
        return std::nullopt;
    return it->second;
}

void
appendViolation(ConditionResult *result, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendViolation(ConditionResult *result, const char *fmt, ...)
{
    char line[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    result->ok = false;
    result->violations.emplace_back(line);
}

/**
 * Flag keys present in @p state that no invoked operation ever put —
 * common to every condition (no checker admits invented keys).
 */
void
checkNoInventedKeys(OpRun sorted, const KvState &state,
                    const char *checker, ConditionResult *result)
{
    for (const auto &[key, value] : state) {
        const auto it = std::lower_bound(
            sorted.begin(), sorted.end(), key,
            [](const HistoryOp *op, uint64_t k) { return op->key < k; });
        if (it == sorted.end() || (*it)->key != key)
            appendViolation(result,
                            "%s: key %llu=%llu survived but no operation "
                            "in the history ever touched it",
                            checker, static_cast<unsigned long long>(key),
                            static_cast<unsigned long long>(value));
    }
}

} // namespace

ConditionResult
checkDurableLinearizable(const std::vector<HistoryOp> &ops,
                         const KvState &state)
{
    ConditionResult result;
    const std::vector<const HistoryOp *> sorted = sortByKey(ops);
    // Per key: the ops on it are totally ordered and inclusion of each
    // in-flight op is a free choice, so the admissible final values
    // are the value after the last *responded* op (all responded ops
    // must be included; earlier in-flight inclusions are overwritten)
    // plus the value after each later in-flight op.
    forEachKey(sorted, [&](size_t, OpRun kops) {
        const uint64_t key = kops.front()->key;
        const ptrdiff_t last = lastResponded(kops);
        const size_t first_free = static_cast<size_t>(last + 1);
        const std::optional<uint64_t> got = stateValue(state, key);
        bool match = respondedValue(kops, last) == got;
        for (size_t i = first_free; !match && i < kops.size(); ++i)
            match = valueAfter(*kops[i]) == got;
        if (match)
            return;

        std::string options = formatValue(respondedValue(kops, last));
        for (size_t i = first_free; i < kops.size(); ++i)
            options += ", " + formatValue(valueAfter(*kops[i]));
        appendViolation(&result,
                        "durable-lin: key %llu holds %s after "
                        "recovery; admissible: {%s} (last responded "
                        "op %s)",
                        static_cast<unsigned long long>(key),
                        formatValue(got).c_str(), options.c_str(),
                        last >= 0
                            ? std::to_string(
                                  kops[static_cast<size_t>(last)]->id)
                                  .c_str()
                            : "none");
    });
    checkNoInventedKeys(sorted, state, "durable-lin", &result);
    return result;
}

ConditionResult
checkBufferedDurableLinearizable(const std::vector<HistoryOp> &ops,
                                 const KvState &state)
{
    ConditionResult result;
    // The history is sequential, so a consistent cut is a prefix. The
    // cut must contain every persisted operation.
    size_t min_cut = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].invoked && ops[i].persisted)
            min_cut = i + 1;
    }

    // Replay the prefixes incrementally, per key, counting the keys
    // whose replayed value differs from the state: a prefix replays
    // to the state iff that count is zero. The empty replay differs
    // on every surviving key — and a key no op touched keeps
    // differing, so an invented key fails every cut. A key's values
    // live at its run's position in the sorted ops.
    const std::vector<const HistoryOp *> sorted = sortByKey(ops);
    std::vector<size_t> run_of(ops.size());
    std::vector<std::optional<uint64_t>> wanted(sorted.size());
    std::vector<std::optional<uint64_t>> replayed(sorted.size());
    forEachKey(sorted, [&](size_t first, OpRun kops) {
        for (const HistoryOp *op : kops)
            run_of[static_cast<size_t>(op - ops.data())] = first;
        wanted[first] = stateValue(state, kops.front()->key);
    });
    size_t differing = state.size();

    bool found = false;
    for (size_t p = 0; p <= ops.size(); ++p) {
        if (p > 0 && ops[p - 1].invoked) {
            const size_t run = run_of[p - 1];
            const bool matched = replayed[run] == wanted[run];
            replayed[run] = valueAfter(ops[p - 1]);
            const bool matches = replayed[run] == wanted[run];
            differing = differing + matched - matches;
        }
        if (p >= min_cut && differing == 0) {
            found = true;
            break;
        }
    }
    if (!found) {
        appendViolation(&result,
                        "buffered: no prefix cut of the %zu-op history "
                        "containing all persisted ops (earliest legal "
                        "cut %zu) replays to the surviving state",
                        ops.size(), min_cut);
        checkNoInventedKeys(sorted, state, "buffered", &result);
    }
    return result;
}

ConditionResult
checkDetectableExecution(
    const std::vector<HistoryOp> &ops, const KvState &state,
    std::vector<std::pair<uint64_t, OpVerdict>> *verdicts)
{
    ConditionResult result;
    std::vector<std::pair<uint64_t, OpVerdict>> assigned;
    const std::vector<const HistoryOp *> sorted = sortByKey(ops);

    forEachKey(sorted, [&](size_t, OpRun kops) {
        const uint64_t key = kops.front()->key;
        const ptrdiff_t last = lastResponded(kops);
        const std::optional<uint64_t> got = stateValue(state, key);

        // Find the cut within this key's ops that explains the
        // surviving value: all ops up to it committed, the rest
        // aborted. Prefer the latest explanation (most-recent op
        // committed) for determinism; any consistent one suffices for
        // detectability.
        ptrdiff_t chosen = -2; // -2 = no explanation
        if (respondedValue(kops, last) == got)
            chosen = last;
        for (size_t i = static_cast<size_t>(last + 1); i < kops.size();
             ++i) {
            if (valueAfter(*kops[i]) == got)
                chosen = static_cast<ptrdiff_t>(i);
        }
        if (chosen == -2) {
            appendViolation(&result,
                            "detectable: key %llu holds %s — no "
                            "commit/abort assignment of its %zu ops "
                            "explains it (partial effect survived?)",
                            static_cast<unsigned long long>(key),
                            formatValue(got).c_str(), kops.size());
            return;
        }
        for (size_t i = 0; i < kops.size(); ++i) {
            assigned.emplace_back(kops[i]->id,
                                  static_cast<ptrdiff_t>(i) <= chosen
                                      ? OpVerdict::Committed
                                      : OpVerdict::Aborted);
        }
    });

    checkNoInventedKeys(sorted, state, "detectable", &result);
    if (result.ok && verdicts != nullptr) {
        std::sort(assigned.begin(), assigned.end());
        *verdicts = std::move(assigned);
    }
    return result;
}

bool
bruteForceDurablyLinearizable(const std::vector<HistoryOp> &ops,
                              const KvState &state)
{
    // Free choices: invoked operations that never responded.
    std::vector<size_t> optional_idx;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].invoked && !ops[i].responded)
            optional_idx.push_back(i);
    }
    WSP_CHECKF(optional_idx.size() <= 20,
               "brute-force oracle: too many in-flight ops (%zu)",
               optional_idx.size());

    const uint64_t combos = 1ull << optional_idx.size();
    for (uint64_t mask = 0; mask < combos; ++mask) {
        std::vector<bool> include(ops.size(), false);
        for (size_t i = 0; i < ops.size(); ++i)
            include[i] = ops[i].invoked && ops[i].responded;
        for (size_t bit = 0; bit < optional_idx.size(); ++bit) {
            if (mask & (1ull << bit))
                include[optional_idx[bit]] = true;
        }
        const KvState replayed = replay(
            ops, [&include, &ops](const HistoryOp &op) {
                return include[static_cast<size_t>(&op - ops.data())];
            });
        if (replayed == state)
            return true;
    }
    return false;
}

bool
bruteForceBufferedDurablyLinearizable(const std::vector<HistoryOp> &ops,
                                      const KvState &state)
{
    for (size_t p = 0; p <= ops.size(); ++p) {
        bool legal = true;
        for (size_t i = p; i < ops.size(); ++i)
            legal = legal && !(ops[i].invoked && ops[i].persisted);
        if (!legal)
            continue;
        KvState replayed;
        for (size_t i = 0; i < p; ++i) {
            if (!ops[i].invoked)
                continue;
            if (ops[i].isErase)
                replayed.erase(ops[i].key);
            else
                replayed[ops[i].key] = ops[i].value;
        }
        if (replayed == state)
            return true;
    }
    return false;
}

} // namespace wsp::crashsim::conditions
