/**
 * @file
 * Shared plumbing of the repository benchmark: the run options, the
 * result record (every metric by name and unit), the span tracer of
 * the traced run, and the order statistics the workloads report.
 *
 * Spans are recorded only by the benchmark's own files, around calls
 * into each module's public functions; nothing inside src/ is
 * instrumented. A span names the call, its start and end on the
 * steady clock, the span it was opened under, and the workload
 * iteration it belongs to. Spans stay in memory until the run ends.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/** Steady-clock nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Keep @p value observable, so a timed loop computing it is not
 *  optimised away. */
inline void
keep(uint64_t value)
{
    asm volatile("" : : "r"(value) : "memory");
}

/** Command line of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 8.0;
    bool trace = false;
    bool pinned = false;   ///< deterministic outputs only, no timing
    std::string spansOut;  ///< traced run: where the spans are written
    std::string source;    ///< commit or source-tree digest of the build
};

/** Serving concurrency: two workers leave the shared host headroom. */
constexpr unsigned kWorkers = 2;

/** One recorded span (see file comment). */
struct Span
{
    const char *name = nullptr;
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1;
    uint32_t iter = 0;
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Switch recording; only between top-level spans. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int32_t open(const char *name, uint32_t iter);
    void close(int32_t index);

    /** Total and self time (duration minus covered children) of
     *  every span name, in first-seen order. */
    struct Totals
    {
        std::string name;
        uint64_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };
    std::vector<Totals> totals() const;

    /** Write the spans as a JSON array. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    int32_t open_ = -1;
};

/** RAII span; also usable with a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, uint32_t iter)
        : tracer_(tracer), index_(tracer.open(name, iter))
    {
    }
    ~ScopedSpan() { tracer_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int32_t index_;
};

/**
 * The result of one run. metric() values go into the final JSON line
 * (the gated set, which run.py holds against BENCHMARK.json); note()
 * values are printed by name and unit but not gated: modeled times,
 * which are identical on every run by construction, and exact
 * counters.
 */
class Record
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &name, double value,
              const std::string &unit);
    void line(const std::string &text); ///< free-form report line

    void attempt(uint64_t n) { attempted_ += n; }
    void fail(uint64_t n, const std::string &why);

    bool correct() const { return failed_ == 0 && failures_.empty(); }

    /** Print every line and metric, then the JSON result line. */
    void print() const;

  private:
    struct Value
    {
        std::string name;
        double value;
        std::string unit;
        bool gated;
    };
    std::vector<Value> values_;
    std::vector<std::string> lines_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile (0 <= q <= 1) of @p v. */
double quantile(std::vector<double> v, double q);

/**
 * Quantile of a linear histogram, interpolated by rank inside the
 * bucket it lands in. A quantile that lands in the overflow bucket has
 * no value: inOverflow is set and value is the range cap.
 */
struct HistQuantile
{
    double value = 0.0;
    bool inOverflow = false;
};
HistQuantile histQuantile(const wsp::Histogram &h, double q);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** splitmix64 step: derives independent seeds from the run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/**
 * Host-speed probe for the single-threaded workloads (crash, storm).
 *
 * The shared host's speed drifts by tens of percent over a minute:
 * neighbours contend for caches and memory, which slows this process's
 * allocation-heavy, pointer-chasing code while a pure ALU loop keeps
 * its speed. The probe is a fixed kernel of that kind — build and walk
 * a 10k-node std::map twice, in a private memory pool so the program's
 * heap does not touch it — run between short stretches of work. Each
 * stretch's host time is scaled by kRefNs over the mean of the probes
 * on either side of it, so the gated times read as time on a host
 * that runs the probe in kRefNs (about what a quiet 4-core Xeon VM
 * takes).
 * The probe is the benchmark's own code: a change to the program moves
 * the work and not the probe.
 */
class HostProbe
{
  public:
    /** Probe time the scaled figures are expressed against. */
    static constexpr double kRefNs = 6.4e6;

    HostProbe();
    ~HostProbe();

    /** Scale for the stretch since the previous sample: runs the
     *  kernel and returns kRefNs over the mean of this and the
     *  previous sample. */
    double next();

    /** Median of the samples next() has taken, ns. */
    double medianNs() const { return median(samples_); }

  private:
    /** Run the kernel once; its host time, ns. */
    double sampleNs();

    struct Pool;
    std::unique_ptr<Pool> pool_;
    double last_ = 0.0;
    std::vector<double> samples_;
};

/** Median wall time of @p repeats calls of @p setup, seconds. The
 *  last call's product is what the run keeps. */
template <typename Fn>
double
timeSetup(unsigned repeats, Fn &&setup)
{
    std::vector<double> samples;
    for (unsigned i = 0; i < repeats; ++i) {
        const int64_t t0 = nowNs();
        setup(i);
        samples.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return median(samples);
}

/** timeSetup in scaled time: the host probe runs after every
 *  @p per_probe calls, and their times are scaled by it (see
 *  HostProbe). */
template <typename Fn>
double
scaledSetup(HostProbe &probe, unsigned repeats, unsigned per_probe,
            Fn &&setup)
{
    std::vector<double> samples;
    probe.next();
    for (unsigned i = 0; i < repeats;) {
        const size_t from = samples.size();
        for (unsigned k = 0; k < per_probe && i < repeats; ++k, ++i) {
            const int64_t t0 = nowNs();
            setup(i);
            samples.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        }
        const double scale = probe.next();
        for (size_t k = from; k < samples.size(); ++k)
            samples[k] *= scale;
    }
    return median(samples);
}

/** Each workload's untraced run fills @p record with its end-to-end
 *  metrics; a failed check is recorded, never thrown. */
void runServe(const Options &options, Record &record);
void runCrash(const Options &options, Record &record);
void runStorm(const Options &options, Record &record);

/** The deterministic outputs of each workload (--pinned). */
void servePinned(const Options &options, Record &record);
void crashPinned(const Options &options, Record &record);
void stormPinned(const Options &options, Record &record);

/**
 * Standalone rungs of the layer ladder that no workload path owns
 * (machine, nvram line, event queue, ring, stream): measured in every
 * traced run so every per-layer metric is present on every workload.
 */
void runMicroRungs(const Options &options, Record &record, Tracer &tracer);

/** Per-layer rungs of each path at a fixed reduced size, for traced
 *  runs of workloads that are not on that path. */
void serveLadder(const Options &options, Record &record, Tracer &tracer,
                 bool full);
void crashLadder(const Options &options, Record &record, Tracer &tracer,
                 bool full);
void stormLadder(const Options &options, Record &record, Tracer &tracer,
                 bool full);

} // namespace perfbench
