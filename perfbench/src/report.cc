#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <memory_resource>

namespace perfbench {

int32_t
Tracer::open(const char *name, uint32_t iter)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_;
    span.iter = iter;
    span.start = nowNs();
    spans_.push_back(span);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
}

void
Tracer::close(int32_t index)
{
    if (index < 0)
        return;
    Span &span = spans_[static_cast<size_t>(index)];
    span.end = nowNs();
    open_ = span.parent;
}

std::vector<Tracer::Totals>
Tracer::totals() const
{
    // Children are recorded after their parent and close before it,
    // so one pass charges every child's duration to its parent.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            covered[static_cast<size_t>(span.parent)] +=
                static_cast<double>(span.end - span.start);

    std::vector<Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        auto it = std::find_if(out.begin(), out.end(), [&](const Totals &t) {
            return t.name == span.name;
        });
        if (it == out.end()) {
            out.push_back(Totals{span.name, 0, 0.0, 0.0});
            it = out.end() - 1;
        }
        const auto duration = static_cast<double>(span.end - span.start);
        ++it->count;
        it->totalNs += duration;
        it->selfNs += duration - covered[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"iter\": %u}%s\n",
                     i, s.name, static_cast<long long>(s.start),
                     static_cast<long long>(s.end), s.parent, s.iter,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void
Record::metric(const std::string &name, double value,
               const std::string &unit)
{
    values_.push_back(Value{name, value, unit, true});
}

void
Record::note(const std::string &name, double value, const std::string &unit)
{
    values_.push_back(Value{name, value, unit, false});
}

void
Record::line(const std::string &text)
{
    lines_.push_back(text);
}

void
Record::fail(uint64_t n, const std::string &why)
{
    failed_ += n;
    failures_.push_back(why);
}

void
Record::print() const
{
    for (const std::string &text : lines_)
        std::printf("%s\n", text.c_str());
    for (const std::string &why : failures_)
        std::printf("CHECK FAILED: %s\n", why.c_str());
    for (const Value &v : values_)
        std::printf("%-8s %-34s %.17g %s\n", v.gated ? "metric" : "note",
                    v.name.c_str(), v.value, v.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const Value &v : values_) {
        if (!v.gated)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", v.name.c_str(),
                    std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

HistQuantile
histQuantile(const wsp::Histogram &h, double q)
{
    HistQuantile out;
    const double lo = h.bucketLo(0);
    const double width = h.buckets() > 1 ? h.bucketLo(1) - lo : 0.0;
    const double hi = lo + width * static_cast<double>(h.buckets());
    if (h.total() == 0)
        return out;
    const double rank = q * static_cast<double>(h.total());
    double seen = static_cast<double>(h.underflow());
    if (rank < seen) {
        out.value = lo;
        return out;
    }
    for (size_t i = 0; i < h.buckets(); ++i) {
        const auto count = static_cast<double>(h.bucketCount(i));
        if (count > 0.0 && seen + count > rank) {
            out.value = h.bucketLo(i) + width * (rank - seen) / count;
            return out;
        }
        seen += count;
    }
    out.value = hi;
    out.inOverflow = true;
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct HostProbe::Pool
{
    // The map's nodes come from here only: a pool over a private arena,
    // which keeps the freed nodes for the next sample.
    std::vector<std::byte> arena = std::vector<std::byte>(2u << 20);
    std::pmr::monotonic_buffer_resource upstream{arena.data(), arena.size()};
    std::pmr::unsynchronized_pool_resource nodes{&upstream};
};

HostProbe::HostProbe() : pool_(std::make_unique<Pool>())
{
    sampleNs(); // the pool's first blocks are not part of a sample
    last_ = sampleNs();
}

HostProbe::~HostProbe() = default;

double
HostProbe::sampleNs()
{
    const int64_t t0 = nowNs();
    uint64_t sum = 0;
    for (uint64_t round = 0; round < 2; ++round) {
        std::pmr::map<uint64_t, uint64_t> map(&pool_->nodes);
        uint64_t x = round;
        for (uint64_t i = 0; i < 10000; ++i) {
            x = x * 6364136223846793005ull + 1;
            map[x >> 33] = i;
        }
        for (const auto &entry : map)
            sum += entry.second;
    }
    keep(sum);
    return static_cast<double>(nowNs() - t0);
}

double
HostProbe::next()
{
    const double now = sampleNs();
    const double scale = kRefNs / (0.5 * (last_ + now));
    last_ = now;
    samples_.push_back(now);
    return scale;
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
