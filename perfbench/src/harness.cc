#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/simd.hh"

namespace perfbench {

void
Result::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
}

void
Result::fail(const std::string &what)
{
    ++failed_;
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
}

void
Result::put(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Result::fact(const std::string &key, const std::string &json)
{
    facts_.emplace_back(key, json);
}

void
Result::print() const
{
    std::string facts = "{";
    for (size_t i = 0; i < facts_.size(); ++i) {
        facts += (i ? ", \"" : "\"") + facts_[i].first + "\": " +
                 facts_[i].second;
    }
    std::printf("facts: %s}\n", facts.c_str());

    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
hostFacts(Result &r)
{
    r.fact("simd_level",
           std::string("\"") +
               nscs::simd::levelName(nscs::simd::activeLevel()) + "\"");
    r.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
}

} // namespace perfbench
