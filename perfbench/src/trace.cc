#include "trace.hh"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now())
{
    spans_.reserve(1u << 18);
}

void
Tracer::begin(const char *layer, const char *name, int64_t id)
{
    spans_.push_back({layer, name, now(), 0.0, open_, id});
    open_ = static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::end()
{
    Span &s = spans_[static_cast<size_t>(open_)];
    s.end = now();
    open_ = s.parent;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children close inside their parent and never overlap each
    // other, so the part of a parent they cover is their sum.
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    return self;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    std::vector<double> self = selfTimes();
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            total += self[i];
    return total;
}

std::map<std::string, double>
Tracer::layerSelfSeconds() const
{
    std::vector<double> self = selfTimes();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].layer] += self[i];
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"layer\": \"%s\", \"name\": \"%s\", "
                     "\"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"parent\": %d, \"id\": %lld}\n",
                     s.layer, s.name, s.start * 1e6, s.end * 1e6,
                     s.parent, static_cast<long long>(s.id));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
