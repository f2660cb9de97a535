/**
 * @file
 * In-memory span tracer for the traced run.
 *
 * The benchmark wraps its own calls into each nscs module in spans;
 * nothing inside the library is instrumented.  A span records its
 * layer (the nscs module called), name, start, end, parent span and
 * the tick or batch id it belongs to.  Spans stay in memory until
 * the run ends; a layer's self time is a span's duration minus the
 * time its child spans cover.
 */

#ifndef NSCS_PERFBENCH_TRACE_HH
#define NSCS_PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *layer;
        const char *name;
        double start;    //!< seconds since the tracer was made
        double end;
        int32_t parent;  //!< index of the enclosing span, -1 if none
        int64_t id;      //!< tick or batch id, -1 outside the loop
    };

    Tracer();

    /** Open a span nested in the innermost open one. */
    void begin(const char *layer, const char *name, int64_t id = -1);

    /** Close the innermost open span. */
    void end();

    /** Sum of the self times of every span named @p name. */
    double selfSeconds(const std::string &name) const;

    /** Self time per layer. */
    std::map<std::string, double> layerSelfSeconds() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    /** RAII span; a null tracer records nothing, so one code path
     *  serves the timed and the traced run. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *layer, const char *name,
              int64_t id = -1)
            : t_(t)
        {
            if (t_)
                t_->begin(layer, name, id);
        }
        ~Scope()
        {
            if (t_)
                t_->end();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
    };

  private:
    double now() const { return seconds(origin_, Clock::now()); }
    std::vector<double> selfTimes() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    int32_t open_ = -1;
};

} // namespace perfbench

#endif // NSCS_PERFBENCH_TRACE_HH
