/**
 * @file
 * Shared plumbing for the end-to-end benchmark: run options, the
 * result record (operation counts, checks, metrics), sample
 * statistics and host facts.
 */

#ifndef NSCS_PERFBENCH_HARNESS_HH
#define NSCS_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  //!< length of the timed closed loop
    bool trace = false;     //!< report per-layer metrics instead
};

/**
 * What a run reports: operations attempted and failed, and the
 * metrics by name.  Every tick, request, snapshot/restore round trip
 * and output check is one operation; a check that fails is a failed
 * operation.
 */
class Result
{
  public:
    /** Count @p n operations that cannot fail on their own. */
    void ops(uint64_t n) { attempted_ += n; }

    /** Count one check; a false @p ok is a failed operation. */
    void check(bool ok, const std::string &what);

    /** Mark one already counted operation as failed. */
    void fail(const std::string &what);

    /** Record metric @p name. */
    void put(const std::string &name, double value,
             const std::string &unit);

    /** Facts that move the numbers without a code change. */
    void fact(const std::string &key, const std::string &json);

    uint64_t failed() const { return failed_; }

    /** Print the facts line, then the result line (last). */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> facts_;
};

/** Quantile @p q in [0, 1] of @p v (linear interpolation). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** This process's peak resident set in MiB. */
double peakRssMb();

/** Record the host facts every workload shares (SIMD level, nproc). */
void hostFacts(Result &r);

} // namespace perfbench

#endif // NSCS_PERFBENCH_HARNESS_HH
