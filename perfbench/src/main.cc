/**
 * @file
 * nscs_perfbench: one end-to-end benchmark run.
 *
 *   nscs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints a facts line, then as its last line one JSON object with
 * the operations attempted and failed and the metrics: the
 * end-to-end set with --trace 0, the per-layer set with --trace 1,
 * which also writes the spans to traces/NAME-seedN.jsonl under the
 * working directory.  S is at most kMaxSeconds, so that a run with
 * its set-ups and checks stays well within the time perfbench/run.py
 * gives it.  Exits 1 when any operation failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

constexpr uint64_t kMaxSeconds = 60;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "nscs_perfbench: %s\n"
                 "usage: nscs_perfbench --workload f6-cortical-10hz|"
                 "board-ring|classifier-b8 --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    return 2;
}

bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, opt.seed))
                return usage("--seed takes a whole number");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > kMaxSeconds)
                return usage("--seconds takes a whole number in [1, 60]");
            opt.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            haveTrace = true;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");

    nscs::setQuiet(true);
    Result r;
    hostFacts(r);
    if (opt.workload == "f6-cortical-10hz")
        runF6(opt, r);
    else if (opt.workload == "board-ring")
        runBoardRing(opt, r);
    else if (opt.workload == "classifier-b8")
        runClassifier(opt, r);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    r.print();
    return r.failed() == 0 ? 0 : 1;
}
