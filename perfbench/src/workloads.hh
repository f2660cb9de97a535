/**
 * @file
 * The benchmark's workloads.  Each runs set-up, a timed closed loop,
 * a snapshot round trip where it applies and its output checks, and
 * with Options::trace a further traced run of the same work.
 */

#ifndef NSCS_PERFBENCH_WORKLOADS_HH
#define NSCS_PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** 16x16-core cortical chip at 10 Hz Poisson input. */
void runF6(const Options &opt, Result &r);

/** 32-population pacemaker ring on a 4x4 board. */
void runBoardRing(const Options &opt, Result &r);

/** Digits classifier served in batches of 8 on 8 instance lanes. */
void runClassifier(const Options &opt, Result &r);

} // namespace perfbench

#endif // NSCS_PERFBENCH_WORKLOADS_HH
