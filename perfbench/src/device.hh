/**
 * @file
 * Measurement steps shared by the workloads: the segmented closed
 * loop, the output log, the reference check, snapshot timing, the
 * traced tick loop and the per-layer metrics read from counters and
 * spans.
 */

#ifndef NSCS_PERFBENCH_DEVICE_HH
#define NSCS_PERFBENCH_DEVICE_HH

#include <functional>
#include <string>
#include <vector>

#include "prog/compiled.hh"
#include "report.hh"
#include "runtime/simulator.hh"
#include "trace.hh"

namespace perfbench {

/** Untimed ticks before a tick workload's closed loop starts timing. */
constexpr uint64_t kWarmupTicks = 32;

/** Ticks both devices run after a restore to compare their output. */
constexpr uint64_t kContinueTicks = 64;

/** Time spent sampling snapshot and restore, each, per run. */
constexpr double kSnapshotBudgetS = 0.5;

/**
 * The output stream as a 64-bit digest per tick plus per-line counts.
 * The closed loop drains the recorder after every tick into this log,
 * as a real-time client consumes its output, so the memory a run holds
 * does not grow with its length (and so with its speed).
 */
struct OutputLog
{
    std::vector<uint64_t> tickDigest;  //!< one per tick, from tick 0
    std::vector<uint64_t> lineCount;   //!< spikes per output line
    uint64_t spikes = 0;

    /** Fold in one tick's spikes (any order: they are sorted first). */
    void add(std::vector<nscs::OutputSpike> tick);

    /** Move the recorder's spikes (one tick's) in and clear it. */
    void drain(nscs::Simulator &sim);

    /** The first @p ticks ticks of both logs agree. */
    bool samePrefix(const OutputLog &o, size_t ticks) const;
};

/** What one device did in its segment of the closed loop. */
struct Segment
{
    uint64_t calls = 0;  //!< closed-loop calls, including the warm-up
    uint64_t ticks = 0;  //!< device ticks, including the warm-up
    double busyS = 0;    //!< time inside the timed calls
    OutputLog log;       //!< filled by the tick workloads
    uint64_t sops = 0, spikes = 0, linkDrops = 0;
};

/** How runSegments drives one kind of device. */
struct Loop
{
    /**
     * Build a new device and return its simulator.  The device built
     * before it must stay alive until the next set-up: it is the
     * target of a restore of the new device's snapshot.
     */
    std::function<nscs::Simulator &()> setup;
    /** One closed-loop call on the newest device: the timed part. */
    std::function<void()> call;
    /** Untimed work after each call: take in its output. */
    std::function<void(Segment &)> consume;
    uint64_t warmupCalls = 0;
    uint64_t requestsPerCall = 1;
};

/**
 * The timed part of a run: @p reps set-ups, each followed by a closed
 * loop (the next call starting when the previous returns) on the
 * device it built, for @p secs / @p reps seconds after
 * Loop::warmupCalls untimed calls.  Every set-up calibrates its own
 * cores, so spreading the time over several devices measures the
 * calibration's spread instead of one draw of it.  After each segment
 * but the first, the device's state is snapshot and restored into the
 * previous device.
 *
 * setup_s is the median set-up.  Rates and latency quantiles are
 * computed per segment and reported as the median over the segments,
 * so a slow spell of the shared host that covers a few segments does
 * not move them; snapshot and restore times are medians too.  Every
 * request counts as an operation.
 */
void runSegments(int reps, double secs, const Loop &loop, EndToEnd &e,
                 std::vector<Segment> &segs, Result &r);

/**
 * ReferenceSim over @p m from tick 0, fed by @p src when it is not
 * null: every segment's output, sops and spike count must match the
 * reference's over the same ticks.  Sops count every crossbar hit
 * whatever its weight, so a lost or extra delivery shows even where
 * it cannot change the output.
 */
void checkAgainstReference(const nscs::CompiledModel &m,
                           nscs::SpikeSource *src,
                           const std::vector<Segment> &segs,
                           const std::string &what, Result &r);

/** Give @p to the per-core integrate thresholds @p from calibrated,
 *  so a replay of @p from's ticks takes the same integrate paths. */
void copyThresholds(const nscs::Simulator &from, nscs::Simulator &to);

/** What the traced tick loop saw. */
struct TracedTicks
{
    double busyS = 0;  //!< time inside the tick spans, after warm-up
    uint64_t inputSpikes = 0;
    OutputLog log;
};

/**
 * Run @p ticks ticks through the public calls Simulator::run makes
 * (source, inject, device tick, record), each in a span.  The first
 * kWarmupTicks are left out of the busy time, as in the timed run.
 */
TracedTicks runTraced(nscs::Simulator &sim, uint64_t ticks, Tracer &tr);

/** Restore invisibility: run both kContinueTicks ticks and check
 *  that the restored device's output and sops equal the original's. */
void continueBoth(nscs::Simulator &sim, nscs::Simulator &fresh,
                  Result &r);

/** One traced snapshot of @p sim restored into @p fresh. */
void tracedSnapshot(nscs::Simulator &sim, nscs::Simulator &fresh,
                    Tracer &tr, Result &r);

/** Chip, core, neuron and board counters of the device after
 *  @p ticks ticks. */
void deviceLayers(const nscs::Simulator &sim, uint64_t ticks,
                  Layers &l);

/** Per-core calibrated integrate thresholds and the integrate path
 *  split: they change run to run with no code change. */
void deviceFacts(const nscs::Simulator &sim, Result &r);

/** Per-layer times from the spans: per-tick means over @p ticks,
 *  per-batch means over @p batches, totals for set-up steps. */
void spanLayerTimes(const Tracer &tr, uint64_t ticks, uint64_t batches,
                    Layers &l);

/** Write the spans to traces/<workload>-seed<N>.jsonl under the
 *  working directory and record each layer's self time as a fact. */
void finishTrace(const Tracer &tr, const Options &opt, Result &r);

} // namespace perfbench

#endif // NSCS_PERFBENCH_DEVICE_HH
