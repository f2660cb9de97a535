/**
 * @file
 * board-ring: the 32-population pacemaker ring on a 4x4 board of
 * two-core chips, with a 64-packet-per-tick link budget and a queue
 * of 512.  Set-up compiles from the placer's estimate, traces a run,
 * recompiles from the traffic profile and builds the board with
 * profile routes and 16-spike packet coalescing.  The only workload
 * that crosses chips and runs the placer; its weight-0 crossbars
 * leave the cores almost no integrate work.
 */

#include <memory>
#include <string>
#include <vector>

#include "board/traffic.hh"
#include "device.hh"
#include "prog/compiler.hh"
#include "prog/network.hh"
#include "util/rng.hh"
#include "workloads.hh"

using namespace nscs;

namespace perfbench {

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 7;
constexpr uint32_t kBoard = 4;
constexpr uint32_t kGridW = 8;
constexpr uint32_t kGridH = 4;
constexpr uint32_t kPops = 32;
constexpr uint32_t kPopSize = 256;
constexpr uint64_t kTraceTicks = 64;
constexpr uint32_t kCoalesce = 16;
constexpr uint32_t kOutputEvery = 16;

/** Pacemaker period: even populations are slow. */
int32_t
threshold(uint32_t pop)
{
    return pop % 2 == 0 ? 16 : 1;
}

/** The ring and the populations whose neurons are output lines. */
struct Ring
{
    Network net;
    std::vector<uint32_t> lineThreshold;  //!< per output line
};

/**
 * Pop i drives pop i+1 one-to-one through weight-0 synapses (traffic
 * with no recurrent dynamics).  A neuron has one destination, so the
 * four output populations (two slow, two fast) drop their ring edge
 * and route one neuron in 16 to an output line.  The seed picks which
 * neuron of each 16; it leaves the placement and the traffic alone,
 * so every seed measures the same work.
 */
Ring
makeRing(uint64_t seed)
{
    const auto first = static_cast<uint32_t>(
        Xoshiro256(seed).below(kOutputEvery));
    std::vector<bool> isOutput(kPops, false);
    for (uint32_t p : {0u, 9u, 16u, 25u})
        isOutput[p] = true;

    Ring ring;
    NeuronParams pace;
    pace.synWeight = {0, 0, 0, 0};
    pace.leak = 1;
    pace.resetMode = ResetMode::Store;
    std::vector<PopId> pops;
    for (uint32_t i = 0; i < kPops; ++i) {
        pace.threshold = threshold(i);
        pops.push_back(ring.net.addPopulation(
            "ring" + std::to_string(i), kPopSize, pace));
    }
    for (uint32_t i = 0; i < kPops; ++i) {
        if (!isOutput[i]) {
            ring.net.connectOneToOne(pops[i], pops[(i + 1) % kPops], 0,
                                     1);
            continue;
        }
        for (uint32_t n = first; n < kPopSize; n += kOutputEvery) {
            ring.net.markOutput({pops[i], n});
            ring.lineThreshold.push_back(
                static_cast<uint32_t>(threshold(i)));
        }
    }
    return ring;
}

BoardParams
boardParams(const CompiledModel &m,
            std::shared_ptr<const TrafficProfile> routes,
            uint32_t coalesce)
{
    BoardParams bp;
    bp.width = kBoard;
    bp.height = kBoard;
    bp.chip.width = m.gridWidth / kBoard;
    bp.chip.height = m.gridHeight / kBoard;
    bp.chip.coreGeom = m.geom;
    bp.chip.engine = EngineKind::Event;
    bp.link.packetsPerTick = 64;
    bp.link.queueCapacity = 512;
    bp.link.coalesce = coalesce;
    bp.trafficProfile = std::move(routes);
    return bp;
}

struct Deployed
{
    CompiledModel model;
    std::shared_ptr<TrafficProfile> profile;
    std::unique_ptr<Simulator> sim;
};

/** Set-up: compile, trace, recompile from the profile, build. */
Deployed
deploy(const Network &net, Tracer *tr)
{
    CompileOptions opt;
    opt.gridWidth = kGridW;
    opt.gridHeight = kGridH;
    opt.boardWidth = kBoard;
    opt.boardHeight = kBoard;
    opt.placement = PlacementPolicy::Anneal;
    CompiledModel base;
    {
        Tracer::Scope s(tr, "prog", "compile");
        base = compile(net, opt);
    }
    Deployed d;
    {
        Tracer::Scope s(tr, "prog", "traceRun");
        BoardParams bp = boardParams(base, nullptr, 0);
        bp.traceTraffic = true;
        Simulator traced(bp, base.cores);
        traced.run(kTraceTicks);
        d.profile = std::make_shared<TrafficProfile>(
            traced.board().trafficProfile());
    }
    opt.trafficProfile = d.profile;
    {
        Tracer::Scope s(tr, "prog", "compile(profile)");
        d.model = compile(net, opt);
    }
    Tracer::Scope s(tr, "chip", "Simulator");
    d.sim = std::make_unique<Simulator>(
        boardParams(d.model, d.profile, kCoalesce), d.model.cores);
    return d;
}

/** Build another board of the same deployment (restore target). */
std::unique_ptr<Simulator>
rebuild(const Deployed &d)
{
    return std::make_unique<Simulator>(
        boardParams(d.model, d.profile, kCoalesce), d.model.cores);
}

/**
 * Each segment's output, sops and spike count against ReferenceSim's
 * on the same model, and each output line's count against the
 * pacemaker closed form.  The ring's weight-0 synapses leave the
 * output unchanged whatever the links deliver, so the sops comparison
 * is what catches a lost, misrouted or extra chip-to-chip delivery.
 */
void
checkOutputs(const Ring &ring, const CompiledModel &m,
             const std::vector<Segment> &segs, Result &r)
{
    checkAgainstReference(m, nullptr, segs, "board", r);

    // A pacemaker with leak 1, threshold T and reset to 0 fires on
    // ticks T-1, 2T-1, ...: floor(ticks / T) times.
    for (const Segment &s : segs) {
        const std::vector<uint64_t> &count = s.log.lineCount;
        bool ok = count.size() == ring.lineThreshold.size();
        for (size_t line = 0; ok && line < count.size(); ++line)
            ok = count[line] == s.ticks / ring.lineThreshold[line];
        r.check(ok, "pacemaker spike counts differ from floor(ticks / T)");
        r.check(s.linkDrops == 0, "board-ring dropped link packets");
    }
}

} // namespace

void
runBoardRing(const Options &opt, Result &r)
{
    const Ring ring = makeRing(opt.seed);

    EndToEnd e;
    std::vector<Segment> segs;
    Deployed d;
    std::unique_ptr<Simulator> last, restored;
    Loop loop;
    loop.setup = [&]() -> Simulator & {
        restored = std::move(last);
        d = deploy(ring.net, nullptr);
        last = std::move(d.sim);
        return *last;
    };
    loop.call = [&] { last->run(1); };
    loop.consume = [&](Segment &s) { s.log.drain(*last); };
    loop.warmupCalls = kWarmupTicks;
    runSegments(kSetupReps, opt.seconds, loop, e, segs, r);
    e.peakRssMb = peakRssMb();
    deviceFacts(*last, r);
    continueBoth(*last, *restored, r);
    last.reset();
    restored.reset();
    checkOutputs(ring, d.model, segs, r);

    if (!opt.trace) {
        e.emit(r);
        return;
    }

    const Segment &seg = segs.back();
    Tracer tr;
    Layers l;
    d = deploy(ring.net, &tr);
    const TracedTicks t = runTraced(*d.sim, seg.ticks, tr);
    r.ops(seg.ticks);
    r.check(t.log.samePrefix(seg.log, seg.ticks),
            "traced run output differs from the timed run's");
    deviceLayers(*d.sim, seg.ticks, l);
    l.interChipDests = static_cast<double>(d.model.stats.interChipDests);
    l.placementCost = d.model.stats.placementCost;
    const auto n = static_cast<double>(seg.ticks);
    l.outputSpikes = static_cast<double>(seg.log.spikes) / n;
    l.inputSpikes = static_cast<double>(t.inputSpikes) / n;
    l.overheadShare = t.busyS / seg.busyS - 1.0;
    {
        auto fresh = rebuild(d);
        tracedSnapshot(*d.sim, *fresh, tr, r);
    }
    spanLayerTimes(tr, seg.ticks, 0, l);
    finishTrace(tr, opt, r);
    l.emit(r);
}

} // namespace perfbench
