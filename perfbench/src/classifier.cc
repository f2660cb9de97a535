/**
 * @file
 * classifier-b8: the 8x8 10-class digits task, trained, quantised
 * and deployed with 8 instance lanes and a 64-tick window.  One
 * client issues back-to-back classifyBatch calls of 8 requests drawn
 * cyclically from the held-out split: serving through instance lanes,
 * the rate-code ScheduleSource and the recorder on tiny
 * scalar-integrated cores, where per-pass overhead dominates.
 */

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/classifier.hh"
#include "apps/dataset.hh"
#include "apps/trainer.hh"
#include "device.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "workloads.hh"

using namespace nscs;

namespace perfbench {

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 10;
constexpr uint32_t kLanes = 8;
constexpr uint64_t kWarmupBatches = 4;
/** Batches both deployments serve after a restore. */
constexpr uint64_t kContinueBatches = 4;

ClassifierOptions
options(uint32_t lanes)
{
    ClassifierOptions opt;
    opt.window = 64;
    opt.instances = lanes;
    return opt;
}

/** Set-up: train, quantise and deploy. */
std::unique_ptr<SpikingClassifier>
deploy(const Dataset &train, Tracer *tr, QuantizedModel *qmOut)
{
    LinearModel lm;
    {
        Tracer::Scope s(tr, "apps", "trainPerceptron");
        lm = trainPerceptron(train, 12, 7);
    }
    QuantizedModel qm;
    {
        Tracer::Scope s(tr, "apps", "quantize");
        qm = quantize(lm);
    }
    Tracer::Scope s(tr, "apps", "SpikingClassifier");
    auto clf = std::make_unique<SpikingClassifier>(qm, options(kLanes));
    if (qmOut)
        *qmOut = qm;
    return clf;
}

/**
 * The request stream: cycles over the held-out split, each cycle
 * serving every sample once in an order shuffled from the seed and the
 * cycle number.  Reshuffling per cycle makes every batch a different
 * mix of samples; with one fixed order the split's 80 samples would
 * form the same 10 batches over and over, and the batch-time median
 * would jump between those 10 costs from seed to seed.
 */
class Requests
{
  public:
    Requests(const Dataset &test, uint64_t seed)
        : test_(test), seed_(seed)
    {
    }

    size_t index(uint64_t batch, uint32_t lane)
    {
        const uint64_t k = batch * kLanes + lane;
        const uint64_t n = test_.samples.size();
        if (order_.empty() || cycle_ != k / n) {
            cycle_ = k / n;
            Xoshiro256 rng(seed_ * 0x9E3779B97F4A7C15ull + cycle_);
            order_.resize(n);
            for (size_t i = 0; i < n; ++i) {
                order_[i] = i;
                std::swap(order_[i], order_[rng.below(i + 1)]);
            }
        }
        return order_[k % n];
    }

    const std::vector<Sample> &batch(uint64_t b)
    {
        batch_.clear();
        for (uint32_t i = 0; i < kLanes; ++i)
            batch_.push_back(test_.samples[index(b, i)]);
        return batch_;
    }

  private:
    const Dataset &test_;
    uint64_t seed_;
    uint64_t cycle_ = 0;
    std::vector<size_t> order_;
    std::vector<Sample> batch_;
};

/** What the traced replay served. */
struct Served
{
    std::vector<uint32_t> preds;  //!< kLanes per batch
    double busyS = 0;             //!< time after the warm-up batches
    uint64_t ticks = 0;
    uint64_t inputSpikes = 0, outputSpikes = 0;
};

/** Serve batches [@p first, @p first + @p batches) on @p clf, each
 *  call in a span. */
Served
serveTraced(SpikingClassifier &clf, Requests &req, uint64_t first,
            uint64_t batches, Tracer &tr)
{
    Served out;
    const uint64_t tick0 = clf.simulator().now();
    for (uint64_t k = 0; k < batches; ++k) {
        const std::vector<Sample> &batch = req.batch(first + k);
        const auto t0 = Clock::now();
        std::vector<uint32_t> p;
        {
            Tracer::Scope s(&tr, "apps", "classifyBatch",
                            static_cast<int64_t>(first + k));
            p = clf.classifyBatch(batch);
        }
        if (k >= kWarmupBatches)
            out.busyS += seconds(t0, Clock::now());
        out.preds.insert(out.preds.end(), p.begin(), p.end());
        out.inputSpikes += clf.lastStats().inputSpikes;
        out.outputSpikes += clf.lastStats().outputSpikes;
    }
    out.ticks = clf.simulator().now() - tick0;
    return out;
}

/** Lane-ticks whose scheduler slot carried input, over all lane-ticks. */
double
laneActiveShare(const Chip &chip)
{
    uint64_t active = 0, laneTicks = 0;
    for (uint32_t c = 0; c < chip.numCores(); ++c) {
        const CoreCounters &k = chip.core(c).counters();
        active += k.laneSlotsActive;
        laneTicks += k.ticksRun * chip.instances();
    }
    return laneTicks == 0 ? 0.0
        : static_cast<double>(active) / static_cast<double>(laneTicks);
}

} // namespace

void
runClassifier(const Options &opt, Result &r)
{
    // The digits task bench_classifier uses; the seed orders requests.
    const Dataset data = makeGaussianDigits(10, 8, 40, 0.06, 101);
    Dataset train, test;
    data.split(5, train, test);
    Requests req(test, opt.seed);

    // As in the tick workloads: every set-up is followed by a closed
    // loop on the deployment it made, the request stream continuing.
    EndToEnd e;
    std::vector<Segment> segs;
    std::unique_ptr<SpikingClassifier> clf, prev;
    QuantizedModel qm;
    std::vector<uint32_t> preds;       //!< every batch, in order
    std::vector<uint32_t> served;      //!< the last call's
    const std::vector<Sample> *next;   //!< the next call's requests
    uint64_t outputSpikes = 0;         //!< of the last segment
    Loop loop;
    loop.setup = [&]() -> Simulator & {
        prev = std::move(clf);
        clf = deploy(train, nullptr, &qm);
        next = &req.batch(preds.size() / kLanes);
        outputSpikes = 0;
        return clf->simulator();
    };
    loop.call = [&] { served = clf->classifyBatch(*next); };
    loop.consume = [&](Segment &) {
        preds.insert(preds.end(), served.begin(), served.end());
        outputSpikes += clf->lastStats().outputSpikes;
        next = &req.batch(preds.size() / kLanes);
    };
    loop.warmupCalls = kWarmupBatches;
    loop.requestsPerCall = kLanes;
    runSegments(kSetupReps, opt.seconds, loop, e, segs, r);
    const uint64_t batches = preds.size() / kLanes;
    e.peakRssMb = peakRssMb();
    deviceFacts(clf->simulator(), r);

    prev.reset();

    // A new deployment restored from the serving one's snapshot must
    // serve the next batches exactly as the serving one does.
    {
        auto fresh = std::make_unique<SpikingClassifier>(
            qm, options(kLanes));
        JsonParseResult parsed =
            parseJson(clf->simulator().snapshot().dump());
        r.check(parsed.ok && fresh->simulator().restore(parsed.value),
                "classifier snapshot restore");
        bool same = true;
        for (uint64_t b = 0; b < kContinueBatches; ++b) {
            const std::vector<Sample> &batch = req.batch(batches + b);
            same &= clf->classifyBatch(batch) ==
                        fresh->classifyBatch(batch) &&
                    clf->simulator().recorder().spikes() ==
                        fresh->simulator().recorder().spikes();
        }
        r.ops(2 * kContinueBatches * kLanes);
        r.check(same, "classifier output after restore differs");
    }

    // Every batched prediction equals a single-lane classify() of the
    // sample on a separate deployment.
    SpikingClassifier single(qm, options(1));
    std::vector<uint32_t> expect(test.samples.size());
    uint32_t correct = 0;
    for (size_t i = 0; i < test.samples.size(); ++i) {
        expect[i] = single.classify(test.samples[i]);
        correct += expect[i] == test.samples[i].label;
    }
    for (uint64_t b = 0; b < batches; ++b)
        for (uint32_t i = 0; i < kLanes; ++i)
            if (preds[b * kLanes + i] != expect[req.index(b, i)])
                r.fail("batched prediction differs from single-lane "
                       "classify()");
    char acc[96];
    std::snprintf(acc, sizeof(acc),
                  "{\"chip\": %.4f, \"host_quantised\": %.4f}",
                  static_cast<double>(correct) /
                      static_cast<double>(test.samples.size()),
                  quantizedAccuracy(qm, test));
    r.fact("accuracy", acc);

    if (!opt.trace) {
        e.emit(r);
        return;
    }

    // Replay the last segment's batches traced on a new deployment.
    const Segment &seg = segs.back();
    const uint64_t first = batches - seg.calls;
    Tracer tr;
    Layers l;
    clf = deploy(train, &tr, nullptr);
    const Served traced = serveTraced(*clf, req, first, seg.calls, tr);
    r.ops(traced.preds.size());
    r.check(std::equal(traced.preds.begin(), traced.preds.end(),
                       preds.begin() + static_cast<std::ptrdiff_t>(
                                           first * kLanes)) &&
                traced.outputSpikes == outputSpikes,
            "traced run output differs from the timed run's");
    const Simulator &sim = clf->simulator();
    deviceLayers(sim, traced.ticks, l);
    const auto n = static_cast<double>(traced.ticks);
    l.inputSpikes = static_cast<double>(traced.inputSpikes) / n;
    l.outputSpikes = static_cast<double>(traced.outputSpikes) / n;
    l.laneActiveShare = laneActiveShare(sim.chip());
    l.ticksPerRequest = n / static_cast<double>(traced.preds.size());
    l.overheadShare = traced.busyS / seg.busyS - 1.0;
    {
        auto fresh = std::make_unique<SpikingClassifier>(
            qm, options(kLanes));
        tracedSnapshot(clf->simulator(), fresh->simulator(), tr, r);
    }
    spanLayerTimes(tr, traced.ticks, seg.calls, l);
    finishTrace(tr, opt, r);
    l.emit(r);
}

} // namespace perfbench
