#include "semholo/core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "semholo/core/qoe.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 56};
    return model;
}

SessionConfig fastConfig(std::size_t frames = 20) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.jitterStddevS = 0.0;
    // Tests assert per-frame accounting; live drop behaviour has its own
    // dedicated test below.
    cfg.dropWhenBusy = false;
    return cfg;
}

TEST(Session, KeypointSessionDeliversAllFrames) {
    KeypointChannelOptions opt;
    opt.reconResolution = 24;
    auto channel = makeKeypointChannel(opt);
    const auto stats = runSession(*channel, sharedModel(), fastConfig());
    EXPECT_EQ(stats.frames.size(), 20u);
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 20u);
    EXPECT_EQ(stats.telemetry.counters.framesDecoded, 20u);
    EXPECT_GT(stats.telemetry.bytesPerFrame.mean(), 100.0);
    EXPECT_GT(stats.telemetry.e2eMs.mean(), 0.0);
    EXPECT_GT(stats.achievableFps, 0.0);
}

TEST(Session, KeypointBandwidthMatchesTable2) {
    // Table 2: compressed keypoint stream ~0.30 Mbps at 30 FPS.
    KeypointChannelOptions opt;
    opt.reconResolution = 16;
    auto channel = makeKeypointChannel(opt);
    const auto stats = runSession(*channel, sharedModel(), fastConfig(30));
    EXPECT_LT(stats.bandwidthMbps, 0.5);
    EXPECT_GT(stats.bandwidthMbps, 0.1);
}

TEST(Session, TraditionalBandwidthMatchesTable2) {
    // Raw mesh ~95 Mbps at 30 FPS (we accept the same order of magnitude).
    TraditionalOptions opt;
    opt.compress = false;
    auto channel = makeTraditionalChannel(opt);
    SessionConfig cfg = fastConfig(10);
    cfg.link.bandwidth = net::BandwidthTrace::constant(1e9);  // uncongested
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_GT(stats.bandwidthMbps, 40.0);
}

TEST(Session, QualityEvaluationSampled) {
    KeypointChannelOptions opt;
    opt.reconResolution = 32;
    auto channel = makeKeypointChannel(opt);
    SessionConfig cfg = fastConfig(10);
    cfg.qualityEvalInterval = 5;
    cfg.qualitySamples = 2000;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_FALSE(std::isnan(stats.meanChamfer));
    EXPECT_GT(stats.meanChamfer, 0.0);
    EXPECT_LT(stats.meanChamfer, 0.1);
    std::size_t evaluated = 0;
    for (const auto& f : stats.frames)
        if (!std::isnan(f.chamfer)) ++evaluated;
    EXPECT_EQ(evaluated, 2u);
}

TEST(Session, NarrowLinkStallsTraditionalNotKeypoint) {
    SessionConfig cfg = fastConfig(15);
    cfg.link.bandwidth = net::BandwidthTrace::constant(5e6);  // 5 Mbps

    auto keypoint = makeKeypointChannel({.reconResolution = 16});
    const auto kp = runSession(*keypoint, sharedModel(), cfg);
    auto traditional = makeTraditionalChannel({false, false});
    const auto trad = runSession(*traditional, sharedModel(), cfg);

    EXPECT_LT(kp.telemetry.transferMs.mean(), 50.0);
    EXPECT_EQ(kp.telemetry.counters.framesDelivered, 15u);
    // Raw mesh frames (~400 KB) overflow the 256 KB bottleneck queue
    // within a single message: none of them survive the narrow link.
    EXPECT_EQ(trad.telemetry.counters.framesDelivered, 0u);
    EXPECT_GT(trad.telemetry.counters.queueDrops, 0u);
}

TEST(Session, LossyLinkStillDeliversWithArq) {
    SessionConfig cfg = fastConfig(15);
    cfg.link.lossRate = 0.05;
    auto channel = makeKeypointChannel({.reconResolution = 16});
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 15u);
}

TEST(Session, DropWhenBusySkipsFramesForSlowStages) {
    // A channel whose reconstruction is far slower than the frame
    // interval must shed frames in live mode — the paper's <1 FPS
    // reconstruction cannot keep up with a 30 FPS capture. A 90 ms
    // simulated reconstruction at a 33.3 ms frame interval is busy for
    // the next two arrivals, so every third frame is decoded, at any
    // worker count.
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        auto channel =
            makeSyntheticChannel({.simulatedReconMs = 90, .rateAdaptive = false});
        SessionConfig cfg = fastConfig(12);
        cfg.fps = 30.0;
        cfg.timing = TimingModel::Simulated;
        cfg.dropWhenBusy = true;
        cfg.workers = workers;
        const auto stats = runSession(*channel, sharedModel(), cfg);
        ASSERT_EQ(stats.frames.size(), 12u);
        std::vector<std::uint32_t> decoded;
        for (const auto& f : stats.frames)
            if (f.decoded) decoded.push_back(f.frameId);
        EXPECT_EQ(decoded, (std::vector<std::uint32_t>{0, 3, 6, 9}));
        EXPECT_EQ(stats.telemetry.counters.framesDecoded, 4u);
        EXPECT_EQ(stats.telemetry.counters.dropsAtReceiver, 8u);
        EXPECT_EQ(stats.telemetry.counters.dropsAtSender, 0u);
        // Processed frames still have bounded end-to-end latency.
        for (const auto& f : stats.frames) {
            if (!f.decoded) continue;
            EXPECT_LT(f.e2eMs, 3000.0);
        }
    }
}

TEST(Session, AchievableFpsAveragesDecodedFramesOnly) {
    // achievableFps is 1000 / mean(max(extract, recon)) over the decoded
    // frames. Frames lost on the link never reconstructed, so their
    // extract-only cost must not enter the mean: with a 5 ms simulated
    // reconstruction every decoded frame costs 5 ms plus the wall time the
    // engine measured, whatever the loss.
    auto channel = makeSyntheticChannel({.payloadBytes = 20000,
                                         .simulatedExtractMs = 2,
                                         .simulatedReconMs = 5,
                                         .rateAdaptive = false});
    SessionConfig cfg = fastConfig(300);
    cfg.timing = TimingModel::Simulated;
    cfg.workers = 1;
    cfg.link.lossRate = 0.05;
    cfg.transfer.reliable = false;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    const auto& counters = stats.telemetry.counters;
    // Loss must leave frames undecoded for the mean to be at stake.
    ASSERT_GT(counters.framesDecoded, 0u);
    ASSERT_LT(counters.framesDecoded, 300u);
    EXPECT_EQ(counters.framesDecoded, 137u);
    double decodedStageMs = 0.0;
    for (const FrameStats& f : stats.frames)
        if (f.decoded) decodedStageMs += std::max(f.extractMs, f.reconMs);
    EXPECT_DOUBLE_EQ(stats.achievableFps, 1000.0 * 137.0 / decodedStageMs);
    EXPECT_LE(stats.achievableFps, 200.0);
}

TEST(Session, QueueingModeProcessesEveryFrame) {
    TextChannelOptions opt;
    opt.reconResolution = 32;
    opt.reconstructMesh = false;
    auto channel = makeTextChannel(opt);
    SessionConfig cfg = fastConfig(8);
    cfg.dropWhenBusy = false;
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_EQ(stats.telemetry.counters.dropsAtSender, 0u);
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 8u);
}

// A link that is down for the whole session (full-run outage): every
// frame is captured, encoded and sent, none is delivered or decoded.
SessionStats fullRunOutageSession() {
    SessionConfig cfg = fastConfig(12);
    cfg.transfer.reliable = false;  // no ARQ riding out the outage
    cfg.link.lossRate = 1.0;        // link down for the whole run
    auto channel = makeKeypointChannel({.reconResolution = 16});
    return runSession(*channel, sharedModel(), cfg);
}

TEST(Session, FullRunOutageReportsNoData) {
    // Figures over no samples are NaN ("no data"), never a zero that
    // reads as a result, a division by zero or an infinity.
    const auto stats = fullRunOutageSession();

    EXPECT_EQ(stats.frames.size(), 12u);
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 0u);
    EXPECT_EQ(stats.telemetry.counters.framesDecoded, 0u);
    // Sender-side aggregates still exist (frames were encoded and sent)…
    EXPECT_GT(stats.telemetry.bytesPerFrame.mean(), 0.0);
    EXPECT_GT(stats.bandwidthMbps, 0.0);
    // …receiver-side aggregates have no samples: NaN.
    EXPECT_TRUE(std::isnan(stats.telemetry.e2eMs.mean()));
    EXPECT_TRUE(std::isnan(stats.telemetry.e2eMs.p95()));
    EXPECT_TRUE(std::isnan(stats.telemetry.decodeMs.mean()));
    EXPECT_TRUE(std::isnan(stats.achievableFps));
    // Quality was never evaluated.
    EXPECT_TRUE(std::isnan(stats.meanChamfer));
    EXPECT_FALSE(std::isinf(stats.telemetry.transferMs.mean()));
    EXPECT_EQ(stats.telemetry.counters.framesDelivered, 0u);
    EXPECT_EQ(stats.telemetry.counters.packetsDelivered, 0u);
    EXPECT_EQ(stats.telemetry.counters.packets,
              stats.telemetry.counters.packetsUnrecovered);
}

TEST(Session, ZeroFrameSessionReportsNoData) {
    // frames == 0 exercises the sent == 0 and zero-span branches.
    SessionConfig cfg = fastConfig(0);
    auto channel = makeKeypointChannel({.reconResolution = 16});
    const auto stats = runSession(*channel, sharedModel(), cfg);
    EXPECT_TRUE(stats.frames.empty());
    EXPECT_TRUE(std::isnan(stats.telemetry.bytesPerFrame.mean()));
    EXPECT_EQ(stats.bandwidthMbps, 0.0);
    EXPECT_TRUE(std::isnan(stats.telemetry.e2eMs.mean()));
    EXPECT_TRUE(std::isnan(stats.achievableFps));
    EXPECT_TRUE(std::isnan(stats.meanChamfer));
}

// ---- Stage timing: the engine times every channel call ---------------------

// 2 ms simulated extraction and 3 ms simulated reconstruction.
const SyntheticChannelOptions kWaitingCosts{.payloadBytes = 2000,
                                            .simulatedExtractMs = 2,
                                            .simulatedReconMs = 3,
                                            .rateAdaptive = false};

// Waits 'wait' of wall time in every encode and decode, around a synthetic
// channel with kWaitingCosts. With 'decodeValid' false, decode returns an
// invalid frame with no simulated cost, as a channel does on a corrupt
// payload.
class WaitingChannel final : public SemanticChannel {
public:
    explicit WaitingChannel(std::chrono::milliseconds wait, bool decodeValid = true)
        : wait_(wait), decodeValid_(decodeValid) {}

    std::string name() const override { return "waiting"; }
    EncodedFrame encode(const FrameContext& frame) override {
        std::this_thread::sleep_for(wait_);
        return inner_->encode(frame);
    }
    DecodedFrame decode(const EncodedFrame& encoded) override {
        std::this_thread::sleep_for(wait_);
        if (!decodeValid_) return {};
        return inner_->decode(encoded);
    }
    void reset() override { inner_->reset(); }

private:
    std::chrono::milliseconds wait_;
    bool decodeValid_;
    std::unique_ptr<SemanticChannel> inner_ = makeSyntheticChannel(kWaitingCosts);
};

constexpr std::chrono::milliseconds kWait{5};

TEST(Session, EngineTimesWholeChannelCalls) {
    // A frame's extractMs / reconMs is the engine's wall time of the whole
    // channel call plus the simulated cost, under either timing model.
    // Lower bounds only: a loaded host can only add wall time.
    for (const TimingModel timing : {TimingModel::Measured, TimingModel::Simulated}) {
        SCOPED_TRACE(timing == TimingModel::Measured ? "measured" : "simulated");
        WaitingChannel channel(kWait);
        SessionConfig cfg = fastConfig(6);
        cfg.timing = timing;
        const auto stats = runSession(channel, sharedModel(), cfg);
        ASSERT_EQ(stats.frames.size(), 6u);
        for (const FrameStats& f : stats.frames) {
            ASSERT_TRUE(f.decoded);
            EXPECT_GE(f.extractMs, 7.0);
            EXPECT_GE(f.reconMs, 8.0);
        }
    }
}

TEST(Session, EngineTimesInvalidDecodes) {
    // A decode that fails still spent its time: the frame is charged it.
    WaitingChannel channel(kWait, /*decodeValid=*/false);
    const auto stats = runSession(channel, sharedModel(), fastConfig(4));
    ASSERT_EQ(stats.frames.size(), 4u);
    for (const FrameStats& f : stats.frames) {
        ASSERT_TRUE(f.delivered);
        EXPECT_FALSE(f.decoded);
        EXPECT_GE(f.reconMs, 5.0);
    }
}

TEST(Session, SimulatedScheduleIgnoresWallTime) {
    // Under TimingModel::Simulated wall time is reported, never charged: a
    // channel that waits 5 ms per call runs the schedule of one that does
    // not wait.
    SessionConfig cfg = fastConfig(6);
    cfg.timing = TimingModel::Simulated;
    WaitingChannel waiting(kWait);
    WaitingChannel instant(std::chrono::milliseconds{0});
    const auto slow = runSession(waiting, sharedModel(), cfg);
    const auto fast = runSession(instant, sharedModel(), cfg);
    ASSERT_EQ(slow.frames.size(), 6u);
    ASSERT_EQ(fast.frames.size(), 6u);
    for (std::size_t i = 0; i < slow.frames.size(); ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        EXPECT_EQ(slow.frames[i].bytes, fast.frames[i].bytes);
        EXPECT_EQ(slow.frames[i].delivered, fast.frames[i].delivered);
        EXPECT_EQ(slow.frames[i].transferMs, fast.frames[i].transferMs);
        EXPECT_EQ(slow.frames[i].e2eMs, fast.frames[i].e2eMs);
    }
}

// ---- Pinned output of the single-user engine -------------------------------
//
// runSession once had its own serial and parallel loops; it now runs the
// stage-graph engine as a one-participant conference. These digests were
// recorded from the dedicated single-user loops on a lossy link with an
// outage, a bandwidth collapse and degradation on, so any drift of the
// one-participant schedule from the engine it replaced fails here, at
// every worker count.

const body::BodyModel& cheapModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

ChannelSpec cheapSpec(const std::string& kind) {
    ChannelSpec spec{kind, {}};
    if (kind == "keypoint" || kind == "text")
        spec.params = {{"reconResolution", 12}};
    else if (kind == "foveated")
        spec.params = {{"peripheralResolution", 12}};
    else if (kind == "vector")
        spec.params = {{"latentDim", 8}, {"trainingFrames", 10}};
    return spec;
}

SessionConfig stressConfig() {
    SessionConfig cfg;
    cfg.frames = 15;
    cfg.timing = TimingModel::Simulated;
    cfg.link.bandwidth = net::BandwidthTrace::constant(3e6);
    cfg.link.propagationDelayS = 0.01;
    cfg.link.lossRate = 0.02;
    cfg.link.queueCapacityBytes = 64 * 1024;
    cfg.link.faults.outages.push_back({0.1, 0.08});
    cfg.link.faults.collapses.push_back({0.25, 0.1, 0.1});
    cfg.degradation.enabled = true;
    cfg.degradation.maxLevel = 3;
    cfg.degradation.downgradeAfter = 2;
    cfg.degradation.upgradeAfter = 4;
    cfg.qualityEvalInterval = 3;
    cfg.qualitySamples = 500;
    return cfg;
}

struct Fnv1a {
    std::uint64_t h{0xcbf29ce484222325ull};
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0x7ff8000000000000ull;  // one bit pattern for NaN
        if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

std::uint64_t frameDigest(const SessionStats& s) {
    Fnv1a d;
    for (const FrameStats& f : s.frames) {
        d.add(std::uint64_t{f.frameId});
        d.add(std::uint64_t{f.bytes});
        d.add(std::uint64_t{f.delivered} | std::uint64_t{f.decoded} << 1 |
              std::uint64_t{f.droppedAtSender} << 2 |
              std::uint64_t{f.droppedAtReceiver} << 3);
        d.add(f.transferMs);
        d.add(f.e2eMs);
        d.add(f.chamfer);
    }
    return d.h;
}

struct PinnedSession {
    const char* kind;
    std::uint64_t frameDigest;
    // packets, lost, delivered, unrecovered, retransmissions, queueDrops,
    // bytesSent, faultEvents, degradations, upgrades.
    std::array<std::uint64_t, 10> link;
    // blocksSkipped, bonesPruned, nodesEvaluated, certTests, activeCells.
    std::array<std::uint64_t, 5> recon;
};

constexpr PinnedSession kPinned[] = {
    {"adaptive-mesh", 0x1b1147e8c162643bull,
     {60, 0, 60, 0, 0, 0, 67012, 2, 2, 1}, {0, 0, 0, 0, 0}},
    {"foveated", 0x99630c7c63299fe3ull,
     {90, 1, 90, 0, 1, 0, 117653, 2, 3, 0}, {574, 1075338, 23070, 1095, 3138}},
    {"keypoint", 0x8b12c4fc7f85370cull,
     {15, 1, 15, 0, 1, 0, 12431, 2, 0, 0}, {574, 1075338, 23070, 1095, 3138}},
    {"synthetic", 0x83bf95c8368a2a14ull,
     {28, 1, 28, 0, 1, 0, 33924, 2, 1, 1}, {0, 0, 0, 0, 0}},
    {"text", 0xd68bc3a1b21e4abeull,
     {2, 0, 2, 0, 0, 0, 337, 0, 0, 0}, {38, 70512, 1510, 73, 214}},
    {"traditional", 0x087d93f4c4aae7efull,
     {150, 1, 150, 0, 264, 261, 206716, 2, 3, 0}, {0, 0, 0, 0, 0}},
    {"vector", 0x45fd4367bc18f508ull,
     {15, 2, 15, 0, 2, 0, 270, 2, 1, 1}, {0, 0, 0, 0, 0}},
};

TEST(Session, OutputMatchesPinnedSingleUserEngineDigests) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        for (const PinnedSession& pin : kPinned) {
            SCOPED_TRACE(std::string(pin.kind) +
                         " workers=" + std::to_string(workers));
            auto channel = makeChannel(cheapSpec(pin.kind), &cheapModel());
            SessionConfig cfg = stressConfig();
            cfg.workers = workers;
            const auto stats = runSession(*channel, cheapModel(), cfg);
            ASSERT_EQ(stats.frames.size(), cfg.frames);
            EXPECT_EQ(frameDigest(stats), pin.frameDigest);
            const telemetry::Counters& c = stats.telemetry.counters;
            const std::array<std::uint64_t, 10> link{
                c.packets,      c.packetsLost,        c.packetsDelivered,
                c.packetsUnrecovered, c.retransmissions, c.queueDrops,
                c.bytesSent,    c.faultEvents,        c.degradations,
                c.upgrades};
            EXPECT_EQ(link, pin.link);
            const std::array<std::uint64_t, 5> recon{
                c.recon.blocksSkipped, c.recon.bonesPruned,
                c.recon.nodesEvaluated, c.recon.certTests,
                c.recon.activeCells};
            EXPECT_EQ(recon, pin.recon);
        }
    }
}

// A session of 'captured' frames, 'delivered' of them arriving with
// end-to-end latency 'e2eMs', recorded the way the engine records them.
SessionStats qoeSession(std::size_t captured, std::size_t delivered, double e2eMs,
                        double achievableFps) {
    SessionStats stats;
    stats.frames.resize(captured);
    stats.telemetry.counters.framesCaptured = captured;
    stats.telemetry.counters.framesDelivered = delivered;
    for (std::size_t i = 0; i < delivered; ++i) stats.telemetry.e2eMs.record(e2eMs);
    stats.achievableFps = achievableFps;
    return stats;
}

TEST(QoE, PerfectSessionScoresHigh) {
    SessionStats stats = qoeSession(30, 30, 40.0, 60.0);
    stats.meanChamfer = 0.003;
    const auto qoe = computeQoE(stats);
    EXPECT_GT(qoe.mos, 4.0);
    EXPECT_NEAR(qoe.qualityTerm, 1.0, 1e-6);
    EXPECT_NEAR(qoe.latencyTerm, 1.0, 1e-6);
}

TEST(QoE, LatencyDegradesScore) {
    SessionStats fast = qoeSession(10, 10, 50.0, 30.0);
    SessionStats slow = qoeSession(10, 10, 800.0, 30.0);
    fast.meanChamfer = slow.meanChamfer = 0.01;
    EXPECT_GT(computeQoE(fast).mos, computeQoE(slow).mos + 0.5);
}

TEST(QoE, LowFpsPenalized) {
    SessionStats smooth = qoeSession(10, 10, 50.0, 30.0);
    // The paper's <1 FPS reconstruction.
    SessionStats choppy = qoeSession(10, 10, 50.0, 1.0);
    smooth.meanChamfer = choppy.meanChamfer = 0.01;
    EXPECT_GT(computeQoE(smooth).mos, computeQoE(choppy).mos);
}

TEST(QoE, UndeliveredFramesCollapseScore) {
    const SessionStats stats = qoeSession(10, 0, 50.0, 30.0);
    EXPECT_DOUBLE_EQ(computeQoE(stats).mos, 0.0);
}

TEST(QoE, FullRunOutageScoresZero) {
    // A real session with no delivered or decoded frame: its latency,
    // FPS and Chamfer figures are all "no data", and the score is 0,
    // not NaN.
    const auto qoe = computeQoE(fullRunOutageSession());
    EXPECT_EQ(qoe.mos, 0.0);
    EXPECT_EQ(qoe.latencyTerm, 0.0);
    EXPECT_EQ(qoe.fpsTerm, 0.0);
    EXPECT_EQ(qoe.deliveryTerm, 0.0);
}

TEST(QoE, NeutralQualityWhenUnevaluated) {
    const SessionStats stats = qoeSession(5, 5, 50.0, 30.0);
    const auto qoe = computeQoE(stats);
    EXPECT_NEAR(qoe.qualityTerm, 0.5, 1e-9);
}

TEST(QoE, DefaultOutputsMatchPinnedDigest) {
    // The fixed QoE model on sessions that cross every branch: Chamfer
    // inside the log band, below "excellent" and above "poor", latency
    // under and over the interactive budget, FPS below and above target,
    // full and partial delivery. Recorded before the model's parameters
    // became constants.
    struct Case {
        std::size_t captured, delivered;
        double e2eMs, fps, chamfer;
        std::array<double, 5> terms;  // quality, latency, fps, delivery, mos
    };
    const std::array<Case, 3> cases{{
        {30, 24, 180.0, 21.0, 0.012,
         {0x1.214bd08573482p-1, 0x1.61c50ae161fd5p-1, 0x1.6666666666666p-1,
          0x1.999999999999ap-1, 0x1.4275800138515p+1}},
        {12, 12, 60.0, 45.0, 0.002, {1.0, 1.0, 1.0, 1.0, 5.0}},
        {10, 7, 400.0, 5.0, 0.09,
         {0.0, 0x1p-2, 0x1.5555555555555p-3, 0x1.6666666666666p-1, 0x1.8444444444445p-2}},
    }};
    for (const Case& c : cases) {
        SessionStats stats = qoeSession(c.captured, c.delivered, c.e2eMs, c.fps);
        stats.meanChamfer = c.chamfer;
        const QoEBreakdown q = computeQoE(stats);
        const std::array<double, 5> terms{q.qualityTerm, q.latencyTerm, q.fpsTerm,
                                          q.deliveryTerm, q.mos};
        for (std::size_t i = 0; i < terms.size(); ++i)
            EXPECT_EQ(terms[i], c.terms[i]) << i << ": " << std::hexfloat << terms[i];
    }
}

}  // namespace
}  // namespace semholo::core
