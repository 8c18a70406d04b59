// The parallel engine's contract: under TimingModel::Simulated,
// workers=1 (exact legacy serial path) and workers=N produce identical
// per-frame byte/delivery/drop sequences for every registered channel
// kind, identical Chamfer samples, and identical aggregates. Multi-user
// runs use the shared-uplink conference topology.
#include <gtest/gtest.h>

#include <memory>

#include "shared_uplink.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// Cheap parameterisations so every kind runs in test time.
ChannelSpec cheapSpec(const std::string& kind) {
    ChannelSpec spec{kind, {}};
    if (kind == "keypoint" || kind == "text")
        spec.params = {{"reconResolution", 12}};
    else if (kind == "foveated")
        spec.params = {{"peripheralResolution", 12}};
    else if (kind == "image")
        spec.params = {{"viewCount", 1},    {"imageWidth", 8},
                       {"imageHeight", 6},  {"pretrainSteps", 2},
                       {"fineTuneSteps", 1}};
    else if (kind == "vector")
        spec.params = {{"latentDim", 8}, {"trainingFrames", 10}};
    return spec;
}

SessionConfig deterministicConfig(std::size_t frames) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.timing = TimingModel::Simulated;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.lossRate = 0.02;  // exercise the loss/retransmission path
    return cfg;
}

void expectIdenticalFrames(const SessionStats& a, const SessionStats& b,
                           const std::string& label) {
    ASSERT_EQ(a.frames.size(), b.frames.size()) << label;
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        SCOPED_TRACE(label + " frame " + std::to_string(f));
        EXPECT_EQ(a.frames[f].frameId, b.frames[f].frameId);
        EXPECT_EQ(a.frames[f].bytes, b.frames[f].bytes);
        EXPECT_EQ(a.frames[f].delivered, b.frames[f].delivered);
        EXPECT_EQ(a.frames[f].decoded, b.frames[f].decoded);
        EXPECT_EQ(a.frames[f].droppedAtSender, b.frames[f].droppedAtSender);
        EXPECT_EQ(a.frames[f].droppedAtReceiver, b.frames[f].droppedAtReceiver);
        EXPECT_DOUBLE_EQ(a.frames[f].transferMs, b.frames[f].transferMs);
        EXPECT_DOUBLE_EQ(a.frames[f].e2eMs, b.frames[f].e2eMs);
        if (std::isnan(a.frames[f].chamfer))
            EXPECT_TRUE(std::isnan(b.frames[f].chamfer));
        else
            EXPECT_DOUBLE_EQ(a.frames[f].chamfer, b.frames[f].chamfer);
    }
}

TEST(ParallelSession, MultiUserDeterministicAcrossWorkerCountsAllKinds) {
    for (const std::string& kind : listChannelKinds()) {
        SCOPED_TRACE(kind);
        SessionConfig cfg = deterministicConfig(5);

        MultiSessionStats results[2];
        int slot = 0;
        for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
            // Fresh channels per engine run: identical construction from
            // the same spec, so any divergence is the engine's.
            cfg.workers = workers;
            const auto conf = sharedUplinkConference(cfg, 2, [&kind] {
                return makeChannel(cheapSpec(kind), &sharedModel());
            });
            results[slot++] = runConference(conf, sharedModel());
        }

        ASSERT_EQ(results[0].perUser.size(), results[1].perUser.size());
        for (std::size_t u = 0; u < results[0].perUser.size(); ++u)
            expectIdenticalFrames(results[0].perUser[u], results[1].perUser[u],
                                  kind + " user " + std::to_string(u));
        EXPECT_DOUBLE_EQ(results[0].aggregateMbps, results[1].aggregateMbps);
        EXPECT_DOUBLE_EQ(results[0].telemetry.e2eMs.mean(),
                         results[1].telemetry.e2eMs.mean());
    }
}

TEST(ParallelSession, SingleUserDeterministicWithParallelQualityEval) {
    SessionConfig cfg = deterministicConfig(8);
    cfg.qualityEvalInterval = 2;
    cfg.qualitySamples = 500;

    SessionStats results[2];
    int slot = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        auto channel = makeChannel(cheapSpec("keypoint"));
        cfg.workers = workers;
        results[slot++] = runSession(*channel, sharedModel(), cfg);
    }
    expectIdenticalFrames(results[0], results[1], "single-user keypoint");
    // Both engines evaluated the same frames and agree on the mean.
    EXPECT_FALSE(std::isnan(results[0].meanChamfer));
    EXPECT_DOUBLE_EQ(results[0].meanChamfer, results[1].meanChamfer);
}

TEST(ParallelSession, SenderDropsAreDeterministicUnderSimulatedTiming) {
    // simulatedDetectMs of 50 ms against a 30 FPS capture clock forces
    // every other frame to drop at the sender, independent of wall time.
    SessionConfig cfg = deterministicConfig(8);
    cfg.dropWhenBusy = true;
    ChannelSpec spec{"keypoint",
                     {{"reconResolution", 12}, {"simulatedDetectMs", 50.0}}};

    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        cfg.workers = workers;
        const auto stats = runConference(
            sharedUplinkConference(cfg, 1, [&spec] { return makeChannel(spec); }),
            sharedModel());
        const auto& frames = stats.perUser[0].frames;
        ASSERT_EQ(frames.size(), 8u);
        for (std::size_t f = 0; f < frames.size(); ++f) {
            // 50 ms busy > 33.3 ms frame interval: frames 1, 3, 5, 7 drop.
            EXPECT_EQ(frames[f].droppedAtSender, f % 2 == 1)
                << "workers=" << workers << " frame " << f;
        }
    }
}

TEST(ParallelSession, ChannelResetInvokedBySessionStart) {
    // Text deltas are stateful: the first encode after reset() is a
    // keyframe. Reusing one channel across sessions must re-key, which
    // only happens if the engine calls reset().
    auto channel = makeChannel(cheapSpec("text"));
    SessionConfig cfg = deterministicConfig(3);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        cfg.workers = workers;
        const auto first = runSession(*channel, sharedModel(), cfg);
        const auto second = runSession(*channel, sharedModel(), cfg);
        ASSERT_FALSE(first.frames.empty());
        ASSERT_FALSE(second.frames.empty());
        // Identical sessions byte-for-byte implies state was reset.
        for (std::size_t f = 0; f < first.frames.size(); ++f)
            EXPECT_EQ(first.frames[f].bytes, second.frames[f].bytes)
                << "workers=" << workers << " frame " << f;
    }
}

TEST(ParallelSession, TelemetryPopulatedByBothEngines) {
    SessionConfig cfg = deterministicConfig(6);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        cfg.workers = workers;
        const auto stats = runConference(
            sharedUplinkConference(
                cfg, 2, [] { return makeChannel(cheapSpec("keypoint")); }),
            sharedModel());
        const auto& t = stats.telemetry;
        EXPECT_EQ(t.counters.framesCaptured, 12u) << "workers=" << workers;
        EXPECT_GT(t.counters.packets, 0u);
        EXPECT_GT(t.counters.bytesSent, 0u);
        EXPECT_EQ(t.encodeMs.count(), t.bytesPerFrame.count());
        EXPECT_GT(t.e2eMs.count(), 0u);
        EXPECT_EQ(t.queueDepthBytes.count(), t.encodeMs.count());
        EXPECT_GE(t.encodeMs.p99(), t.encodeMs.p50());
        const std::string json = toJsonValue(t);
        EXPECT_NE(json.find("\"encode_ms\""), std::string::npos);
        EXPECT_NE(json.find("\"p95\""), std::string::npos);
        EXPECT_NE(json.find("\"queue_drops\""), std::string::npos);
    }
}

}  // namespace
}  // namespace semholo::core
