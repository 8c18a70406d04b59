// Multi-user sessions on the shared-uplink conference topology:
// aggregate bandwidth, per-user motion seeds, and congestion of the
// shared bottleneck.
#include <gtest/gtest.h>

#include <memory>

#include "shared_uplink.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 40};
    return model;
}

SessionConfig baseConfig(std::size_t frames = 10) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.jitterStddevS = 0.0;
    cfg.dropWhenBusy = false;
    return cfg;
}

MultiSessionStats runKeypointFleet(std::size_t n, const SessionConfig& cfg = baseConfig()) {
    const auto conf = sharedUplinkConference(cfg, n, [] {
        KeypointChannelOptions opt;
        opt.reconResolution = 16;
        return makeKeypointChannel(opt);
    });
    return runConference(conf, sharedModel());
}

TEST(MultiUser, EmptyChannelListSafe) {
    const auto stats = runKeypointFleet(0);
    EXPECT_TRUE(stats.perUser.empty());
    EXPECT_DOUBLE_EQ(stats.aggregateMbps, 0.0);
}

TEST(MultiUser, SingleUserMatchesSoloSessionScale) {
    const auto multi = runKeypointFleet(1);
    ASSERT_EQ(multi.perUser.size(), 1u);
    const auto& s = multi.perUser[0];
    EXPECT_EQ(s.telemetry.counters.framesDelivered, 10u);
    EXPECT_NEAR(multi.aggregateMbps, s.bandwidthMbps, 1e-9);
    EXPECT_GT(s.telemetry.bytesPerFrame.mean(), 100.0);
}

TEST(MultiUser, AggregateBandwidthScalesWithUsers) {
    const auto s2 = runKeypointFleet(2);
    const auto s4 = runKeypointFleet(4);
    EXPECT_NEAR(s4.aggregateMbps, 2.0 * s2.aggregateMbps, 0.3 * s2.aggregateMbps);
}

TEST(MultiUser, DistinctMotionSeedsPerUser) {
    const auto stats = runKeypointFleet(2);
    // Different seeds -> different poses -> (slightly) different
    // compressed payload sizes on at least one frame.
    bool differs = false;
    for (std::size_t f = 0; f < stats.perUser[0].frames.size(); ++f)
        if (stats.perUser[0].frames[f].bytes != stats.perUser[1].frames[f].bytes)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(MultiUser, SharedBottleneckCongestsHeavyChannels) {
    // Four raw-mesh users through 25 Mbps: latency must blow up relative
    // to a single user.
    SessionConfig cfg = baseConfig(6);
    cfg.link.queueCapacityBytes = 8 * 1024 * 1024;
    auto runMeshFleet = [&cfg](std::size_t n) {
        return runConference(
            sharedUplinkConference(
                cfg, n, [] { return makeTraditionalChannel({false, false}); }),
            sharedModel());
    };
    const auto s1 = runMeshFleet(1);
    const auto s4 = runMeshFleet(4);
    EXPECT_GT(s4.telemetry.e2eMs.mean(), s1.telemetry.e2eMs.mean() * 2.0);
}

TEST(MultiUser, KeypointFleetMeetsLatencyBudget) {
    // The budget is checked on the simulated clock, which host load
    // cannot move. Measured encode/decode wall times stay reported in the
    // telemetry of bench_ablation_multiuser's keypoint rows.
    SessionConfig cfg = baseConfig();
    cfg.timing = TimingModel::Simulated;
    const auto stats = runKeypointFleet(6, cfg);
    EXPECT_EQ(stats.usersWithinLatency(200.0), 6u);
    EXPECT_LT(stats.aggregateMbps, 3.0);
}

}  // namespace
}  // namespace semholo::core
