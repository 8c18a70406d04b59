// Multi-user closed-loop degradation: the tick scheduler must give
// every conference participant the same per-frame feedback contract a
// single-user session has — per-user DegradationPolicy decisions that
// engage under congestion and improve delivery — while the serial and
// parallel engines stay byte-identical under TimingModel::Simulated at
// any worker count, with per-user link attribution that conserves
// packets across users. Every run uses the shared-uplink conference
// topology (no downlinks, no arbiter).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "shared_uplink.hpp"

namespace semholo::core {
namespace {

// Coarse template: the LOD ladder caps rung sizes via ladderTriangles,
// so frame bytes (and the congestion dynamics the suite asserts) do not
// depend on the base resolution — but QEM ladder construction per
// channel does, and this suite runs under TSan in CI.
const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 28};
    return model;
}

MultiSessionStats runAdaptiveFleet(std::size_t n, const SessionConfig& cfg) {
    const auto conf = sharedUplinkConference(cfg, n, [] {
        AdaptiveMeshOptions opt;
        opt.ladderTriangles = {400, 1500, 6000};
        return makeAdaptiveMeshChannel(opt);
    });
    return runConference(conf, sharedModel());
}

// A conference that the estimator-only loop cannot survive: the shared
// bottleneck queue is shallower than one top-rung frame, so top-rung
// frames tail-drop mid-message and produce no throughput sample, and a
// scripted outage + deep collapse keep killing frames outright. Only
// the failure-driven DegradationPolicy sees those events.
SessionConfig congestedConference(std::size_t frames = 90) {
    SessionConfig cfg;
    cfg.frames = frames;
    cfg.fps = 30.0;
    cfg.timing = TimingModel::Simulated;
    cfg.transfer.reliable = false;  // live streaming: late frames are dead
    cfg.link.bandwidth = net::BandwidthTrace::constant(8e6);
    cfg.link.propagationDelayS = 0.01;
    cfg.link.jitterStddevS = 0.0;
    cfg.link.lossRate = 0.0;
    cfg.link.queueCapacityBytes = 16 * 1024;
    cfg.link.faults.outages.push_back({1.0, 0.5});
    cfg.link.faults.collapses.push_back({2.0, 1.0, 0.08});
    return cfg;
}

DegradationConfig fastPolicy() {
    DegradationConfig cfg;
    cfg.enabled = true;
    cfg.maxLevel = 3;
    cfg.downgradeAfter = 2;
    cfg.upgradeAfter = 8;
    return cfg;
}

std::size_t deliveredTotal(const MultiSessionStats& stats) {
    std::size_t n = 0;
    for (const SessionStats& s : stats.perUser) n += s.telemetry.counters.framesDelivered;
    return n;
}

TEST(MultiUserDegradation, PerUserAdaptationEngagesAndImprovesDelivery) {
    constexpr std::size_t kUsers = 3;
    SessionConfig off = congestedConference();
    SessionConfig on = congestedConference();
    on.degradation = fastPolicy();

    const auto statsOff = runAdaptiveFleet(kUsers, off);
    const auto statsOn = runAdaptiveFleet(kUsers, on);

    // Every participant's own policy reacted — the per-user loop exists.
    ASSERT_EQ(statsOn.fairness.size(), kUsers);
    for (std::size_t u = 0; u < statsOn.perUser.size(); ++u) {
        EXPECT_GT(statsOn.perUser[u].telemetry.counters.degradations, 0u)
            << "user " << u;
    }
    EXPECT_GT(statsOn.telemetry.counters.degradations, 0u);
    EXPECT_EQ(statsOff.telemetry.counters.degradations, 0u);
    // Closing the loop delivers strictly more frames through the same
    // faults for the conference as a whole.
    EXPECT_GT(deliveredTotal(statsOn), deliveredTotal(statsOff));
}

TEST(MultiUserDegradation, SerialAndParallelByteIdenticalUnderStress) {
    constexpr std::size_t kUsers = 3;
    SessionConfig cfg = congestedConference(45);
    cfg.degradation = fastPolicy();

    std::vector<MultiSessionStats> results;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        cfg.workers = workers;
        results.push_back(runAdaptiveFleet(kUsers, cfg));
    }

    const MultiSessionStats& serial = results[0];
    for (std::size_t r = 1; r < results.size(); ++r) {
        const MultiSessionStats& parallel = results[r];
        SCOPED_TRACE("workers slot " + std::to_string(r));
        ASSERT_EQ(serial.perUser.size(), parallel.perUser.size());
        for (std::size_t u = 0; u < serial.perUser.size(); ++u) {
            const auto& a = serial.perUser[u].frames;
            const auto& b = parallel.perUser[u].frames;
            ASSERT_EQ(a.size(), b.size()) << "user " << u;
            for (std::size_t f = 0; f < a.size(); ++f) {
                SCOPED_TRACE("user " + std::to_string(u) + " frame " +
                             std::to_string(f));
                EXPECT_EQ(a[f].bytes, b[f].bytes);
                EXPECT_EQ(a[f].delivered, b[f].delivered);
                EXPECT_EQ(a[f].droppedAtSender, b[f].droppedAtSender);
                EXPECT_EQ(a[f].droppedAtReceiver, b[f].droppedAtReceiver);
                EXPECT_DOUBLE_EQ(a[f].transferMs, b[f].transferMs);
                EXPECT_DOUBLE_EQ(a[f].e2eMs, b[f].e2eMs);
            }
            // Per-user degradation decisions are part of the contract.
            EXPECT_EQ(serial.perUser[u].telemetry.counters.degradations,
                      parallel.perUser[u].telemetry.counters.degradations);
            EXPECT_EQ(serial.perUser[u].telemetry.counters.upgrades,
                      parallel.perUser[u].telemetry.counters.upgrades);
            EXPECT_EQ(serial.fairness[u].finalDegradationLevel,
                      parallel.fairness[u].finalDegradationLevel);
        }
        EXPECT_EQ(serial.telemetry.counters.degradations,
                  parallel.telemetry.counters.degradations);
        EXPECT_DOUBLE_EQ(serial.aggregateMbps, parallel.aggregateMbps);
        EXPECT_DOUBLE_EQ(serial.fairnessIndex, parallel.fairnessIndex);
    }
}

TEST(MultiUserDegradation, PacketConservationAcrossUsers) {
    constexpr std::size_t kUsers = 4;
    SessionConfig cfg = congestedConference(45);
    cfg.degradation = fastPolicy();
    cfg.link.lossRate = 0.05;  // exercise the loss path too

    const auto stats = runAdaptiveFleet(kUsers, cfg);

    std::uint64_t packets = 0, delivered = 0, unrecovered = 0, bytes = 0;
    for (const SessionStats& s : stats.perUser) {
        const auto& c = s.telemetry.counters;
        // Per-user conservation: every packet attributed to this user
        // either reached the receiver or is accounted as unrecovered.
        EXPECT_EQ(c.packets, c.packetsDelivered + c.packetsUnrecovered);
        packets += c.packets;
        delivered += c.packetsDelivered;
        unrecovered += c.packetsUnrecovered;
        bytes += c.bytesSent;
    }
    // The per-user attribution is complete: the merged (shared-link)
    // totals are exactly the per-user sums.
    EXPECT_GT(packets, 0u);
    EXPECT_EQ(stats.telemetry.counters.packets, packets);
    EXPECT_EQ(stats.telemetry.counters.packetsDelivered, delivered);
    EXPECT_EQ(stats.telemetry.counters.packetsUnrecovered, unrecovered);
    EXPECT_EQ(stats.telemetry.counters.bytesSent, bytes);
    EXPECT_EQ(packets, delivered + unrecovered);
}

TEST(MultiUserDegradation, FairnessAccountingConsistent) {
    constexpr std::size_t kUsers = 3;
    SessionConfig cfg = congestedConference(45);
    cfg.degradation = fastPolicy();

    const auto stats = runAdaptiveFleet(kUsers, cfg);

    ASSERT_EQ(stats.fairness.size(), kUsers);
    double shareSum = 0.0;
    for (std::size_t u = 0; u < kUsers; ++u) {
        const UserFairnessStats& f = stats.fairness[u];
        const telemetry::Counters& c = stats.perUser[u].telemetry.counters;
        EXPECT_EQ(c.framesCaptured, cfg.frames);
        EXPECT_EQ(c.framesDelivered, stats.perUser[u].telemetry.e2eMs.count());
        EXPECT_NEAR(f.deliveryRatio,
                    static_cast<double>(c.framesDelivered) /
                        static_cast<double>(cfg.frames),
                    1e-12);
        EXPECT_GE(f.bandwidthShare, 0.0);
        EXPECT_LE(f.bandwidthShare, 1.0);
        EXPECT_LE(f.finalDegradationLevel, cfg.degradation.maxLevel);
        shareSum += f.bandwidthShare;
    }
    EXPECT_NEAR(shareSum, 1.0, 1e-9);
    EXPECT_GT(stats.fairnessIndex, 0.0);
    EXPECT_LE(stats.fairnessIndex, 1.0 + 1e-12);

    // The JSON export carries the fairness block.
    const std::string json = toJsonValue(stats);
    EXPECT_NE(json.find("\"fairness_index\""), std::string::npos);
    EXPECT_NE(json.find("\"delivery_ratio\""), std::string::npos);
    EXPECT_NE(json.find("\"bandwidth_share\""), std::string::npos);
    EXPECT_NE(json.find("\"final_degradation_level\""), std::string::npos);
    EXPECT_NE(json.find("\"packets_delivered\""), std::string::npos);
}

TEST(MultiUserDegradation, DisabledPolicyKeepsCountersZeroAndFairnessFilled) {
    constexpr std::size_t kUsers = 2;
    const SessionConfig cfg = congestedConference(30);

    const auto stats = runAdaptiveFleet(kUsers, cfg);
    ASSERT_EQ(stats.fairness.size(), kUsers);
    for (std::size_t u = 0; u < kUsers; ++u) {
        EXPECT_EQ(stats.perUser[u].telemetry.counters.degradations, 0u);
        EXPECT_EQ(stats.perUser[u].telemetry.counters.upgrades, 0u);
        EXPECT_EQ(stats.fairness[u].finalDegradationLevel, 0u);
    }
}

}  // namespace
}  // namespace semholo::core
