// DegradationPolicy unit behaviour plus the closed loop end-to-end:
// under injected link faults a degradation-enabled session keeps
// delivering frames where the estimator-only feedback loop stalls, and
// the serial and parallel engines make identical decisions.
#include <gtest/gtest.h>

#include "semholo/core/session.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 40};
    return model;
}

DegradationConfig fastPolicy() {
    DegradationConfig cfg;
    cfg.enabled = true;
    cfg.maxLevel = 3;
    cfg.downgradeAfter = 2;
    cfg.upgradeAfter = 8;
    return cfg;
}

LinkObservation congestedObs() {
    LinkObservation obs;
    obs.delivered = false;
    return obs;
}

LinkObservation cleanObs() {
    LinkObservation obs;
    obs.delivered = true;
    obs.transferS = 0.01;
    return obs;
}

TEST(DegradationPolicy, StepsDownUnderSustainedCongestion) {
    DegradationPolicy policy(fastPolicy(), 30.0, 256 * 1024);
    EXPECT_EQ(policy.level(), 0u);
    EXPECT_DOUBLE_EQ(policy.bandwidthScale(), 1.0);
    std::uint32_t frame = 0;
    // One congested frame holds (hysteresis)...
    EXPECT_EQ(policy.observe(frame++, congestedObs()), DegradationAction::Hold);
    // ...the second steps down.
    EXPECT_EQ(policy.observe(frame++, congestedObs()),
              DegradationAction::StepDown);
    EXPECT_EQ(policy.level(), 1u);
    EXPECT_DOUBLE_EQ(policy.bandwidthScale(), 0.5);
    // Sustained congestion walks to the floor and stays there.
    for (int i = 0; i < 12; ++i) policy.observe(frame++, congestedObs());
    EXPECT_EQ(policy.level(), 3u);
    EXPECT_DOUBLE_EQ(policy.bandwidthScale(), 0.125);
    EXPECT_EQ(policy.downgrades(), 3u);
    EXPECT_EQ(policy.decisions().size(), 3u);
}

TEST(DegradationPolicy, RecoversAfterCleanStreak) {
    DegradationPolicy policy(fastPolicy(), 30.0, 256 * 1024);
    std::uint32_t frame = 0;
    for (int i = 0; i < 4; ++i) policy.observe(frame++, congestedObs());
    ASSERT_EQ(policy.level(), 2u);
    // upgradeAfter clean frames per step back up.
    DegradationAction last = DegradationAction::Hold;
    for (int i = 0; i < 8; ++i) last = policy.observe(frame++, cleanObs());
    EXPECT_EQ(last, DegradationAction::StepUp);
    EXPECT_EQ(policy.level(), 1u);
    for (int i = 0; i < 8; ++i) policy.observe(frame++, cleanObs());
    EXPECT_EQ(policy.level(), 0u);
    EXPECT_EQ(policy.upgrades(), 2u);
    // A congested blip resets the clean streak.
    for (int i = 0; i < 4; ++i) policy.observe(frame++, congestedObs());
    for (int i = 0; i < 7; ++i) policy.observe(frame++, cleanObs());
    EXPECT_EQ(policy.observe(frame++, congestedObs()), DegradationAction::Hold);
    EXPECT_EQ(policy.level(), 2u);
}

TEST(DegradationPolicy, CongestionSignals) {
    const DegradationConfig cfg = fastPolicy();
    DegradationPolicy policy(cfg, 30.0, 100 * 1024);
    std::uint32_t frame = 0;
    // Each signal alone trips the congestion detector: two frames with
    // queue drops / fault events / slow transfer / deep backlog step down.
    LinkObservation drops = cleanObs();
    drops.queueDrops = 3;
    policy.observe(frame++, drops);
    EXPECT_EQ(policy.observe(frame++, drops), DegradationAction::StepDown);

    DegradationPolicy p2(cfg, 30.0, 100 * 1024);
    LinkObservation slow = cleanObs();
    slow.transferS = 0.5;  // far beyond 2 frame intervals at 30 fps
    p2.observe(frame++, slow);
    EXPECT_EQ(p2.observe(frame++, slow), DegradationAction::StepDown);

    DegradationPolicy p3(cfg, 30.0, 100 * 1024);
    LinkObservation deep = cleanObs();
    deep.queuedBytesAtSend = 90 * 1024;  // > 50% of capacity
    p3.observe(frame++, deep);
    EXPECT_EQ(p3.observe(frame++, deep), DegradationAction::StepDown);

    DegradationPolicy p4(cfg, 30.0, 100 * 1024);
    LinkObservation faulted = cleanObs();
    faulted.faultEvents = 1;
    p4.observe(frame++, faulted);
    EXPECT_EQ(p4.observe(frame++, faulted), DegradationAction::StepDown);
}

TEST(DegradationPolicy, DisabledPolicyNeverActs) {
    DegradationConfig cfg = fastPolicy();
    cfg.enabled = false;
    DegradationPolicy policy(cfg, 30.0, 256 * 1024);
    for (std::uint32_t f = 0; f < 20; ++f)
        EXPECT_EQ(policy.observe(f, congestedObs()), DegradationAction::Hold);
    EXPECT_EQ(policy.level(), 0u);
    EXPECT_TRUE(policy.decisions().empty());
}

TEST(DegradationPolicy, LongSoakKeepsBoundedHistoryAndExactCounters) {
    // Oscillate congested/clean bursts long enough to generate far more
    // transitions than the history cap holds: memory must stay bounded
    // (ring buffer) while the lifetime counters stay exact.
    DegradationConfig cfg = fastPolicy();
    cfg.maxLevel = 1;  // every burst pair is one down + one up
    DegradationPolicy policy(cfg, 30.0, 256 * 1024);
    std::uint32_t frame = 0;
    const std::size_t cycles = DegradationPolicy::kDecisionHistoryCap * 3;
    for (std::size_t c = 0; c < cycles; ++c) {
        for (int i = 0; i < 2; ++i) policy.observe(frame++, congestedObs());
        for (int i = 0; i < 8; ++i) policy.observe(frame++, cleanObs());
    }
    EXPECT_EQ(policy.downgrades(), cycles);
    EXPECT_EQ(policy.upgrades(), cycles);
    EXPECT_EQ(policy.decisionsRecorded(), 2 * cycles);
    const auto decisions = policy.decisions();
    ASSERT_EQ(decisions.size(), DegradationPolicy::kDecisionHistoryCap);
    // Oldest-first: frame ids ascend strictly across the retained window,
    // and the newest retained decision is the last transition made.
    for (std::size_t i = 1; i < decisions.size(); ++i)
        EXPECT_LT(decisions[i - 1].frameId, decisions[i].frameId);
    EXPECT_EQ(decisions.back().action, DegradationAction::StepUp);
    EXPECT_EQ(decisions.back().level, 0u);

    policy.reset();
    EXPECT_TRUE(policy.decisions().empty());
    EXPECT_EQ(policy.decisionsRecorded(), 0u);
}

TEST(DegradationPolicy, PinnedAtMaxLevelStillUpgradesAfterLongCongestion) {
    // Regression shape for the unclamped-streak hazard: millions of
    // congested frames while pinned at maxLevel must neither overflow
    // the streak counter nor distort the recovery hysteresis — exactly
    // upgradeAfter clean frames still produce exactly one StepUp.
    const DegradationConfig cfg = fastPolicy();
    DegradationPolicy policy(cfg, 30.0, 256 * 1024);
    std::uint32_t frame = 0;
    for (int i = 0; i < 1'000'000; ++i) policy.observe(frame++, congestedObs());
    ASSERT_EQ(policy.level(), cfg.maxLevel);
    EXPECT_EQ(policy.downgrades(), cfg.maxLevel);
    for (int i = 0; i < cfg.upgradeAfter - 1; ++i)
        EXPECT_EQ(policy.observe(frame++, cleanObs()), DegradationAction::Hold);
    EXPECT_EQ(policy.observe(frame++, cleanObs()), DegradationAction::StepUp);
    EXPECT_EQ(policy.level(), cfg.maxLevel - 1);
    // And a long clean run at level 0 is just as safe the other way.
    for (int i = 0; i < 1'000'000; ++i) policy.observe(frame++, cleanObs());
    EXPECT_EQ(policy.level(), 0u);
    EXPECT_EQ(policy.upgrades(), cfg.maxLevel);
}

// ---- Closed loop through the session engines -----------------------------

SessionConfig faultySessionConfig() {
    SessionConfig cfg;
    cfg.frames = 120;
    cfg.fps = 30.0;
    cfg.timing = TimingModel::Simulated;
    cfg.transfer.reliable = false;  // live streaming: late frames are dead
    // Sized against the {400,1500,6000}-triangle ladder (~2/7/23 KB per
    // frame): the 16 KB bottleneck queue is shallower than one top-rung
    // frame, so top-rung frames always tail-drop mid-message and produce
    // no throughput sample. The estimator-only loop ramps up on floor
    // samples (8 Mbps link), jumps to the top rung, and then stalls —
    // every frame fails, no sample ever arrives to correct the estimate.
    // The degradation policy sees the failures directly and steps down.
    cfg.link.bandwidth = net::BandwidthTrace::constant(8e6);
    cfg.link.propagationDelayS = 0.01;
    cfg.link.jitterStddevS = 0.0;
    cfg.link.lossRate = 0.0;
    cfg.link.queueCapacityBytes = 16 * 1024;
    // A mid-session outage followed by a deep bandwidth collapse.
    cfg.link.faults.outages.push_back({1.0, 0.5});
    cfg.link.faults.collapses.push_back({2.0, 1.0, 0.08});
    return cfg;
}

AdaptiveMeshOptions smallLadder() {
    AdaptiveMeshOptions opt;
    opt.ladderTriangles = {400, 1500, 6000};
    return opt;
}

TEST(DegradationSession, ClosedLoopOutperformsEstimatorOnlyUnderFaults) {
    SessionConfig off = faultySessionConfig();
    SessionConfig on = faultySessionConfig();
    on.degradation = fastPolicy();

    auto chOff = makeAdaptiveMeshChannel(smallLadder());
    auto chOn = makeAdaptiveMeshChannel(smallLadder());
    const auto statsOff = runSession(*chOff, sharedModel(), off);
    const auto statsOn = runSession(*chOn, sharedModel(), on);

    // The policy reacted and its decisions landed in telemetry.
    EXPECT_GT(statsOn.telemetry.counters.degradations, 0u);
    EXPECT_GT(statsOn.telemetry.counters.faultEvents, 0u);
    EXPECT_EQ(statsOff.telemetry.counters.degradations, 0u);
    // Closing the loop delivers more frames through the same faults.
    EXPECT_GT(statsOn.telemetry.counters.framesDelivered,
              statsOff.telemetry.counters.framesDelivered);
}

TEST(DegradationSession, SerialAndParallelEnginesDecideIdentically) {
    SessionConfig cfg = faultySessionConfig();
    cfg.frames = 60;
    cfg.degradation = fastPolicy();

    SessionStats results[2];
    int slot = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        cfg.workers = workers;
        auto channel = makeAdaptiveMeshChannel(smallLadder());
        results[slot++] = runSession(*channel, sharedModel(), cfg);
    }
    const SessionStats& serial = results[0];
    const SessionStats& parallel = results[1];
    ASSERT_EQ(serial.frames.size(), parallel.frames.size());
    for (std::size_t f = 0; f < serial.frames.size(); ++f) {
        SCOPED_TRACE(f);
        EXPECT_EQ(serial.frames[f].bytes, parallel.frames[f].bytes);
        EXPECT_EQ(serial.frames[f].delivered, parallel.frames[f].delivered);
        EXPECT_DOUBLE_EQ(serial.frames[f].transferMs,
                         parallel.frames[f].transferMs);
    }
    EXPECT_EQ(serial.telemetry.counters.degradations,
              parallel.telemetry.counters.degradations);
    EXPECT_EQ(serial.telemetry.counters.upgrades,
              parallel.telemetry.counters.upgrades);
    EXPECT_EQ(serial.telemetry.counters.faultEvents,
              parallel.telemetry.counters.faultEvents);
}

}  // namespace
}  // namespace semholo::core
