#include "semholo/net/abr.hpp"

#include <gtest/gtest.h>

#include "semholo/net/link.hpp"

namespace semholo::net {
namespace {

std::vector<QualityLevel> testLadder() {
    return {{"low", 1e6, 1.0}, {"mid", 5e6, 2.0}, {"high", 20e6, 3.0},
            {"ultra", 80e6, 4.0}};
}

TEST(HarmonicEstimator, RobustToSpikes) {
    HarmonicEstimator est(5);
    for (int i = 0; i < 4; ++i) est.addSample(5e6);
    est.addSample(500e6);  // spike
    // Harmonic mean stays close to the typical rate.
    EXPECT_LT(est.estimate(), 8e6);
    EXPECT_GT(est.estimate(), 5e6);
}

TEST(HarmonicEstimator, WindowSlides) {
    HarmonicEstimator est(2);
    est.addSample(1e6);
    est.addSample(10e6);
    est.addSample(10e6);  // evicts the 1e6 sample
    EXPECT_NEAR(est.estimate(), 10e6, 1.0);
}

TEST(HarmonicEstimator, IgnoresNonPositive) {
    HarmonicEstimator est(3);
    est.addSample(0.0);
    est.addSample(-5.0);
    EXPECT_FALSE(est.hasEstimate());
    EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(RateBasedAbr, PicksHighestSustainableLevel) {
    const RateBasedAbr abr(testLadder(), 0.9);
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(100e6)].name, "ultra");
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(25e6)].name, "high");
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(6e6)].name, "mid");
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(0.5e6)].name, "low");  // floor
}

TEST(RateBasedAbr, SafetyMarginApplied) {
    const RateBasedAbr abr(testLadder(), 0.5);
    // 20 Mbps level requires estimate >= 40 Mbps at 0.5 safety.
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(39e6)].name, "mid");
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(41e6)].name, "high");
}

TEST(RateBasedAbr, UnsortedLadderHandled) {
    auto ladder = testLadder();
    std::swap(ladder[0], ladder[3]);
    const RateBasedAbr abr(ladder, 0.9);
    EXPECT_EQ(abr.ladder()[abr.chooseLevel(6e6)].name, "mid");
}

TEST(BufferAwareAbr, FullBufferAllowsHigherLevel) {
    const BufferAwareAbr abr(testLadder(), 0.2, 0.9);
    const double estimate = 22e6;  // borderline for "high" (20 Mbps)
    const std::size_t starving = abr.chooseLevel(estimate, 0.0);
    const std::size_t healthy = abr.chooseLevel(estimate, 0.4);
    EXPECT_GT(healthy, starving);
}

TEST(BufferAwareAbr, CriticalBufferForcesDowngrade) {
    const BufferAwareAbr abr(testLadder(), 0.2, 0.9);
    const std::size_t normal = abr.chooseLevel(100e6, 0.2);
    const std::size_t panic = abr.chooseLevel(100e6, 0.01);
    EXPECT_LT(panic, normal);
}

TEST(BufferAwareAbr, NeverBelowFloor) {
    const BufferAwareAbr abr(testLadder(), 0.2, 0.9);
    EXPECT_EQ(abr.chooseLevel(0.1e6, 0.0), 0u);
}

TEST(RateBasedAbr, ColdStartZeroEstimatePicksFloor) {
    // estimate()==0 before the first sample: the controller must sit at
    // the ladder floor instead of misbehaving on the zero.
    const RateBasedAbr rate(testLadder(), 0.9);
    EXPECT_EQ(rate.chooseLevel(0.0), 0u);
    const BufferAwareAbr buffered(testLadder(), 0.2, 0.9);
    EXPECT_EQ(buffered.chooseLevel(0.0, 0.0), 0u);
    EXPECT_EQ(buffered.chooseLevel(0.0, 1.0), 0u);
    const HarmonicEstimator cold(5);
    EXPECT_DOUBLE_EQ(cold.estimate(), 0.0);
    EXPECT_EQ(rate.chooseLevel(cold.estimate()), 0u);
}

TEST(RateBasedAbr, TracksSquareTraceTransitions) {
    // Feed the estimator throughput samples as the trace steps
    // high -> low -> high; the chosen level must follow with the
    // estimator's window lag and recover fully.
    const auto trace = BandwidthTrace::square(25e6, 2e6, 1.0);
    const RateBasedAbr abr(testLadder(), 0.9);
    HarmonicEstimator est(5);
    std::vector<std::size_t> levels;
    for (int i = 0; i < 60; ++i) {
        const double t = i / 20.0;  // 3 s: high [0,1), low [1,2), high [2,3)
        est.addSample(trace.rateAt(t));
        levels.push_back(abr.chooseLevel(est.estimate()));
    }
    const std::size_t highPhase = levels[15];   // steady high
    const std::size_t lowPhase = levels[39];    // end of low phase
    const std::size_t recovered = levels[59];   // back in high
    EXPECT_GT(highPhase, lowPhase);
    EXPECT_EQ(recovered, highPhase);
    // The harmonic mean drags the estimate down quickly on the drop:
    // within its 5-sample window the level has already fallen.
    EXPECT_LE(levels[25], highPhase);
}

TEST(BufferAwareAbr, TraceTransitionWithDrainingBuffer) {
    const auto trace = BandwidthTrace::square(25e6, 2e6, 1.0);
    const BufferAwareAbr abr(testLadder(), 0.3, 0.9);
    HarmonicEstimator est(4);
    double bufferS = 0.3;
    std::size_t duringCollapse = 99;
    for (int i = 0; i < 40; ++i) {
        const double t = i / 20.0;
        est.addSample(trace.rateAt(t));
        const std::size_t level = abr.chooseLevel(est.estimate(), bufferS);
        // Crude buffer dynamics: the low phase drains it.
        bufferS = trace.rateAt(t) > 10e6 ? 0.3 : std::max(0.0, bufferS - 0.05);
        if (i == 39) duringCollapse = level;
    }
    // Low estimate + drained buffer pins the controller to the floor.
    EXPECT_EQ(duringCollapse, 0u);
}

}  // namespace
}  // namespace semholo::net
