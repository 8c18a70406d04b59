// Closed-loop graceful degradation (the robustness side of section
// 3.2's rate adaption): a policy that watches per-frame link outcomes —
// delivery failures, queue pressure, fault-schedule events, transfer
// latency — and steps a channel down its quality ladder under sustained
// congestion, back up after sustained recovery.
//
// The policy acts through the throughput feedback the channels already
// consume: FrameContext::estimatedBandwidthBps is multiplied by
// bandwidthScale() (stepScale^level), so every rate-adaptive channel
// (adaptive-mesh LOD ladder, slimmable-NeRF image channel) degrades
// without knowing the policy exists. This closes the loop that pure
// throughput estimation leaves open: when congestion kills every frame,
// no throughput samples arrive and the estimator goes stale — the
// policy reacts to the failures themselves.
#pragma once

#include <cstddef>

namespace semholo::core {

struct DegradationConfig {
    bool enabled{false};
    // Deepest step-down level; level 0 applies no degradation.
    std::size_t maxLevel{3};
    // Bandwidth-estimate multiplier per level: scale = stepScale^level.
    double stepScale{0.5};
    // A frame counts as congested when its transfer took longer than
    // this many frame intervals...
    double latencyBudgetFrames{2.0};
    // ...or the bottleneck backlog at send exceeded this fraction of the
    // queue capacity, or it saw queue drops / unrecovered losses /
    // fault-window events, or it was simply not delivered.
    double queuePressure{0.5};
    int downgradeAfter{2};  // consecutive congested frames to step down
    int upgradeAfter{12};   // consecutive clean frames to step back up
    // When a conference BandwidthArbiter feeds the policy a target rate
    // (setTargetRateBps), a frame whose wire size exceeds 1.25 × target
    // per frame interval (a fixed overshoot allowance, degradation.cpp)
    // counts as congested — the ladder enforces the arbiter's allocation
    // even while the link still delivers. Ignored when no target is set.
};

// One frame's network outcome as seen by the session engine.
struct LinkObservation {
    bool delivered{false};
    double transferS{0.0};
    std::size_t unrecoveredPackets{0};
    std::size_t queueDrops{0};
    std::size_t faultEvents{0};
    std::size_t queuedBytesAtSend{0};
    // Wire bytes of the frame (0 when unknown); only consulted by the
    // target-rate check above.
    std::size_t bytes{0};
};

enum class DegradationAction { Hold, StepDown, StepUp };

class DegradationPolicy {
public:
    DegradationPolicy(const DegradationConfig& config, double fps,
                      std::size_t queueCapacityBytes);

    // Feed one frame's link outcome; returns the action taken. The
    // session engine counts the transitions into its telemetry.
    DegradationAction observe(const LinkObservation& obs);

    // Whether the policy acts at all; observe() holds when it does not.
    bool enabled() const { return config_.enabled; }
    std::size_t level() const { return level_; }
    // Multiplier for the bandwidth estimate fed to channels.
    double bandwidthScale() const;
    // Per-tick arbiter target rate (bps); 0 disables the target-aware
    // congestion check. Set by the conference engine each tick when a
    // BandwidthArbiter is active.
    void setTargetRateBps(double bps) { targetRateBps_ = bps; }
    void reset();

private:
    bool congested(const LinkObservation& obs) const;

    DegradationConfig config_;
    double frameIntervalS_{1.0 / 30.0};
    std::size_t queueCapacityBytes_{0};
    double targetRateBps_{0.0};
    std::size_t level_{0};
    int badStreak_{0};
    int goodStreak_{0};
};

}  // namespace semholo::core
