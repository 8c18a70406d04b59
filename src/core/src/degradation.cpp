#include "semholo/core/degradation.hpp"

#include <algorithm>
#include <cmath>

namespace semholo::core {

// Wire size, as a multiple of the arbiter target per frame interval, above
// which a frame counts as congested.
constexpr double kTargetOvershoot = 1.25;

DegradationPolicy::DegradationPolicy(const DegradationConfig& config, double fps,
                                     std::size_t queueCapacityBytes)
    : config_(config),
      frameIntervalS_(fps > 0.0 ? 1.0 / fps : 1.0 / 30.0),
      queueCapacityBytes_(queueCapacityBytes) {}

double DegradationPolicy::bandwidthScale() const {
    return std::pow(config_.stepScale, static_cast<double>(level_));
}

bool DegradationPolicy::congested(const LinkObservation& obs) const {
    if (!obs.delivered) return true;
    if (obs.queueDrops > 0 || obs.unrecoveredPackets > 0 || obs.faultEvents > 0)
        return true;
    if (obs.transferS > config_.latencyBudgetFrames * frameIntervalS_) return true;
    // Arbiter target: sending above the allocated share is congestion
    // even when the link still delivered (the overshoot lands in the
    // shared queue and starves other participants).
    if (targetRateBps_ > 0.0 && obs.bytes > 0 &&
        static_cast<double>(obs.bytes) * 8.0 >
            targetRateBps_ * kTargetOvershoot * frameIntervalS_)
        return true;
    if (queueCapacityBytes_ > 0 &&
        static_cast<double>(obs.queuedBytesAtSend) >
            config_.queuePressure * static_cast<double>(queueCapacityBytes_))
        return true;
    return false;
}

DegradationAction DegradationPolicy::observe(const LinkObservation& obs) {
    if (!config_.enabled) return DegradationAction::Hold;
    if (congested(obs)) {
        ++badStreak_;
        goodStreak_ = 0;
        if (badStreak_ >= config_.downgradeAfter && level_ < config_.maxLevel) {
            ++level_;
            badStreak_ = 0;
            return DegradationAction::StepDown;
        }
        // Pinned at maxLevel (or downgrade disabled): the streak keeps
        // growing with nothing left to trigger. Clamp at the threshold —
        // >= comparisons behave identically, and a multi-billion-frame
        // soak cannot overflow the signed counter into UB.
        badStreak_ = std::min(badStreak_, std::max(config_.downgradeAfter, 1));
    } else {
        ++goodStreak_;
        badStreak_ = 0;
        if (goodStreak_ >= config_.upgradeAfter && level_ > 0) {
            --level_;
            goodStreak_ = 0;
            return DegradationAction::StepUp;
        }
        // Same clamp for a long clean run already at level 0.
        goodStreak_ = std::min(goodStreak_, std::max(config_.upgradeAfter, 1));
    }
    return DegradationAction::Hold;
}

void DegradationPolicy::reset() {
    targetRateBps_ = 0.0;
    level_ = 0;
    badStreak_ = 0;
    goodStreak_ = 0;
}

}  // namespace semholo::core
