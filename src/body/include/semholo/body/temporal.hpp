// Temporal pose processing (section 3.1's "non-parametric,
// temporal-aware framework" agenda item, and latency compensation for
// interactive sessions):
//
//  * PoseFilter — a One-Euro filter adapted to joint rotations: smooths
//    detector jitter at low speeds without lagging fast gestures. This
//    is the temporal-awareness the paper says single-frame model-free
//    methods (Pose2Mesh-class) lack. Its cutoffs are fixed constants
//    (temporal.cpp).
//
//  * PosePredictor — constant-angular-velocity extrapolation used to
//    hide end-to-end latency: the receiver renders the pose predicted
//    for "now" rather than the pose captured one pipeline delay ago.
#pragma once

#include <optional>

#include "semholo/body/pose.hpp"

namespace semholo::body {

// Streaming One-Euro filter over joint rotations and root translation.
class PoseFilter {
public:
    // Feed the next observed pose (monotonically increasing timestamps);
    // returns the smoothed pose.
    Pose filter(const Pose& observed, double timestamp);

    void reset();
    bool primed() const { return primed_; }

private:
    bool primed_{false};
    double lastTime_{0.0};
    Pose state_{};
    // Per-joint angular-velocity estimate (low-passed), rad/s.
    std::array<Vec3f, kJointCount> velocity_{};
    Vec3f rootVelocity_{};
};

// Extrapolate a pose 'horizonSeconds' beyond the newest of two samples,
// assuming constant angular velocity per joint (quaternion log-space)
// and constant root velocity. Returns nullopt when dt <= 0.
std::optional<Pose> predictPose(const Pose& previous, double tPrev, const Pose& latest,
                                double tLatest, double horizonSeconds);

// Mean per-joint position error (metres) of a pose against a reference
// pose — the latency-compensation quality metric.
double keypointDistance(const Pose& a, const Pose& b);

}  // namespace semholo::body
