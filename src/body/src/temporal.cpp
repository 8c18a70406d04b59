#include "semholo/body/temporal.hpp"

#include <cmath>

namespace semholo::body {

namespace {

// One-Euro parameters: cutoff at rest, the speed coefficient and the
// derivative's cutoff.
constexpr double kMinCutoffHz = 1.0;
constexpr double kBeta = 0.5;
constexpr double kDerivativeCutoffHz = 1.0;

// One-Euro smoothing factor for a given cutoff and sample interval.
float alphaFor(double cutoffHz, double dt) {
    const double tau = 1.0 / (2.0 * M_PI * cutoffHz);
    return static_cast<float>(1.0 / (1.0 + tau / dt));
}

// Minimal-angle difference between two axis-angle rotations, expressed
// as an axis-angle "velocity" direction (log of the relative rotation).
Vec3f rotationDelta(const Vec3f& from, const Vec3f& to) {
    const geom::Quat qf = geom::Quat::fromAxisAngle(from);
    const geom::Quat qt = geom::Quat::fromAxisAngle(to);
    return (qt * qf.conjugate()).normalized().toAxisAngle();
}

Vec3f applyDelta(const Vec3f& base, const Vec3f& delta, float scale) {
    const geom::Quat qb = geom::Quat::fromAxisAngle(base);
    const geom::Quat qd = geom::Quat::fromAxisAngle(delta * scale);
    return (qd * qb).normalized().toAxisAngle();
}

}  // namespace

void PoseFilter::reset() {
    primed_ = false;
    velocity_ = {};
    rootVelocity_ = {};
}

Pose PoseFilter::filter(const Pose& observed, double timestamp) {
    if (!primed_) {
        state_ = observed;
        lastTime_ = timestamp;
        primed_ = true;
        return state_;
    }
    const double dt = timestamp - lastTime_;
    if (dt <= 0.0) return state_;
    lastTime_ = timestamp;

    const float dAlpha = alphaFor(kDerivativeCutoffHz, dt);

    for (std::size_t j = 0; j < kJointCount; ++j) {
        // Raw angular velocity and its low-pass.
        const Vec3f delta = rotationDelta(state_.jointRotations[j],
                                          observed.jointRotations[j]);
        const Vec3f rawVel = delta / static_cast<float>(dt);
        velocity_[j] = geom::lerp(velocity_[j], rawVel, dAlpha);

        // Speed-adaptive cutoff: fast joints track, slow joints smooth.
        const double cutoff =
            kMinCutoffHz + kBeta * static_cast<double>(velocity_[j].norm());
        const float a = alphaFor(cutoff, dt);
        state_.jointRotations[j] = applyDelta(state_.jointRotations[j], delta, a);
    }

    {
        const Vec3f delta = observed.rootTranslation - state_.rootTranslation;
        const Vec3f rawVel = delta / static_cast<float>(dt);
        rootVelocity_ = geom::lerp(rootVelocity_, rawVel, dAlpha);
        const double cutoff =
            kMinCutoffHz + kBeta * static_cast<double>(rootVelocity_.norm());
        state_.rootTranslation += delta * alphaFor(cutoff, dt);
    }

    // Expression channels smooth with the rest-rate cutoff.
    const float ea = alphaFor(kMinCutoffHz, dt);
    for (std::size_t e = 0; e < state_.expression.coeffs.size(); ++e)
        state_.expression.coeffs[e] = geom::lerp(
            state_.expression.coeffs[e], observed.expression.coeffs[e],
            static_cast<double>(ea));

    state_.shape = observed.shape;
    state_.frameId = observed.frameId;
    return state_;
}

std::optional<Pose> predictPose(const Pose& previous, double tPrev, const Pose& latest,
                                double tLatest, double horizonSeconds) {
    const double dt = tLatest - tPrev;
    if (dt <= 0.0) return std::nullopt;
    const float scale = static_cast<float>(horizonSeconds / dt);

    Pose out = latest;
    for (std::size_t j = 0; j < kJointCount; ++j) {
        const Vec3f delta =
            rotationDelta(previous.jointRotations[j], latest.jointRotations[j]);
        out.jointRotations[j] = applyDelta(latest.jointRotations[j], delta, scale);
    }
    out.rootTranslation =
        latest.rootTranslation +
        (latest.rootTranslation - previous.rootTranslation) * scale;
    for (std::size_t e = 0; e < out.expression.coeffs.size(); ++e) {
        const double v =
            latest.expression.coeffs[e] - previous.expression.coeffs[e];
        out.expression.coeffs[e] =
            latest.expression.coeffs[e] + v * static_cast<double>(scale);
    }
    return out;
}

double keypointDistance(const Pose& a, const Pose& b) {
    const auto ka = jointKeypoints(a);
    const auto kb = jointKeypoints(b);
    double total = 0.0;
    for (std::size_t j = 0; j < kJointCount; ++j) total += (ka[j] - kb[j]).norm();
    return total / static_cast<double>(kJointCount);
}

}  // namespace semholo::body
