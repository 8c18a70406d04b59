#include "semholo/body/pose.hpp"

#include <cmath>

#include "semholo/geometry/byteio.hpp"

namespace semholo::body {

using byteio::putF64;
using byteio::putU32;

std::vector<std::uint8_t> serializePose(const Pose& pose) {
    std::vector<std::uint8_t> out;
    out.reserve(kPosePayloadBytes);
    putU32(out, pose.frameId);
    for (const Vec3f& r : pose.jointRotations) {
        putF64(out, r.x);
        putF64(out, r.y);
        putF64(out, r.z);
    }
    putF64(out, pose.rootTranslation.x);
    putF64(out, pose.rootTranslation.y);
    putF64(out, pose.rootTranslation.z);
    for (const double b : pose.shape.betas) putF64(out, b);
    for (const double e : pose.expression.coeffs) putF64(out, e);
    return out;
}

std::optional<Pose> deserializePose(std::span<const std::uint8_t> bytes) {
    if (bytes.size() != kPosePayloadBytes) return std::nullopt;
    Pose pose;
    byteio::Reader r{bytes};
    pose.frameId = r.u32();
    for (Vec3f& rot : pose.jointRotations) {
        rot.x = static_cast<float>(r.f64());
        rot.y = static_cast<float>(r.f64());
        rot.z = static_cast<float>(r.f64());
    }
    pose.rootTranslation.x = static_cast<float>(r.f64());
    pose.rootTranslation.y = static_cast<float>(r.f64());
    pose.rootTranslation.z = static_cast<float>(r.f64());
    for (double& b : pose.shape.betas) b = r.f64();
    for (double& e : pose.expression.coeffs) e = r.f64();
    return pose;
}

float boneScale(const ShapeParams& shape, JointId joint) {
    // beta[0]: global stature; beta[1]: limb (arm+leg) length;
    // beta[2] affects torso height. Coefficients are small so the scale
    // stays positive for |beta| < 5.
    const auto b = shape.betas;
    float scale = 1.0f + 0.05f * static_cast<float>(b[0]);
    const std::size_t j = index(joint);
    const bool isArm = (j >= index(JointId::LeftClavicle) &&
                        j <= index(JointId::RightWrist)) ||
                       j >= index(JointId::LeftThumb1);
    const bool isLeg =
        j >= index(JointId::LeftHip) && j <= index(JointId::RightFoot);
    const bool isTorso = j >= index(JointId::Spine1) && j <= index(JointId::Head);
    if (isArm || isLeg) scale *= 1.0f + 0.04f * static_cast<float>(b[1]);
    if (isTorso) scale *= 1.0f + 0.03f * static_cast<float>(b[2]);
    // Higher betas perturb smaller groups; keep the mapping deterministic.
    scale *= 1.0f + 0.005f * static_cast<float>(b[3 + (j % 13)]) *
                        static_cast<float>((j % 7) + 1) / 7.0f;
    return std::max(0.2f, scale);
}

SkeletonState forwardKinematics(const Pose& pose, const Skeleton& skeleton) {
    SkeletonState state;
    for (const Joint& j : skeleton.joints()) {
        const std::size_t i = index(j.id);
        const Quat localRot = Quat::fromAxisAngle(pose.jointRotations[i]);
        if (skeleton.isRoot(j.id)) {
            state.worldFromJoint[i] = {localRot, pose.rootTranslation};
            continue;
        }
        const RigidTransform& parent = state.worldFromJoint[index(j.parent)];
        const Vec3f offset = j.restOffset * boneScale(pose.shape, j.id);
        // Child frame: rotate about the child joint located at
        // parent * offset.
        state.worldFromJoint[i] = {
            (parent.rotation * localRot).normalized(),
            parent.apply(offset),
        };
    }
    return state;
}

std::array<Vec3f, kJointCount> jointKeypoints(const Pose& pose) {
    const SkeletonState state = forwardKinematics(pose);
    std::array<Vec3f, kJointCount> out;
    for (std::size_t i = 0; i < kJointCount; ++i)
        out[i] = state.worldFromJoint[i].translation;
    return out;
}

Pose interpolatePoses(const Pose& a, const Pose& b, float t) {
    Pose out = t < 0.5f ? a : b;
    for (std::size_t i = 0; i < kJointCount; ++i) {
        const Quat qa = Quat::fromAxisAngle(a.jointRotations[i]);
        const Quat qb = Quat::fromAxisAngle(b.jointRotations[i]);
        out.jointRotations[i] = slerp(qa, qb, t).toAxisAngle();
    }
    out.rootTranslation = geom::lerp(a.rootTranslation, b.rootTranslation, t);
    for (std::size_t i = 0; i < out.expression.coeffs.size(); ++i)
        out.expression.coeffs[i] = geom::lerp(a.expression.coeffs[i],
                                              b.expression.coeffs[i],
                                              static_cast<double>(t));
    return out;
}

float poseDistance(const Pose& a, const Pose& b) {
    float sumSq = 0.0f;
    for (std::size_t i = 0; i < kJointCount; ++i) {
        const float d = geom::angularDistance(Quat::fromAxisAngle(a.jointRotations[i]),
                                              Quat::fromAxisAngle(b.jointRotations[i]));
        sumSq += d * d;
    }
    return std::sqrt(sumSq / static_cast<float>(kJointCount));
}

}  // namespace semholo::body
