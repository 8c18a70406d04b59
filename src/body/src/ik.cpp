#include "semholo/body/ik.hpp"

#include <cmath>

namespace semholo::body {

namespace {

// Rotation mapping the frame spanned by (a1, a2) onto (b1, b2): primary
// axis matched exactly, secondary matched as closely as the orthogonality
// constraint allows.
Quat frameAlign(Vec3f a1, Vec3f a2, Vec3f b1, Vec3f b2) {
    const Quat primary = Quat::fromTwoVectors(a1, b1);
    // Twist about b1 to bring the rotated a2 towards b2.
    const Vec3f a2r = primary.rotate(a2);
    // Project both onto the plane orthogonal to b1.
    const Vec3f axis = b1.normalized();
    const Vec3f p1 = (a2r - axis * a2r.dot(axis));
    const Vec3f p2 = (b2 - axis * b2.dot(axis));
    if (p1.norm2() < 1e-10f || p2.norm2() < 1e-10f) return primary;
    const Quat twist = Quat::fromTwoVectors(p1, p2);
    return (twist * primary).normalized();
}

}  // namespace

IkResult fitPoseToKeypoints(const std::array<Vec3f, kJointCount>& keypoints,
                            const std::array<float, kJointCount>& confidence,
                            const ShapeParams& shape) {
    const Skeleton& sk = Skeleton::canonical();
    Pose pose;
    pose.shape = shape;
    if (confidence[index(JointId::Pelvis)] >= kKeypointMinConfidence) {
        pose.rootTranslation = keypoints[index(JointId::Pelvis)];
    } else {
        // Pelvis dropped: estimate the root as the mean offset between
        // the usable observations and their rest positions.
        Vec3f sum{};
        int n = 0;
        for (std::size_t i = 0; i < kJointCount; ++i) {
            if (confidence[i] < kKeypointMinConfidence) continue;
            sum += keypoints[i] - sk.restPosition(static_cast<JointId>(i));
            ++n;
        }
        pose.rootTranslation = n > 0 ? sum / static_cast<float>(n) : Vec3f{};
    }

    // World rotations chosen per joint, root to leaves.
    std::array<Quat, kJointCount> worldRot;
    worldRot.fill(Quat::identity());

    auto usable = [&](JointId id) {
        return confidence[index(id)] >= kKeypointMinConfidence;
    };

    for (const Joint& j : sk.joints()) {
        const std::size_t ji = index(j.id);
        const auto& children = sk.children()[ji];

        // Gather usable child observations.
        Vec3f restDir1{}, restDir2{}, obsDir1{}, obsDir2{};
        int found = 0;
        for (const JointId c : children) {
            if (!usable(c) || !usable(j.id)) continue;
            const Vec3f rest = sk.joint(c).restOffset;
            if (rest.norm2() < 1e-10f) continue;
            const Vec3f obs = keypoints[index(c)] - keypoints[ji];
            if (obs.norm2() < 1e-10f) continue;
            if (found == 0) {
                restDir1 = rest.normalized();
                obsDir1 = obs.normalized();
            } else if (found == 1) {
                // Skip nearly collinear second axes (no twist signal).
                if (std::fabs(rest.normalized().dot(restDir1)) > 0.98f) continue;
                restDir2 = rest.normalized();
                obsDir2 = obs.normalized();
            }
            ++found;
            if (found >= 2) break;
        }

        if (found == 0) {
            // No observation: inherit parent rotation (local identity).
            worldRot[ji] = sk.isRoot(j.id) ? Quat::identity()
                                           : worldRot[index(j.parent)];
        } else if (found == 1) {
            worldRot[ji] = Quat::fromTwoVectors(restDir1, obsDir1);
        } else {
            worldRot[ji] = frameAlign(restDir1, restDir2, obsDir1, obsDir2);
        }

        const Quat parentRot =
            sk.isRoot(j.id) ? Quat::identity() : worldRot[index(j.parent)];
        pose.jointRotations[ji] =
            (parentRot.conjugate() * worldRot[ji]).normalized().toAxisAngle();
    }

    // Residual: RMS keypoint error of the recovered pose.
    const auto recovered = jointKeypoints(pose);
    float sumSq = 0.0f;
    int n = 0;
    for (std::size_t i = 0; i < kJointCount; ++i) {
        if (confidence[i] < kKeypointMinConfidence) continue;
        sumSq += (recovered[i] - keypoints[i]).norm2();
        ++n;
    }
    return {pose, n > 0 ? std::sqrt(sumSq / static_cast<float>(n)) : 0.0f};
}

IkResult fitPoseToKeypoints(const std::array<Vec3f, kJointCount>& keypoints,
                            const ShapeParams& shape) {
    std::array<float, kJointCount> ones;
    ones.fill(1.0f);
    return fitPoseToKeypoints(keypoints, ones, shape);
}

}  // namespace semholo::body
