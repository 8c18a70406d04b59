// Keypoints -> pose alignment (inverse kinematics).
//
// The receiver in the keypoint pipeline gets 3D joint positions (possibly
// noisy, from the detector simulators) and must express them as SMPL-X-
// style pose parameters before reconstruction, exactly as the paper's
// proof-of-concept aligns detected keypoints with SMPL-X. We solve it
// hierarchically: each joint's world rotation is chosen to map its rest-
// pose child offsets onto the observed child directions (two-axis frame
// alignment when two or more children are available, shortest-arc
// otherwise); local rotations follow by composing with the parent.
#pragma once

#include <array>

#include "semholo/body/pose.hpp"

namespace semholo::body {

// Keypoints whose confidence is below this are ignored (their joints
// inherit the parent direction). Matches detector dropout handling; the
// keypoint error metric (capture::keypointError) uses the same floor.
inline constexpr float kKeypointMinConfidence = 0.05f;

struct IkResult {
    Pose pose;
    // RMS distance between the observed keypoints and the keypoints of
    // the recovered pose (metres): the alignment residual.
    float residual{};
};

// Fit a pose to observed world-space keypoints. 'confidence' may be all
// ones when the detector does not provide it. 'shape' is the session-
// constant subject shape the recovered pose carries.
IkResult fitPoseToKeypoints(const std::array<Vec3f, kJointCount>& keypoints,
                            const std::array<float, kJointCount>& confidence,
                            const ShapeParams& shape = {});

IkResult fitPoseToKeypoints(const std::array<Vec3f, kJointCount>& keypoints,
                            const ShapeParams& shape = {});

}  // namespace semholo::body
