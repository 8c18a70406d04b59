// Keypoint detector simulators (DESIGN.md substitution for DL models).
//
// Section 2.3 contrasts two 3D keypoint detection routes:
//  (a) 2D detection per view + learned lifting to 3D — RGB only, extra
//      compute and error from the lifting stage;
//  (b) direct 3D from RGB-D depth — faster, more accurate, needs depth.
//
// We simulate both against the ground-truth joints of the synthetic
// subject: per-joint pixel/depth noise, occlusion-driven confidence and
// dropout, and an explicit *simulated* inference-cost model calibrated
// to published detector timings (OpenPose-class 2D, VideoPose3D-class
// lifting, Kinect-SDK-class direct 3D). The noise and cost models are
// fixed constants (keypoints.cpp): documented data, not measured compute
// — they drive the Table 1 / Ablation D comparisons deterministically.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "semholo/body/pose.hpp"
#include "semholo/capture/rig.hpp"

namespace semholo::capture {

using body::kJointCount;

// Keypoint extraction granularity (the section 3.1 trade-off between the
// number of extracted keypoints, computation overhead and visual
// quality). Body25 is an OpenPose-class body-only detector; Extended40
// adds per-finger base joints and the face anchors; Full55 is the whole
// SMPL-X-style rig including every finger segment.
enum class KeypointSet : std::uint8_t { Body25, Extended40, Full55 };

// Which joints a detector of the given granularity reports.
std::array<bool, kJointCount> keypointSetMask(KeypointSet set);
std::size_t keypointSetCount(KeypointSet set);
std::string_view keypointSetName(KeypointSet set);

struct KeypointObservation {
    std::array<geom::Vec3f, kJointCount> positions{};
    std::array<float, kJointCount> confidence{};  // 0 = dropped out
    // Simulated inference cost of producing this observation (ms).
    double simulatedLatencyMs{0.0};
};

// Route (a): per-view 2D detection (pixel noise + occlusion dropout),
// multi-view triangulation, then a lifting-noise term. Uses only the RGB
// and depth-for-occlusion of the frames.
KeypointObservation detectKeypoints2DLifted(const CaptureRig& rig,
                                            const std::vector<RGBDFrame>& frames,
                                            const body::Pose& groundTruth,
                                            std::uint64_t seed,
                                            KeypointSet set = KeypointSet::Full55);

// Route (b): direct 3D extraction from the RGB-D frames.
KeypointObservation detectKeypoints3DDirect(const CaptureRig& rig,
                                            const std::vector<RGBDFrame>& frames,
                                            const body::Pose& groundTruth,
                                            std::uint64_t seed,
                                            KeypointSet set = KeypointSet::Full55);

// Mean position error of an observation vs the ground-truth joints,
// over joints whose confidence is at least body::kKeypointMinConfidence
// (the floor the IK fit uses).
double keypointError(const KeypointObservation& obs, const body::Pose& groundTruth);

}  // namespace semholo::capture
