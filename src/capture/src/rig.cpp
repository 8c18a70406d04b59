#include "semholo/capture/rig.hpp"

#include <cmath>

namespace semholo::capture {

constexpr float kRingHeight = 0.2f;  // camera height relative to subject pelvis

// Fusion filter.
constexpr int kPixelStride = 2;        // back-projection subsampling
constexpr float kVoxelSize = 0.012f;   // downsample leaf size
constexpr int kOutlierNeighbors = 8;
constexpr float kOutlierStddev = 2.0f;

CaptureRig::CaptureRig(const RigConfig& config) : config_(config) {
    const auto intr = geom::CameraIntrinsics::fromFov(
        config.imageWidth, config.imageHeight, config.fovY);
    cameras_.reserve(static_cast<std::size_t>(config.cameraCount));
    for (int i = 0; i < config.cameraCount; ++i) {
        const float angle = 2.0f * static_cast<float>(M_PI) * static_cast<float>(i) /
                            static_cast<float>(config.cameraCount);
        const geom::Vec3f eye{kRingRadius * std::sin(angle), kRingHeight,
                              kRingRadius * std::cos(angle)};
        cameras_.push_back(
            geom::Camera::lookAt(eye, {0.0f, 0.0f, 0.0f}, {0, 1, 0}, intr));
    }
}

std::vector<RGBDFrame> CaptureRig::capture(const mesh::TriMesh& subject,
                                           std::uint64_t frameSeed) const {
    std::vector<RGBDFrame> frames;
    frames.reserve(cameras_.size());
    for (std::size_t i = 0; i < cameras_.size(); ++i) {
        RGBDFrame frame = rasterize(subject, cameras_[i]);
        if (config_.addNoise) {
            applyDepthNoise(frame.depth, {}, frameSeed * 131 + i);
            applyColorNoise(frame.color, {}, frameSeed * 131 + i);
        }
        frames.push_back(std::move(frame));
    }
    return frames;
}

mesh::PointCloud CaptureRig::fuse(const std::vector<RGBDFrame>& frames) const {
    mesh::PointCloud merged;
    for (std::size_t i = 0; i < frames.size() && i < cameras_.size(); ++i)
        merged.append(unprojectToCloud(frames[i], cameras_[i], kPixelStride));
    if (merged.empty()) return merged;
    mesh::PointCloud filtered = merged.removeStatisticalOutliers(
        static_cast<std::size_t>(kOutlierNeighbors), kOutlierStddev);
    return filtered.voxelDownsample(kVoxelSize);
}

mesh::PointCloud CaptureRig::captureCloud(const mesh::TriMesh& subject,
                                          std::uint64_t frameSeed) const {
    return fuse(capture(subject, frameSeed));
}

}  // namespace semholo::capture
