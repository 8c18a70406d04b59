// Multi-camera RGB-D capture rig: N synchronised, calibrated sensors on
// a ring around the subject, with fusion into a world-space point cloud
// (synchronisation, calibration, filtering — section 2.1's capture
// pipeline). The ring geometry and the fusion filter are fixed model
// constants (rig.cpp); sensor noise is noise.hpp's model at its defaults.
#pragma once

#include <cstdint>
#include <vector>

#include "semholo/capture/noise.hpp"
#include "semholo/capture/rasterizer.hpp"
#include "semholo/geometry/camera.hpp"
#include "semholo/mesh/pointcloud.hpp"
#include "semholo/mesh/trimesh.hpp"

namespace semholo::capture {

// Camera distance from the subject (metres).
inline constexpr float kRingRadius = 2.2f;

struct RigConfig {
    int cameraCount{4};
    int imageWidth{320};
    int imageHeight{240};
    float fovY{1.05f};        // ~60 degrees
    bool addNoise{true};
};

class CaptureRig {
public:
    explicit CaptureRig(const RigConfig& config = {});

    const std::vector<geom::Camera>& cameras() const { return cameras_; }
    const RigConfig& config() const { return config_; }

    // Capture one synchronized multi-view frame of 'subject'.
    std::vector<RGBDFrame> capture(const mesh::TriMesh& subject,
                                   std::uint64_t frameSeed) const;

    // Fuse multi-view frames into a filtered world-space point cloud.
    mesh::PointCloud fuse(const std::vector<RGBDFrame>& frames) const;

    // Convenience: capture + fuse.
    mesh::PointCloud captureCloud(const mesh::TriMesh& subject,
                                  std::uint64_t frameSeed) const;

private:
    RigConfig config_{};
    std::vector<geom::Camera> cameras_;
};

}  // namespace semholo::capture
