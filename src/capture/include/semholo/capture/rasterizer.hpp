// Software z-buffer rasterizer: renders a triangle mesh into an RGB-D
// frame from a posed pinhole camera. This is the "RGB-D sensor" of the
// synthetic capture rig (DESIGN.md substitution for Kinect hardware).
#pragma once

#include "semholo/capture/image.hpp"
#include "semholo/geometry/camera.hpp"
#include "semholo/mesh/pointcloud.hpp"
#include "semholo/mesh/trimesh.hpp"

namespace semholo::capture {

struct RasterizerOptions {
    geom::Vec3f background{0.0f, 0.0f, 0.0f};
    // Simple headlight shading: colour *= max(|dot(n, view)|, 0.35), a
    // fixed floor (rasterizer.cpp).
    bool shade{true};
};

// Render 'mesh' from 'camera'. Depth image holds camera-space z (metres),
// 0 where nothing was hit. Vertex colours are interpolated when present,
// otherwise mid-grey is used.
RGBDFrame rasterize(const mesh::TriMesh& mesh, const geom::Camera& camera,
                    const RasterizerOptions& options = {});

// Depth-only variant (faster; used for occlusion tests).
DepthImage rasterizeDepth(const mesh::TriMesh& mesh, const geom::Camera& camera);

// Back-project a depth image (+ colours) into a world-space point cloud.
mesh::PointCloud unprojectToCloud(const RGBDFrame& frame, const geom::Camera& camera,
                                  int stride = 1);

}  // namespace semholo::capture
