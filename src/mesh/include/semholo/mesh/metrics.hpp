// Geometric fidelity metrics used to quantify the paper's "visual
// quality" axis (Figures 2 and 3): Chamfer and Hausdorff distances,
// point-to-plane error, MPEG-style point-cloud PSNR, and normal
// consistency.
#pragma once

#include "semholo/mesh/pointcloud.hpp"
#include "semholo/mesh/trimesh.hpp"

namespace semholo::mesh {

struct GeometryErrorStats {
    double meanForward{};    // mean distance A -> B
    double meanBackward{};   // mean distance B -> A
    double chamfer{};        // symmetric mean (average of the two)
    double hausdorff{};      // max over both directions
    double rmse{};           // symmetric root-mean-square distance
    double normalConsistency{};  // mean |n_a . n_b| over matches, in [0,1]
    // MPEG point-to-point geometry PSNR (dB) using the bounding-box
    // diagonal of the reference as the signal peak.
    double psnr{};
};

// Compare two point sets (with optional normals for normal consistency).
// Every field is NaN ("no data") when either set is empty.
GeometryErrorStats compareClouds(const PointCloud& a, const PointCloud& b);

// Compare two meshes by area-weighted surface sampling with
// 'samplesPerMesh' points each. Deterministic given 'seed'. Every field
// is NaN when either mesh yields no samples.
GeometryErrorStats compareMeshes(const TriMesh& a, const TriMesh& b,
                                 std::size_t samplesPerMesh = 20000,
                                 std::uint64_t seed = 7);

// Mean distance from each point of 'cloud' to the surface of 'reference'
// (point-to-mesh, using exact closest-point-on-triangle queries against
// a KD-tree of triangle centroids for candidate pruning). NaN when the
// cloud or the reference is empty.
double pointToMeshError(const PointCloud& cloud, const TriMesh& reference);

}  // namespace semholo::mesh
