// Texture alignment for keypoint reconstructions (section 3.1, "High-
// quality Texture Alignment") and the learned-texture comparison of
// Figure 3.
//
// projectTexture implements the proposed solution: deliver the
// compressed ground-truth texture and align it to the reconstructed
// geometry with projection mapping (nearest-surface lookup against the
// textured reference, the projection-mapping + deformation scheme of
// [27, 28, 12]).
//
// learnedTexture stands in for X-Avatar's texture network: a low-pass
// (limited-capacity) approximation that keeps region colours but loses
// the high-frequency detail (cloth stripes), exactly the failure mode
// Figure 3 reports for learned appearance.
#pragma once

#include "semholo/mesh/trimesh.hpp"

namespace semholo::recon {

using mesh::TriMesh;

// Assign per-vertex colours to 'target' by projecting from the textured
// 'reference' surface (nearest sample among 'referenceSamples' surface
// points). Returns the mean projection distance (geometry inconsistency,
// the section 3.1 alignment challenge metric).
double projectTexture(TriMesh& target, const TriMesh& reference,
                      std::size_t referenceSamples = 40000);

struct LearnedTextureOptions {
    // Smoothing radius as a fraction of the mesh bounding diagonal.
    // Larger radius = lower network capacity = more detail lost.
    float radiusFraction{0.04f};
};

// Replace the mesh's colours with a capacity-limited approximation.
void applyLearnedTexture(TriMesh& mesh, const LearnedTextureOptions& options = {});

// Mean per-vertex colour error between two meshes with identical
// vertex layouts.
double colorError(const TriMesh& a, const TriMesh& b);

}  // namespace semholo::recon
