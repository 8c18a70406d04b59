// Quadric-error-metric mesh simplification (Garland-Heckbert edge
// collapse). Produces the level-of-detail ladder the adaptive
// traditional channel streams: the same subject at a fraction of the
// triangle budget, with positions chosen to minimise the accumulated
// plane-distance quadric. A collapse that would flip an incident face
// normal past a fixed cosine bound (simplify.cpp) is rejected.
#pragma once

#include "semholo/mesh/trimesh.hpp"

namespace semholo::mesh {

struct SimplifyOptions {
    // Stop when this many triangles remain.
    std::size_t targetTriangles{1000};
};

struct SimplifyResult {
    TriMesh mesh;
    std::size_t collapsesApplied{};
    std::size_t collapsesRejected{};
};

// Simplify a triangle mesh in one pass of greedy minimum-cost edge
// collapses. Vertex colours are carried through (collapsed vertices
// average their colours).
SimplifyResult simplify(const TriMesh& input, const SimplifyOptions& options = {});

}  // namespace semholo::mesh
