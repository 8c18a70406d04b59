// Iso-surface extraction from a sampled scalar field.
//
// We use marching tetrahedra (each cube split into 6 tetrahedra) rather
// than table-driven marching cubes over 256 cube cases with ambiguous
// configurations: the tetrahedral cases are unambiguous and the cost
// profile is the identical O(R^3) that the paper's Figure 4 measures.
// Extracted meshes are watertight wherever the field's zero level set
// lies strictly inside the grid.
//
// The production extractor is block-local and table-driven, and every
// step runs on the worker pool per z-slab of blocks (see isosurface.cpp
// for the layout):
//
//   pass 1  per-block node sign rows (SIMD compares over the sampled
//           planes) -> active-cell lists + exact per-row vertex,
//           triangle and first-use counts, turned into offsets by
//           per-slab prefix sums;
//   pass 2  each crossing edge's position computed once, vertices
//           direct-indexed by (node, edge direction) instead of hashed;
//           then triangles from a per-cube case table, their positions
//           read back, one cross product each for the winding (the
//           legacy per-triangle orientation test, replayed bit for bit),
//           the degenerate test and the face normal;
//   tail    first-use renumbering, degenerate clean-up and per-vertex
//           normal sums in TriMesh::computeVertexNormals' order.
//
// Output ordering is canonical — triangles in cell scan order, vertices
// numbered by first use in that triangle stream — so the mesh is
// byte-identical for any worker count AND any block decomposition, which
// is what keeps the dense/sparse bit-identity guarantee intact (and
// keeps the index deltas the mesh codec feeds on as local as the legacy
// extractor's).
//
// Node values are read where they live, in a BlockSampler's block store
// (B^3 floats per sampled block, one value per certified block). A halo
// sign row that crosses into neighbour blocks reads their runs; a
// crossing edge's two endpoint values are read the same way.
//
// Two entry points: extractIsoSurface over a sampled BlockSampler, and
// extractIsoSurface over a field, which samples it through a
// BlockSampler first. The previous serial extractor, which reads a plain
// dense value array, lives outside this library as the reference for
// differential tests and the within-run benchmark baseline
// (reference/, extractIsoSurfaceLegacy).
#pragma once

#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/trimesh.hpp"

namespace semholo::core {
class ThreadPool;
}  // namespace semholo::core

namespace semholo::mesh {

struct IsoSurfaceOptions {
    float isoValue{0.0f};
    // Merge epsilon-coincident vertices after extraction. The extractor
    // already emits exactly one vertex per crossing node edge, so shared
    // cell and block boundaries are welded by construction; this pass
    // only merges vertices from *distinct* edges that land on the same
    // point (a surface passing exactly through a grid node). Kept on by
    // default for general fields; the reconstruction pipeline opts
    // out (its smooth capsule fields never hit nodes exactly) and saves
    // re-hashing the full vertex set every frame.
    bool weldVertices{true};
    // Worker pool the block-local extractor fans out over; nullptr runs
    // serially. Output is byte-identical for any worker count.
    core::ThreadPool* pool{nullptr};
};

// Extract the iso-surface of the field 'sampler' has sampled: values
// come from its block store, node positions from its lattice
// (BlockSampler::grid), and the extractor works on its tiling and skips
// every cell inside a block it certified surface-free
// (BlockSampler::surfaceFree). Certified blocks provably contain no
// iso-crossing anywhere in their guard region, so those cells would emit
// nothing: the mesh is bit-identical to the one from sampling every
// node, at any block size, while the cell scan drops from O(R^3) to the
// blocks near the surface. Throws std::logic_error, naming a block,
// when the store contradicts that promise: a node a work block reads
// inside a certified neighbour's guard region has the other sign (an
// unsound certificate). 'stats' (optional) receives the extractor's
// counters (blocksExtracted, activeCells, vertices, triangles); its
// other fields are left as they are.
TriMesh extractIsoSurface(const BlockSampler& sampler, const IsoSurfaceOptions& options = {},
                          ReconCounters* stats = nullptr);

// Sample 'field' over 'bounds' at cubic resolution 'resolution' and
// extract: the paper's "reconstruct mesh at output resolution R"
// operation (Figures 2 and 4). Sampling always runs through a
// BlockSampler with BlockTiling::kDefaultBlockSize-node blocks, per
// 'sampling' (certificate skips, SIMD batch, worker-pool fan-out). With
// default 'sampling' every node is field(nodePosition), serially; with a
// sound certificate the mesh is bit-identical to that one. A
// certificate proves "no zero crossing", so it combines only with
// options.isoValue 0: any other level throws std::invalid_argument
// before sampling. 'stats' (optional) receives the sampling and
// extraction counters.
TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options = {},
                          const FieldSampleOptions& sampling = {},
                          ReconCounters* stats = nullptr);

}  // namespace semholo::mesh
