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
// Node values are read where they are stored: in the dense VoxelGrid, or,
// when a BlockSampler is given, in its block store (B^3 floats per
// sampled block, one value per certified block). A halo sign row that
// crosses into neighbour blocks reads their runs; a crossing edge's two
// endpoint values are read the same way.
//
// Three entry points: extractIsoSurface over a sampled grid (optionally
// with the BlockSampler that sampled it), extractIsoSurface over a field
// (samples it through a BlockSampler first), and extractIsoSurfaceLegacy,
// the previous serial extractor over the dense grid, kept for
// differential tests and the within-run benchmark baseline.
#pragma once

#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/mesh/voxelgrid.hpp"

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
    // default for user-supplied grids; the reconstruction pipeline opts
    // out (its smooth capsule fields never hit nodes exactly) and saves
    // re-hashing the full vertex set every frame.
    bool weldVertices{true};
    // Worker pool the block-local extractor fans out over; nullptr runs
    // serially. Output is byte-identical for any worker count.
    core::ThreadPool* pool{nullptr};
};

// Extract the iso-surface of a sampled grid. 'sampler' (optional) must
// have been built on 'grid'; the values are then read from its block
// store, 'grid' supplies only the lattice (it may be a
// VoxelGrid::lattice), and the extractor works on the sampler's tiling
// and skips every cell inside a block it certified surface-free
// (BlockSampler::surfaceFree).
// Certified blocks provably contain no iso-crossing anywhere in their
// guard region, so those cells would emit nothing: the result is
// bit-identical to the extraction without a sampler, while the cell scan
// drops from O(R^3) to the blocks near the surface. Without a sampler
// the grid is tiled into BlockTiling::kDefaultBlockSize-node blocks and
// must hold values (a lattice grid throws std::invalid_argument).
// 'stats' (optional) receives the extractor's counters (blocksExtracted,
// activeCells, vertices, triangles); its other fields are left as they
// are.
TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler* sampler = nullptr,
                          const IsoSurfaceOptions& options = {},
                          ReconCounters* stats = nullptr);

// Sample 'field' over 'bounds' at cubic resolution 'resolution' and
// extract: the paper's "reconstruct mesh at output resolution R"
// operation (Figures 2 and 4). Sampling always runs through a
// BlockSampler with BlockTiling::kDefaultBlockSize-node blocks, per
// 'sampling' (certificate skips, SIMD batch, worker-pool fan-out). With
// default 'sampling' every node is field(nodePosition), serially, so the
// mesh is the one a dense VoxelGrid::sample would give; with a sound
// certificate it is bit-identical to that too. 'stats' (optional)
// receives the sampling and extraction counters.
TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options = {},
                          const FieldSampleOptions& sampling = {},
                          ReconCounters* stats = nullptr);

// Reference implementation: the original serial cell scan with hashed
// edge dedup and per-triangle geometric orientation. It always reads the
// dense grid's values (throws std::invalid_argument on a lattice grid),
// so a caller that sampled through a BlockSampler copies its values
// (BlockSampler::value) into the grid first; with that 'sampler'
// (optional) it skips the cells of blocks it certified surface-free.
// Kept independent of the block store on purpose: retained for
// differential testing and as the within-run baseline of the extraction
// benchmarks; emits the same triangle set as the block extractor (equal
// under canonicalTriangleSoup) with a different vertex numbering.
TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid,
                                const BlockSampler* sampler = nullptr,
                                const IsoSurfaceOptions& options = {});

}  // namespace semholo::mesh
