// The reference iso-surface extractor: the original serial cell scan
// with hashed edge dedup and per-triangle geometric orientation, over a
// lattice and a plain dense array of node values. It does not read the
// block store the production extractor (semholo/mesh/isosurface.hpp)
// reads, so the two stay independent: the differential tests compare
// their triangle sets (equal under canonicalTriangleSoup; the vertex
// numbering differs), and the Figure 4 and extraction benchmarks time
// them against each other within one run.
#pragma once

#include <vector>

#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::mesh {

// Extract the iso-surface of 'values', one per node of 'grid' in
// (z, y, x) order, x fastest (throws std::invalid_argument on a size
// mismatch). With 'sampler' (optional, built on the same lattice) it
// skips the cells of blocks the sampler certified surface-free, as the
// production extractor does, so the two do the same cell work.
TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const std::vector<float>& values,
                                const BlockSampler* sampler = nullptr,
                                const IsoSurfaceOptions& options = {});

// The sampler's stored value of every node of its lattice, in the order
// extractIsoSurfaceLegacy reads.
std::vector<float> denseValues(const BlockSampler& sampler);

}  // namespace semholo::mesh
