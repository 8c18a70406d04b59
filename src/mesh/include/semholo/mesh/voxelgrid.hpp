// Dense scalar voxel grid over an AABB: the value store of the dense
// reconstruction baseline and of user-supplied grids. Resolution here is
// the paper's Figure 2/4 knob: an R-resolution reconstruction samples
// R^3 voxels. The sparse receiver keeps its values in a BlockSampler's
// block store instead (blocksampler.hpp) and uses a VoxelGrid only for
// its lattice: VoxelGrid::lattice allocates no values.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "semholo/geometry/transform.hpp"
#include "semholo/geometry/vec.hpp"

namespace semholo::mesh {

using geom::AABB;
using geom::Vec3f;
using geom::Vec3i;

// A scalar field sampled at arbitrary 3D points (signed distance,
// occupancy, density...). Field closures must be safe to call from
// multiple threads concurrently (pure w.r.t. captured state, or using
// atomics for instrumentation): the samplers below fan evaluations out
// over a worker pool.
using ScalarField = std::function<float(Vec3f)>;

// SoA batch companion to ScalarField: evaluate n query points given as
// separate x/y/z arrays, writing n results to 'out'. Implementations
// must return, per point, exactly the value the paired ScalarField
// returns (bit-identical), so samplers may mix the two freely. Same
// thread-safety requirement as ScalarField.
using BatchScalarField = std::function<void(
    const float* xs, const float* ys, const float* zs, float* out, std::size_t n)>;

class VoxelGrid {
public:
    VoxelGrid() = default;
    // (res+1)^3 nodes, every value zero.
    VoxelGrid(const AABB& bounds, Vec3i resolution);
    // The lattice alone: bounds, resolution and node positions, with no
    // value storage (values() is empty, hasValues() false). It is what a
    // BlockSampler samples over and what extraction with that sampler
    // reads positions from. sample() and the extractors that would read
    // its values throw std::invalid_argument; at() is unchecked and must
    // not be called on it.
    static VoxelGrid lattice(const AABB& bounds, Vec3i resolution);

    // Sample 'field' at every grid node, serially. This is the O(R^3)
    // step that dominates reconstruction time in Figure 4; the sparse,
    // parallel sampler is BlockSampler (blocksampler.hpp).
    // Throws std::invalid_argument on a lattice grid.
    void sample(const ScalarField& field);

    Vec3i resolution() const { return res_; }
    const AABB& bounds() const { return bounds_; }
    std::size_t nodeCount() const {
        return static_cast<std::size_t>(res_.x + 1) * static_cast<std::size_t>(res_.y + 1) *
               static_cast<std::size_t>(res_.z + 1);
    }
    // Whether the grid stores a value per node (false for a lattice).
    bool hasValues() const { return values_.size() == nodeCount(); }

    // Node coordinates are inclusive of both faces: (res+1)^3 nodes.
    float& at(int x, int y, int z) { return values_[index(x, y, z)]; }
    float at(int x, int y, int z) const { return values_[index(x, y, z)]; }

    Vec3f nodePosition(int x, int y, int z) const;
    Vec3f cellSize() const { return cell_; }

    // Trilinear interpolation of the sampled field at an arbitrary point
    // (clamped to the grid bounds). An axis of resolution 0 has one node
    // plane, which every point reads.
    float interpolate(Vec3f p) const;

    const std::vector<float>& values() const { return values_; }
    std::vector<float>& values() { return values_; }

private:
    std::size_t index(int x, int y, int z) const {
        return (static_cast<std::size_t>(z) * (res_.y + 1) + static_cast<std::size_t>(y)) *
                   (res_.x + 1) +
               static_cast<std::size_t>(x);
    }

    AABB bounds_{};
    Vec3i res_{0, 0, 0};
    Vec3f cell_{};
    std::vector<float> values_;
};

}  // namespace semholo::mesh
