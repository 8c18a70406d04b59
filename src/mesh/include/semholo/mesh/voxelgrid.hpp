// Dense scalar voxel grid over an AABB, used to sample implicit body
// fields before iso-surface extraction. Resolution here is the paper's
// Figure 2/4 knob: an R-resolution reconstruction samples R^3 voxels.
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
    VoxelGrid(const AABB& bounds, Vec3i resolution);

    // Sample 'field' at every grid node, serially. This is the O(R^3)
    // step that dominates reconstruction time in Figure 4; the sparse,
    // parallel sampler is BlockSampler (blocksampler.hpp).
    void sample(const ScalarField& field);

    Vec3i resolution() const { return res_; }
    const AABB& bounds() const { return bounds_; }
    std::size_t nodeCount() const { return values_.size(); }

    // Node coordinates are inclusive of both faces: (res+1)^3 nodes.
    float& at(int x, int y, int z) { return values_[index(x, y, z)]; }
    float at(int x, int y, int z) const { return values_[index(x, y, z)]; }

    Vec3f nodePosition(int x, int y, int z) const;
    Vec3f cellSize() const { return cell_; }

    // Trilinear interpolation of the sampled field at an arbitrary point
    // (clamped to the grid bounds).
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
