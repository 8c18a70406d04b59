// The voxel lattice over an AABB: bounds, resolution and node positions.
// Resolution here is the paper's Figure 2/4 knob: an R-resolution
// reconstruction samples R^3 voxels. A VoxelGrid holds no values; a
// BlockSampler samples a field over it and keeps the node values in its
// block store (blocksampler.hpp).
#pragma once

#include <cstddef>
#include <functional>

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
    // (res+1)^3 nodes, inclusive of both faces.
    VoxelGrid(const AABB& bounds, Vec3i resolution);

    Vec3i resolution() const { return res_; }
    const AABB& bounds() const { return bounds_; }
    std::size_t nodeCount() const {
        return static_cast<std::size_t>(res_.x + 1) * static_cast<std::size_t>(res_.y + 1) *
               static_cast<std::size_t>(res_.z + 1);
    }

    Vec3f nodePosition(int x, int y, int z) const;
    Vec3f cellSize() const { return cell_; }

private:
    AABB bounds_;
    Vec3i res_;
    Vec3f cell_;
};

}  // namespace semholo::mesh
