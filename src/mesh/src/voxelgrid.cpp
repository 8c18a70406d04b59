#include "semholo/mesh/voxelgrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace semholo::mesh {

VoxelGrid::VoxelGrid(const AABB& bounds, Vec3i resolution) {
    *this = lattice(bounds, resolution);
    values_.assign(nodeCount(), 0.0f);
}

VoxelGrid VoxelGrid::lattice(const AABB& bounds, Vec3i resolution) {
    VoxelGrid grid;
    grid.bounds_ = bounds;
    grid.res_ = resolution;
    const Vec3f ext = bounds.extent();
    grid.cell_ = {ext.x / static_cast<float>(std::max(1, resolution.x)),
                  ext.y / static_cast<float>(std::max(1, resolution.y)),
                  ext.z / static_cast<float>(std::max(1, resolution.z))};
    return grid;
}

void VoxelGrid::sample(const ScalarField& field) {
    if (!hasValues())
        throw std::invalid_argument("VoxelGrid::sample: a lattice grid holds no values");
    for (int z = 0; z <= res_.z; ++z)
        for (int y = 0; y <= res_.y; ++y)
            for (int x = 0; x <= res_.x; ++x)
                values_[index(x, y, z)] = field(nodePosition(x, y, z));
}

Vec3f VoxelGrid::nodePosition(int x, int y, int z) const {
    return {bounds_.lo.x + cell_.x * static_cast<float>(x),
            bounds_.lo.y + cell_.y * static_cast<float>(y),
            bounds_.lo.z + cell_.z * static_cast<float>(z)};
}

float VoxelGrid::interpolate(Vec3f p) const {
    if (values_.empty()) return 0.0f;
    const Vec3f local{(p.x - bounds_.lo.x) / cell_.x, (p.y - bounds_.lo.y) / cell_.y,
                      (p.z - bounds_.lo.z) / cell_.z};
    // Low corner and the next node per axis; a zero-resolution axis has
    // one node, which both corners read.
    auto low = [](float l, int res) {
        return geom::clamp(static_cast<int>(std::floor(l)), 0, std::max(res - 1, 0));
    };
    const int x0 = low(local.x, res_.x);
    const int y0 = low(local.y, res_.y);
    const int z0 = low(local.z, res_.z);
    const int x1 = std::min(x0 + 1, res_.x);
    const int y1 = std::min(y0 + 1, res_.y);
    const int z1 = std::min(z0 + 1, res_.z);
    const float tx = geom::clamp(local.x - static_cast<float>(x0), 0.0f, 1.0f);
    const float ty = geom::clamp(local.y - static_cast<float>(y0), 0.0f, 1.0f);
    const float tz = geom::clamp(local.z - static_cast<float>(z0), 0.0f, 1.0f);

    auto v = [&](int dx, int dy, int dz) {
        return at(dx != 0 ? x1 : x0, dy != 0 ? y1 : y0, dz != 0 ? z1 : z0);
    };
    const float c00 = geom::lerp(v(0, 0, 0), v(1, 0, 0), tx);
    const float c10 = geom::lerp(v(0, 1, 0), v(1, 1, 0), tx);
    const float c01 = geom::lerp(v(0, 0, 1), v(1, 0, 1), tx);
    const float c11 = geom::lerp(v(0, 1, 1), v(1, 1, 1), tx);
    const float c0 = geom::lerp(c00, c10, ty);
    const float c1 = geom::lerp(c01, c11, ty);
    return geom::lerp(c0, c1, tz);
}

}  // namespace semholo::mesh
