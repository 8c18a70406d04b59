#include "semholo/mesh/voxelgrid.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace semholo::mesh {

VoxelGrid::VoxelGrid(const AABB& bounds, Vec3i resolution)
    : bounds_(bounds), res_(resolution) {
    const Vec3f ext = bounds.extent();
    cell_ = {ext.x / static_cast<float>(std::max(1, res_.x)),
             ext.y / static_cast<float>(std::max(1, res_.y)),
             ext.z / static_cast<float>(std::max(1, res_.z))};
    values_.assign(static_cast<std::size_t>(res_.x + 1) *
                       static_cast<std::size_t>(res_.y + 1) *
                       static_cast<std::size_t>(res_.z + 1),
                   0.0f);
}

void VoxelGrid::sample(const ScalarField& field) {
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
    const int x0 = geom::clamp(static_cast<int>(std::floor(local.x)), 0, res_.x - 1);
    const int y0 = geom::clamp(static_cast<int>(std::floor(local.y)), 0, res_.y - 1);
    const int z0 = geom::clamp(static_cast<int>(std::floor(local.z)), 0, res_.z - 1);
    const float tx = geom::clamp(local.x - static_cast<float>(x0), 0.0f, 1.0f);
    const float ty = geom::clamp(local.y - static_cast<float>(y0), 0.0f, 1.0f);
    const float tz = geom::clamp(local.z - static_cast<float>(z0), 0.0f, 1.0f);

    auto v = [&](int dx, int dy, int dz) { return at(x0 + dx, y0 + dy, z0 + dz); };
    const float c00 = geom::lerp(v(0, 0, 0), v(1, 0, 0), tx);
    const float c10 = geom::lerp(v(0, 1, 0), v(1, 1, 0), tx);
    const float c01 = geom::lerp(v(0, 0, 1), v(1, 0, 1), tx);
    const float c11 = geom::lerp(v(0, 1, 1), v(1, 1, 1), tx);
    const float c0 = geom::lerp(c00, c10, ty);
    const float c1 = geom::lerp(c01, c11, ty);
    return geom::lerp(c0, c1, tz);
}

}  // namespace semholo::mesh
