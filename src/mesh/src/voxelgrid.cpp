#include "semholo/mesh/voxelgrid.hpp"

#include <algorithm>

namespace semholo::mesh {

VoxelGrid::VoxelGrid(const AABB& bounds, Vec3i resolution) : bounds_(bounds), res_(resolution) {
    const Vec3f ext = bounds.extent();
    cell_ = {ext.x / static_cast<float>(std::max(1, resolution.x)),
             ext.y / static_cast<float>(std::max(1, resolution.y)),
             ext.z / static_cast<float>(std::max(1, resolution.z))};
}

Vec3f VoxelGrid::nodePosition(int x, int y, int z) const {
    return {bounds_.lo.x + cell_.x * static_cast<float>(x),
            bounds_.lo.y + cell_.y * static_cast<float>(y),
            bounds_.lo.z + cell_.z * static_cast<float>(z)};
}

}  // namespace semholo::mesh
