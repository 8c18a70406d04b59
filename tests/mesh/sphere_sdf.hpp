// A sphere's exact signed distance and its exact box certificate, shared
// by the sampler and extractor suites.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::mesh {

// Exact metric SDF (Lipschitz constant 1) of a sphere.
inline ScalarField sphereField(Vec3f center, float radius) {
    return [center, radius](Vec3f p) { return (p - center).norm() - radius; };
}

// Its exact analytic certificate: a box misses the iso-surface when its
// nearest point lies outside the sphere or its farthest corner inside.
inline std::function<bool(const geom::AABB&)> sphereCertificate(Vec3f center, float radius) {
    return [center, radius](const geom::AABB& g) {
        Vec3f nearest, farthest;
        for (std::size_t k = 0; k < 3; ++k) {
            nearest[k] = std::clamp(center[k], g.lo[k], g.hi[k]);
            farthest[k] = center[k] - g.lo[k] > g.hi[k] - center[k] ? g.lo[k] : g.hi[k];
        }
        return (nearest - center).norm() > radius || (farthest - center).norm() < radius;
    };
}

}  // namespace semholo::mesh
