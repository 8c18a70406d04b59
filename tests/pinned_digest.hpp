// FNV-1a over the exact bit patterns of a module's outputs, for the
// *.DefaultOutputsMatchPinnedDigest tests: each folds a fixed input's
// outputs into one digest recorded from the code at the time the test
// was written, so any change to a model constant, an iteration order or
// an arithmetic step shows as a mismatch. Header-only and dependent
// only on the geometry vector types, so every test binary can use it.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "semholo/geometry/vec.hpp"

namespace semholo::pinned {

struct Digest {
    std::uint64_t h{0xcbf29ce484222325ull};

    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0x7ff8000000000000ull;  // one bit pattern for NaN
        if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(float v) {
        std::uint32_t bits = 0x7fc00000u;
        if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof bits);
        add(std::uint64_t{bits});
    }
    void add(geom::Vec2f v) {
        add(v.x);
        add(v.y);
    }
    void add(geom::Vec3f v) {
        add(v.x);
        add(v.y);
        add(v.z);
    }
    template <typename T>
    void add(const std::vector<T>& values) {
        add(std::uint64_t{values.size()});
        for (const T& v : values) add(v);
    }
    // A mesh::TriMesh: positions, indices, normals and colours.
    template <typename Mesh>
    void addMesh(const Mesh& m) {
        add(m.vertices);
        add(std::uint64_t{m.triangles.size()});
        for (const auto& t : m.triangles)
            for (const std::uint32_t i : {t.a, t.b, t.c}) add(std::uint64_t{i});
        add(m.normals);
        add(m.colors);
    }
};

}  // namespace semholo::pinned
