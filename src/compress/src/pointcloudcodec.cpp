#include "semholo/compress/pointcloudcodec.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "semholo/compress/lzc.hpp"
#include "semholo/geometry/byteio.hpp"

namespace semholo::compress {

namespace {

constexpr std::uint32_t kMagic = 0x53485043;  // "SHPC"

using byteio::putF32;
using byteio::putU16;
using byteio::putU32;
using geom::Vec3f;

std::uint16_t pack565(Vec3f c) {
    const auto r = static_cast<std::uint16_t>(geom::clamp(c.x, 0.0f, 1.0f) * 31.0f + 0.5f);
    const auto g = static_cast<std::uint16_t>(geom::clamp(c.y, 0.0f, 1.0f) * 63.0f + 0.5f);
    const auto b = static_cast<std::uint16_t>(geom::clamp(c.z, 0.0f, 1.0f) * 31.0f + 0.5f);
    return static_cast<std::uint16_t>((r << 11) | (g << 5) | b);
}

Vec3f unpack565(std::uint16_t v) {
    return {static_cast<float>((v >> 11) & 31) / 31.0f,
            static_cast<float>((v >> 5) & 63) / 63.0f,
            static_cast<float>(v & 31) / 31.0f};
}

// Morton (z-order) keys: sorting leaves by Morton code keeps all
// descendants of a node contiguous, so breadth-first occupancy masks can
// be emitted with a single linear sweep per level. Octant bit layout:
// bit2 = x, bit1 = y, bit0 = z.
std::uint64_t mortonEncode(std::uint64_t x, std::uint64_t y, std::uint64_t z,
                           int depth) {
    std::uint64_t key = 0;
    for (int i = 0; i < depth; ++i) {
        key |= ((x >> i) & 1ull) << (3 * i + 2);
        key |= ((y >> i) & 1ull) << (3 * i + 1);
        key |= ((z >> i) & 1ull) << (3 * i);
    }
    return key;
}

void mortonDecode(std::uint64_t key, int depth, std::uint64_t& x, std::uint64_t& y,
                  std::uint64_t& z) {
    x = y = z = 0;
    for (int i = 0; i < depth; ++i) {
        x |= ((key >> (3 * i + 2)) & 1ull) << i;
        y |= ((key >> (3 * i + 1)) & 1ull) << i;
        z |= ((key >> (3 * i)) & 1ull) << i;
    }
}

}  // namespace

float pointCloudQuantizationError(const mesh::PointCloud& cloud, int depth) {
    const auto ext = cloud.bounds().extent();
    const float maxExt = std::max({ext.x, ext.y, ext.z, 1e-9f});
    const float cell = maxExt / static_cast<float>(1u << depth);
    return cell * 0.8660254f;  // half-diagonal
}

std::vector<std::uint8_t> encodePointCloud(const mesh::PointCloud& cloud,
                                           const PointCloudCodecOptions& options) {
    const int depth = geom::clamp(options.depth, 1, 20);
    const bool colors = options.encodeColors && cloud.hasColors();
    const auto bounds = cloud.bounds();
    const Vec3f lo = cloud.empty() ? Vec3f{} : bounds.lo;
    const Vec3f ext = cloud.empty() ? Vec3f{} : bounds.extent();
    const auto res = static_cast<float>(1u << depth);

    // Quantise into Morton-keyed leaf cells, averaging merged colours.
    struct Leaf {
        Vec3f colorSum{};
        std::uint32_t count{};
    };
    std::map<std::uint64_t, Leaf> leaves;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const Vec3f& p = cloud.points[i];
        auto cellOf = [&](float v, float l, float e) {
            const float norm = e > 0.0f ? (v - l) / e : 0.0f;
            return static_cast<std::uint64_t>(
                geom::clamp(norm * res, 0.0f, res - 1.0f));
        };
        const std::uint64_t key =
            mortonEncode(cellOf(p.x, lo.x, ext.x), cellOf(p.y, lo.y, ext.y),
                         cellOf(p.z, lo.z, ext.z), depth);
        Leaf& leaf = leaves[key];
        if (colors) leaf.colorSum += cloud.colors[i];
        ++leaf.count;
    }

    std::vector<std::uint8_t> raw;
    putU32(raw, kMagic);
    putU32(raw, static_cast<std::uint32_t>(depth) | (colors ? 0x80000000u : 0u));
    putU32(raw, static_cast<std::uint32_t>(leaves.size()));
    putF32(raw, lo.x);
    putF32(raw, lo.y);
    putF32(raw, lo.z);
    putF32(raw, ext.x);
    putF32(raw, ext.y);
    putF32(raw, ext.z);

    if (!leaves.empty()) {
        // Breadth-first occupancy. Level-l node key = leaf Morton key
        // shifted right by 3*(depth-l); map order is already Morton order
        // at every level, and descendants stay contiguous.
        std::vector<std::uint64_t> level{0};  // root
        for (int l = 0; l < depth; ++l) {
            const int childShift = 3 * (depth - l - 1);
            std::vector<std::uint64_t> next;
            std::uint64_t prevChildKey = ~0ull;
            for (const auto& [leafKey, leaf] : leaves) {
                const std::uint64_t childKey = leafKey >> childShift;
                if (childKey != prevChildKey) {
                    next.push_back(childKey);
                    prevChildKey = childKey;
                }
            }
            std::size_t childIdx = 0;
            for (const std::uint64_t nodeKey : level) {
                std::uint8_t mask = 0;
                while (childIdx < next.size() && (next[childIdx] >> 3) == nodeKey) {
                    mask |= static_cast<std::uint8_t>(1u << (next[childIdx] & 7ull));
                    ++childIdx;
                }
                raw.push_back(mask);
            }
            level = std::move(next);
        }

        if (colors) {
            for (const auto& [key, leaf] : leaves) {
                putU16(raw, pack565(leaf.colorSum / static_cast<float>(leaf.count)));
            }
        }
    }

    return lzcCompress(raw);
}

std::optional<mesh::PointCloud> decodePointCloud(std::span<const std::uint8_t> data) {
    const auto rawOpt = lzcDecompress(data);
    if (!rawOpt) return std::nullopt;
    byteio::Reader r{*rawOpt};
    if (r.u32() != kMagic) return std::nullopt;
    const std::uint32_t depthWord = r.u32();
    const int depth = static_cast<int>(depthWord & 0x7FFFFFFFu);
    const bool colors = (depthWord & 0x80000000u) != 0;
    if (depth < 1 || depth > 20) return std::nullopt;
    const std::uint32_t leafCount = r.u32();
    const Vec3f lo{r.f32(), r.f32(), r.f32()};
    const Vec3f ext{r.f32(), r.f32(), r.f32()};
    if (r.fail) return std::nullopt;

    mesh::PointCloud out;
    if (leafCount == 0) return out;

    std::vector<std::uint64_t> level{0};
    for (int l = 0; l < depth; ++l) {
        std::vector<std::uint64_t> next;
        next.reserve(level.size() * 2);
        for (const std::uint64_t nodeKey : level) {
            const std::uint8_t mask = r.u8();
            if (r.fail) return std::nullopt;
            for (int child = 0; child < 8; ++child)
                if (mask & (1u << child))
                    next.push_back((nodeKey << 3) |
                                   static_cast<std::uint64_t>(child));
        }
        level = std::move(next);
    }
    if (level.size() != leafCount) return std::nullopt;

    const float cell = 1.0f / static_cast<float>(1u << depth);
    out.points.reserve(leafCount);
    for (const std::uint64_t key : level) {
        std::uint64_t x, y, z;
        mortonDecode(key, depth, x, y, z);
        out.points.push_back(
            {lo.x + (static_cast<float>(x) + 0.5f) * cell * ext.x,
             lo.y + (static_cast<float>(y) + 0.5f) * cell * ext.y,
             lo.z + (static_cast<float>(z) + 0.5f) * cell * ext.z});
    }
    if (colors) {
        out.colors.reserve(leafCount);
        for (std::uint32_t i = 0; i < leafCount; ++i) {
            const std::uint16_t packed = r.u16();
            if (r.fail) return std::nullopt;
            out.colors.push_back(unpack565(packed));
        }
    }
    return out;
}

}  // namespace semholo::compress
