#include "semholo/compress/texturecodec.hpp"

#include <algorithm>
#include <cmath>

#include "semholo/geometry/byteio.hpp"

namespace semholo::compress {

namespace {

constexpr std::size_t kBlock = 16;
constexpr std::uint32_t kMagic = 0x53485443;  // "SHTC"

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

}  // namespace

std::vector<std::uint8_t> encodeColorBlocks(std::span<const Vec3f> colors) {
    std::vector<std::uint8_t> out;
    putU32(out, kMagic);
    putU32(out, static_cast<std::uint32_t>(colors.size()));

    for (std::size_t start = 0; start < colors.size(); start += kBlock) {
        const std::size_t n = std::min(kBlock, colors.size() - start);
        const auto block = colors.subspan(start, n);

        // Endpoint selection: principal span approximated by the pair of
        // min/max luminance-projected colours.
        Vec3f mean{};
        for (const Vec3f& c : block) mean += c;
        mean /= static_cast<float>(n);
        // Covariance principal axis via one power iteration from the
        // diagonal seed — cheap and adequate for 16 samples.
        Vec3f axis{1, 1, 1};
        for (int it = 0; it < 4; ++it) {
            Vec3f next{};
            for (const Vec3f& c : block) {
                const Vec3f d = c - mean;
                next += d * d.dot(axis);
            }
            if (next.norm2() < 1e-12f) break;
            axis = next.normalized();
        }
        float tMin = 0.0f, tMax = 0.0f;
        for (const Vec3f& c : block) {
            const float t = (c - mean).dot(axis);
            tMin = std::min(tMin, t);
            tMax = std::max(tMax, t);
        }
        const Vec3f e0 = mean + axis * tMin;
        const Vec3f e1 = mean + axis * tMax;
        const std::uint16_t p0 = pack565(e0);
        const std::uint16_t p1 = pack565(e1);
        putU16(out, p0);
        putU16(out, p1);

        // 2-bit index per sample along the 4-point palette.
        const Vec3f q0 = unpack565(p0), q1 = unpack565(p1);
        const Vec3f palette[4] = {q0, geom::lerp(q0, q1, 1.0f / 3.0f),
                                  geom::lerp(q0, q1, 2.0f / 3.0f), q1};
        std::uint32_t indices = 0;
        for (std::size_t i = 0; i < n; ++i) {
            int best = 0;
            float bestD = std::numeric_limits<float>::max();
            for (int k = 0; k < 4; ++k) {
                const float d = (block[i] - palette[k]).norm2();
                if (d < bestD) {
                    bestD = d;
                    best = k;
                }
            }
            indices |= static_cast<std::uint32_t>(best) << (2 * i);
        }
        putU32(out, indices);
    }
    return out;
}

std::optional<std::vector<Vec3f>> decodeColorBlocks(
    std::span<const std::uint8_t> data) {
    byteio::Reader r{data};
    if (r.u32() != kMagic) return std::nullopt;
    const std::uint32_t count = r.u32();
    const std::size_t blocks = (count + kBlock - 1) / kBlock;
    if (r.fail || data.size() < 8 + blocks * 8) return std::nullopt;

    std::vector<Vec3f> out;
    out.reserve(count);
    for (std::size_t b = 0; b < blocks; ++b) {
        const Vec3f q0 = unpack565(r.u16());
        const Vec3f q1 = unpack565(r.u16());
        const std::uint32_t indices = r.u32();
        const Vec3f palette[4] = {q0, geom::lerp(q0, q1, 1.0f / 3.0f),
                                  geom::lerp(q0, q1, 2.0f / 3.0f), q1};
        const std::size_t n = std::min(kBlock, static_cast<std::size_t>(count) - out.size());
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(palette[(indices >> (2 * i)) & 3]);
    }
    return out;
}

double colorBlockRatio(std::size_t colorCount, std::size_t encodedBytes) {
    if (encodedBytes == 0) return 0.0;
    return static_cast<double>(colorCount * sizeof(Vec3f)) /
           static_cast<double>(encodedBytes);
}

}  // namespace semholo::compress
