#include "semholo/compress/meshcodec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/compress/lzc.hpp"
#include "semholo/compress/rans.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/metrics.hpp"

namespace semholo::compress {
namespace {

using mesh::TriMesh;

TriMesh testSphere() {
    return mesh::makeUVSphere(0.8f, 24, 48, {0.2f, -0.1f, 0.4f});
}

// A 4,200-vertex helix strip with few triangles: enough vertices for
// rANS position sections, cheap enough to decode thousands of times.
TriMesh ransMesh() {
    TriMesh m;
    for (int i = 0; i < 4200; ++i) {
        const float t = 0.01f * static_cast<float>(i);
        m.vertices.push_back({std::cos(t) * (1.0f + 0.1f * std::sin(7.0f * t)),
                              std::sin(t) * (1.0f + 0.1f * std::cos(5.0f * t)), 0.02f * t});
    }
    for (std::uint32_t i = 0; i + 2 < 600; ++i) m.triangles.push_back({i, i + 1, i + 2});
    return m;
}

TEST(MeshCodec, RoundTripPreservesTopology) {
    const TriMesh m = testSphere();
    const auto data = encodeMesh(m);
    const auto back = decodeMesh(data);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->vertexCount(), m.vertexCount());
    EXPECT_EQ(back->triangleCount(), m.triangleCount());
    for (std::size_t i = 0; i < m.triangleCount(); ++i)
        EXPECT_EQ(back->triangles[i], m.triangles[i]);
}

TEST(MeshCodec, PositionErrorBoundedByQuantization) {
    const TriMesh m = testSphere();
    MeshCodecOptions opt;
    opt.positionBits = 11;
    const auto back = decodeMesh(encodeMesh(m, opt));
    ASSERT_TRUE(back.has_value());
    const float bound = quantizationError(m, opt.positionBits);
    for (std::size_t i = 0; i < m.vertexCount(); ++i)
        EXPECT_LE((back->vertices[i] - m.vertices[i]).norm(), bound * 1.01f);
}

TEST(MeshCodec, MoreBitsLessError) {
    const TriMesh m = testSphere();
    MeshCodecOptions lo, hi;
    lo.positionBits = 8;
    hi.positionBits = 14;
    const auto backLo = decodeMesh(encodeMesh(m, lo));
    const auto backHi = decodeMesh(encodeMesh(m, hi));
    ASSERT_TRUE(backLo && backHi);
    double errLo = 0.0, errHi = 0.0;
    for (std::size_t i = 0; i < m.vertexCount(); ++i) {
        errLo += (backLo->vertices[i] - m.vertices[i]).norm();
        errHi += (backHi->vertices[i] - m.vertices[i]).norm();
    }
    EXPECT_LT(errHi, errLo * 0.1);
}

TEST(MeshCodec, AchievesDracoClassRatioOnBodyMesh) {
    // Table 2: Draco shrinks the raw body mesh ~9.4x (397.7 -> 42.1 KB).
    const body::BodyModel model(body::ShapeParams{}, 72);
    const TriMesh m = model.templateMesh();
    MeshCodecOptions opt;
    opt.encodeColors = false;
    const auto data = encodeMesh(m, opt);
    const double ratio =
        static_cast<double>(m.rawGeometryBytes()) / static_cast<double>(data.size());
    EXPECT_GT(ratio, 6.0);
}

TEST(MeshCodec, DecodedBodyMeshGeometricallyClose) {
    const body::BodyModel model(body::ShapeParams{}, 56);
    const TriMesh m = model.templateMesh();
    const auto back = decodeMesh(encodeMesh(m));
    ASSERT_TRUE(back.has_value());
    // Direct per-vertex error: well under two millimetres on a ~2 m
    // model at 11 bits (mesh-sampled Chamfer would be dominated by the
    // sampling spacing, not the codec).
    double meanErr = 0.0;
    for (std::size_t i = 0; i < m.vertexCount(); ++i)
        meanErr += (back->vertices[i] - m.vertices[i]).norm();
    meanErr /= static_cast<double>(m.vertexCount());
    EXPECT_LT(meanErr, 1.5e-3);
}

TEST(MeshCodec, ColorsRoundTrip) {
    TriMesh m = testSphere();
    m.colors.resize(m.vertexCount());
    for (std::size_t i = 0; i < m.vertexCount(); ++i)
        m.colors[i] = {static_cast<float>(i % 7) / 7.0f, 0.5f,
                       static_cast<float>(i % 3) / 3.0f};
    const auto back = decodeMesh(encodeMesh(m));
    ASSERT_TRUE(back.has_value());
    ASSERT_TRUE(back->hasColors());
    for (std::size_t i = 0; i < m.vertexCount(); ++i)
        EXPECT_LE((back->colors[i] - m.colors[i]).norm(), 0.06f);  // 5-bit channels
}

TEST(MeshCodec, ColorsSkippedWhenDisabled) {
    TriMesh m = testSphere();
    m.colors.assign(m.vertexCount(), geom::Vec3f{1, 0, 0});
    MeshCodecOptions opt;
    opt.encodeColors = false;
    const auto back = decodeMesh(encodeMesh(m, opt));
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->hasColors());
}

TEST(MeshCodec, EmptyMesh) {
    const TriMesh empty;
    const auto back = decodeMesh(encodeMesh(empty));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->empty());
}

TEST(MeshCodec, GarbageRejected) {
    std::vector<std::uint8_t> garbage(100, 0x5A);
    EXPECT_FALSE(decodeMesh(garbage).has_value());
}

TEST(MeshCodec, TruncatedStreamRejected) {
    const auto data = encodeMesh(testSphere());
    EXPECT_FALSE(decodeMesh(std::span(data).subspan(0, data.size() / 2)).has_value());
}

TEST(MeshCodec, DegenerateFlatMeshSurvives) {
    // All vertices in a plane (zero extent on one axis).
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
    m.triangles = {{0, 1, 2}, {1, 3, 2}};
    const auto back = decodeMesh(encodeMesh(m));
    ASSERT_TRUE(back.has_value());
    for (std::size_t i = 0; i < m.vertexCount(); ++i)
        EXPECT_LE((back->vertices[i] - m.vertices[i]).norm(), 1e-3f);
}

// FNV-1a over raw bytes: pins exact outputs across codec rewrites.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v, std::uint64_t h = 1469598103934665603ull) {
    return fnv1a(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t meshDigest(const TriMesh& m) {
    std::uint64_t h = fnv1a(m.vertices);
    h = fnv1a(m.triangles, h);
    h = fnv1a(m.colors, h);
    return fnv1a(m.normals, h);
}

// Zigzag varints of the body template's 11-bit position deltas and
// high-watermark connectivity: a mesh-residual-shaped lzc input.
std::vector<std::uint8_t> bodyResidualStream() {
    const body::BodyModel model(body::ShapeParams{}, 72);
    const TriMesh& m = model.templateMesh();
    std::vector<std::uint8_t> out;
    const auto put = [&out](std::int64_t v) {
        std::uint64_t z = (static_cast<std::uint64_t>(v) << 1) ^
                          static_cast<std::uint64_t>(v >> 63);
        for (; z >= 0x80; z >>= 7) out.push_back(static_cast<std::uint8_t>(z) | 0x80);
        out.push_back(static_cast<std::uint8_t>(z));
    };
    const auto b = m.bounds();
    std::array<std::int64_t, 3> prev{};
    for (const geom::Vec3f& v : m.vertices)
        for (std::size_t a = 0; a < 3; ++a) {
            const auto q = static_cast<std::int64_t>(
                std::lround((v[a] - b.lo[a]) / b.extent()[a] * 2047.0f));
            put(q - prev[a]);
            prev[a] = q;
        }
    std::int64_t watermark = 0;
    for (const mesh::Triangle& t : m.triangles)
        for (const std::uint32_t idx : {t.a, t.b, t.c}) {
            put(watermark - static_cast<std::int64_t>(idx));
            watermark = std::max(watermark, static_cast<std::int64_t>(idx) + 1);
        }
    return out;
}

TEST(MeshCodec, DecodedBodyMeshMatchesPinnedDigest) {
    // Digest of the body template (colours on, default options) as the
    // single-stream v1 codec decoded it: v2 must reproduce every bit,
    // normals included.
    const body::BodyModel model(body::ShapeParams{}, 72);
    const auto back = decodeMesh(encodeMesh(model.templateMesh()));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(meshDigest(*back), 0xb579571464ffa2c4ull);
}

TEST(MeshCodec, LzcOutputMatchesPinnedDigest) {
    // lzcCompress output is frozen: the pose payloads of the keypoint
    // channel and mesh-residual streams must compress to the same bytes.
    const std::vector<std::uint8_t> residual = bodyResidualStream();
    std::uint64_t h = fnv1a(lzcCompress(residual));
    const body::MotionGenerator gen(body::MotionKind::Talk);
    for (const body::Pose& pose : gen.sequence(16, 30.0))
        h = fnv1a(lzcCompress(body::serializePose(pose)), h);
    EXPECT_EQ(residual.size(), 288737u);
    EXPECT_EQ(h, 0x17224b57c0dff98cull);
}

TEST(MeshCodec, BytesIdenticalAtAnyPoolSize) {
    // The section layout depends only on the mesh: three connectivity
    // parts here (one per 16384 triangles), plus three colour sections
    // when colours are on.
    const body::BodyModel model(body::ShapeParams{}, 72);
    const TriMesh& m = model.templateMesh();
    ASSERT_GE(m.triangleCount(), 3u * 16384u);
    for (const bool withColors : {true, false}) {
        MeshCodecOptions opt;
        opt.encodeColors = withColors;
        const auto reference = encodeMesh(m, opt);
        const auto decoded = decodeMesh(reference);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->hasColors(), withColors);
        const auto sections = meshSections(reference);
        ASSERT_TRUE(sections.has_value());
        std::string names;
        for (const MeshSection& s : *sections) names += s.name + " ";
        EXPECT_EQ(names, withColors ? "x y z conn0 conn1 conn2 r g b "
                                    : "x y z conn0 conn1 conn2 ");
        for (const std::size_t workers : {1u, 2u, 8u}) {
            core::ThreadPool pool(workers);
            opt.pool = &pool;
            EXPECT_EQ(encodeMesh(m, opt), reference) << workers << " workers";
            const auto back = decodeMesh(reference, &pool);
            ASSERT_TRUE(back.has_value());
            EXPECT_EQ(meshDigest(*back), meshDigest(*decoded)) << workers << " workers";
        }
    }
}

// v3 wire offsets: a 40-byte fixed header, one u32 starting watermark
// per connectivity part, then one u32 length per section.
constexpr std::size_t kFixedHeaderBytes = 40;

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void setU32(std::vector<std::uint8_t>& data, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) data[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t getU32(const std::vector<std::uint8_t>& data, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[at + i]) << (8 * i);
    return v;
}

// A header with zero bounds, 11 bits, no colours; 'sections' follow.
std::vector<std::uint8_t> handMadeStream(std::uint32_t magic, std::uint32_t nv,
                                         std::uint32_t nt,
                                         const std::vector<std::uint32_t>& watermarks,
                                         const std::vector<std::vector<std::uint8_t>>& sections) {
    std::vector<std::uint8_t> out;
    putU32(out, magic);
    putU32(out, nv);
    putU32(out, nt);
    putU32(out, 11);
    for (int i = 0; i < 6; ++i) putU32(out, 0);
    for (const std::uint32_t w : watermarks) putU32(out, w);
    for (const auto& s : sections) putU32(out, static_cast<std::uint32_t>(s.size()));
    for (const auto& s : sections) out.insert(out.end(), s.begin(), s.end());
    return out;
}

TEST(MeshCodec, HugeCountsRejectedBeforeAllocating) {
    // The single-stream v1 codec reserved the header's vertex count before
    // reading a vertex: this well-formed 26-byte payload claiming
    // 0xFFFFFFF0 vertices threw std::bad_alloc.
    std::vector<std::uint8_t> v1Header;
    for (const std::uint32_t word : {0x53484D43u, 0xFFFFFFF0u, 0u, 11u, 0u, 0u, 0u, 0u, 0u, 0u})
        putU32(v1Header, word);
    const auto v1 = lzcCompress(v1Header);
    ASSERT_EQ(v1.size(), 26u);
    EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(v1).has_value()));

    // The same claim in v3: each position section holds one byte, far
    // fewer than one per claimed vertex, in either backend.
    const auto oneByte = lzcCompress(std::vector<std::uint8_t>{0});
    const auto oneRans = ransCompress(std::vector<std::uint8_t>{0});
    const auto empty = lzcCompress(std::vector<std::uint8_t>{});
    const std::uint32_t magic = getU32(encodeMesh(testSphere()), 0);
    for (const auto& one : {oneByte, oneRans}) {
        const auto v3 = handMadeStream(magic, 0xFFFFFFF0u, 0, {0}, {one, one, one, empty});
        EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(v3).has_value()));
    }

    // Sections whose lzc headers claim ~1 GiB to match a ~1 G vertex
    // count: impossible for a 12-byte section, so rejected unread.
    const std::vector<std::uint8_t> gib = {
        static_cast<std::uint8_t>(kLzcFormatTag | 3), 0xFF, 0xFF, 0xFF, 0x3F,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
    const auto claim = handMadeStream(magic, 0x3FFFFFFFu, 0, {0}, {gib, gib, gib, empty});
    EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(claim).has_value()));
    // The same claim in rANS sections, which code a long run of one
    // symbol in a few bytes: still bounded by kRansMaxExpansion.
    auto ransGib = oneRans;
    for (int i = 0; i < 4; ++i) ransGib[1 + i] = static_cast<std::uint8_t>(0x3FFFFFFFu >> (8 * i));
    const auto ransClaim =
        handMadeStream(magic, 0x3FFFFFFFu, 0, {0}, {ransGib, ransGib, ransGib, empty});
    EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(ransClaim).has_value()));

    // Sanity: the hand-made layout decodes when the counts are honest.
    for (const auto& one : {oneByte, oneRans}) {
        const auto honest = handMadeStream(magic, 1, 0, {0}, {one, one, one, empty});
        const auto back = decodeMesh(honest);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->vertexCount(), 1u);
    }
}

TEST(MeshCodec, CorruptSectionTableRejected) {
    const TriMesh m = testSphere();  // one connectivity part, four sections
    const auto good = encodeMesh(m);
    ASSERT_TRUE(decodeMesh(good).has_value());
    const std::size_t watermarkAt = kFixedHeaderBytes;
    const std::size_t tableAt = watermarkAt + 4;
    const std::size_t sections = 4;
    const auto nv = static_cast<std::uint32_t>(m.vertexCount());
    const auto nt = static_cast<std::uint32_t>(m.triangleCount());

    std::vector<std::vector<std::uint8_t>> corrupt;
    corrupt.emplace_back(good.begin(), good.begin() + tableAt + 6);  // truncated table
    corrupt.push_back(good);
    setU32(corrupt.back(), tableAt + 4 * (sections - 1),
           getU32(good, tableAt + 4 * (sections - 1)) + 1);  // last section past the end
    corrupt.push_back(good);
    setU32(corrupt.back(), tableAt, 0xFFFFFFFFu);  // first section past the end
    corrupt.push_back(good);
    corrupt.back().push_back(0);  // trailing byte
    corrupt.push_back(good);
    setU32(corrupt.back(), watermarkAt, nv + 1);  // watermark past the vertices
    corrupt.push_back(good);
    setU32(corrupt.back(), 4, nv + 1);  // more vertices than the position sections hold
    corrupt.push_back(good);
    setU32(corrupt.back(), 8, nt + 1);  // more triangles than connectivity holds
    for (std::size_t i = 0; i < corrupt.size(); ++i)
        EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(corrupt[i]).has_value()) << "case " << i);

    {
        // v3 sections name their backend in their first byte. Position
        // sections of a mesh this size are rANS; every corruption of one
        // must decode to nullopt, never to a crash or a mesh.
        const TriMesh m = ransMesh();
        const auto good = encodeMesh(m);
        const auto sections = meshSections(good);
        ASSERT_TRUE(sections.has_value());
        ASSERT_EQ((*sections)[0].backend, "rans");
        ASSERT_EQ((*sections)[3].backend, "lzc");
        ASSERT_TRUE(decodeMesh(good).has_value());
        const std::size_t tableAt = kFixedHeaderBytes + 4;  // one connectivity part
        const std::size_t xAt = tableAt + 4 * sections->size();
        const std::size_t xBytes = getU32(good, tableAt);

        std::vector<std::vector<std::uint8_t>> corrupt;
        for (const std::uint8_t tag : {0x00, 0x31, 0x7F, 0xFF}) {
            corrupt.push_back(good);
            corrupt.back()[xAt] = tag;  // unknown backend byte
        }
        corrupt.push_back(good);  // tables no longer sum to the scale
        corrupt.back()[xAt + kRansHeaderBytes + 1] ^= 0x80;
        // Payloads cut short, with the section table adjusted to match:
        // one byte short, and cut right after the rANS header.
        for (const std::size_t keep : {xBytes - 1, kRansHeaderBytes}) {
            corrupt.push_back(good);
            auto& bytes = corrupt.back();
            bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(xAt + keep),
                        bytes.begin() + static_cast<std::ptrdiff_t>(xAt + xBytes));
            setU32(bytes, tableAt, static_cast<std::uint32_t>(keep));
        }
        for (std::size_t i = 0; i < corrupt.size(); ++i)
            EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(corrupt[i]).has_value()) << "case " << i);

        // A final state that does not match: one vertex, each position a
        // rANS stream of one byte (tables of 6 bytes, then four states).
        const auto one = ransCompress(std::vector<std::uint8_t>{0});
        const auto empty = lzcCompress(std::vector<std::uint8_t>{});
        const std::uint32_t magic = getU32(good, 0);
        ASSERT_TRUE(
            decodeMesh(handMadeStream(magic, 1, 0, {0}, {one, one, one, empty})).has_value());
        for (std::size_t lane = 0; lane < 4; ++lane) {
            auto bad = one;
            bad[kRansHeaderBytes + 6 + 4 * lane] ^= 0x01;
            const auto stream = handMadeStream(magic, 1, 0, {0}, {one, bad, one, empty});
            EXPECT_NO_THROW(EXPECT_FALSE(decodeMesh(stream).has_value()) << "lane " << lane);
        }
    }
}

TEST(MeshCodec, CorruptionFuzzNeverThrows) {
    // Bit flips and truncations: decode returns nullopt or some mesh, and
    // any mesh it returns has in-range indices.
    TriMesh m = testSphere();
    m.colors.assign(m.vertexCount(), geom::Vec3f{0.2f, 0.4f, 0.8f});
    const auto data = encodeMesh(m);
    const auto check = [](std::span<const std::uint8_t> bytes) {
        std::optional<TriMesh> back;
        EXPECT_NO_THROW(back = decodeMesh(bytes));
        if (!back) return;
        for (const mesh::Triangle& t : back->triangles)
            ASSERT_TRUE(t.a < back->vertexCount() && t.b < back->vertexCount() &&
                        t.c < back->vertexCount());
    };
    for (std::size_t bit = 0; bit < data.size() * 8; bit += 13) {
        auto flipped = data;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        check(flipped);
    }
    for (std::size_t len = 0; len < data.size(); len += 7)
        check(std::span(data).subspan(0, len));

    // v3 rANS position sections: every bit of each section's header,
    // tables and states, and a stride through its payload.
    const auto rans = encodeMesh(ransMesh());
    const auto sections = meshSections(rans);
    ASSERT_TRUE(sections.has_value());
    std::size_t at = kFixedHeaderBytes + 4 + 4 * sections->size();
    for (const MeshSection& section : *sections) {
        if (section.backend == "rans")
            for (std::size_t bit = 0; bit < section.stream.size() * 8;
                 bit += bit < 64 * 8 ? 1 : 61) {
                auto flipped = rans;
                flipped[at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                check(flipped);
            }
        at += section.stream.size();
    }
    for (std::size_t len = 0; len < rans.size(); len += 97) check(std::span(rans).subspan(0, len));
}

class MeshCodecBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(MeshCodecBitSweep, ErrorMatchesBitDepth) {
    const TriMesh m = testSphere();
    MeshCodecOptions opt;
    opt.positionBits = GetParam();
    const auto back = decodeMesh(encodeMesh(m, opt));
    ASSERT_TRUE(back.has_value());
    const float bound = quantizationError(m, GetParam());
    for (std::size_t i = 0; i < m.vertexCount(); i += 17)
        EXPECT_LE((back->vertices[i] - m.vertices[i]).norm(), bound * 1.01f);
}

INSTANTIATE_TEST_SUITE_P(Bits, MeshCodecBitSweep, ::testing::Values(6, 8, 10, 12, 16));

}  // namespace
}  // namespace semholo::compress
