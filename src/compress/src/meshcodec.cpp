#include "semholo/compress/meshcodec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>

#include "semholo/compress/rans.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/geometry/byteio.hpp"

namespace semholo::compress {

namespace {

using byteio::putF32;
using byteio::putU32;

// Wire format v3:
//   u32 magic, u32 nv, u32 nt, u32 bits | colours << 31, f32 lo[3], f32 ext[3]
//   u32 watermark[parts]   starting watermark of each connectivity part
//   u32 length[sections]   section table, in wire order
//   sections               each an independent lzc or rANS stream, whose
//                          format byte names its backend
// Sections in wire order: x, y, z position deltas; connectivity parts
// 0..parts-1; r, g, b colour deltas when colours are on. Each section
// codes a run of zigzag LEB128 varints, one per value.
constexpr std::uint32_t kMagic = 0x53484D33;  // "SHM3"
constexpr std::size_t kFixedHeaderBytes = 40;
// Connectivity splits into one part per this many triangles, 1 to 4
// parts: a function of the mesh alone, never of the pool size.
constexpr std::uint32_t kTrianglesPerPart = 16384;
constexpr std::uint32_t kMaxParts = 4;
constexpr std::int64_t kColorLevels = 31;  // 5 bits per channel

enum class Kind { Axis, Connectivity, Color };

struct Section {
    Kind kind;
    std::uint32_t index;  // axis / colour channel, or connectivity part
    // Vertices [begin, end), or triangles for connectivity.
    std::uint32_t begin, end;
    std::size_t values() const {
        return (kind == Kind::Connectivity ? 3u : 1u) * std::size_t{end - begin};
    }
};

// Position sections of at least this many values use rANS: lzc codes
// their deltas almost entirely as literals, and rANS matches its size at
// a tenth of its time once the section pays for its frequency tables.
// Connectivity and colours keep lzc, whose matches beat order-0 there.
constexpr std::size_t kRansMinValues = 4096;

bool usesRans(const Section& s) {
    return s.kind == Kind::Axis && s.values() >= kRansMinValues;
}

std::size_t varintBytes(std::uint64_t z) {
    std::size_t n = 1;
    for (; z >= 0x80; z >>= 7) ++n;
    return n;
}

// The section structure of a mesh: depends only on its counts.
struct Layout {
    std::uint32_t nv{}, nt{}, parts{};
    int bits{};
    bool colors{};
    std::vector<Section> sections;

    Layout(std::uint32_t vertices, std::uint32_t triangles, int positionBits,
           bool withColors)
        : nv(vertices),
          nt(triangles),
          parts(std::clamp(triangles / kTrianglesPerPart, 1u, kMaxParts)),
          bits(positionBits),
          colors(withColors) {
        for (std::uint32_t a = 0; a < 3; ++a) sections.push_back({Kind::Axis, a, 0, nv});
        for (std::uint32_t p = 0; p < parts; ++p)
            sections.push_back({Kind::Connectivity, p, partBegin(p), partBegin(p + 1)});
        if (colors)
            for (std::uint32_t c = 0; c < 3; ++c)
                sections.push_back({Kind::Color, c, 0, nv});
    }

    std::uint32_t partBegin(std::uint32_t p) const {
        return static_cast<std::uint32_t>(std::uint64_t{nt} * p / parts);
    }

    // Longest varint a value of the section can take: deltas of values in
    // [0, 2^bits), watermark minus index in (-nv, nv], colour deltas.
    std::size_t maxValueBytes(const Section& s) const {
        switch (s.kind) {
            case Kind::Axis: return varintBytes(2 * ((std::uint64_t{1} << bits) - 1));
            case Kind::Connectivity: return varintBytes(std::uint64_t{2} * nv);
            case Kind::Color: return varintBytes(2 * kColorLevels);
        }
        return 0;
    }
    std::size_t maxRawBytes(const Section& s) const {
        return s.values() * maxValueBytes(s);
    }

    // Section indices, largest first: the order slots take them in.
    std::vector<std::size_t> schedule() const {
        std::vector<std::size_t> order(sections.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
            return maxRawBytes(sections[a]) > maxRawBytes(sections[b]);
        });
        return order;
    }
};

// Runs work(slot, section) for every section on min(sections, pool size)
// slots; each slot takes the next section in 'order' until none is left.
template <typename F>
void forEachSection(core::ThreadPool& pool, const std::vector<std::size_t>& order,
                    std::size_t slots, F&& work) {
    std::atomic<std::size_t> next{0};
    core::parallelFor(&pool, slots, [&](std::size_t slot) {
        for (std::size_t i = next++; i < order.size(); i = next++) work(slot, order[i]);
    });
}

std::size_t slotCount(core::ThreadPool& pool, const Layout& layout) {
    return std::min(layout.sections.size(), pool.size());
}

// Zigzag + LEB128 varint for signed deltas.
void putVarint(std::vector<std::uint8_t>& out, std::int64_t v) {
    std::uint64_t z = (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63);
    while (z >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(z) | 0x80);
        z >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(z));
}

// Reads a zigzag varint of at most 'maxBytes' bytes; false when the
// input ends first or the varint runs longer.
bool getVarint(const std::uint8_t*& p, const std::uint8_t* end, std::size_t maxBytes,
               std::int64_t& v) {
    std::uint64_t z = 0;
    for (std::size_t i = 0; i < maxBytes && p < end; ++i) {
        const std::uint8_t b = *p++;
        z |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
        if (!(b & 0x80)) {
            v = static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
            return true;
        }
    }
    return false;
}

// Position quantisation within the mesh bounds. NaN coordinates quantise
// to 0, so every delta stays within the section's varint bound.
struct Quantizer {
    geom::Vec3f lo, ext;
    float maxQ;

    std::int64_t quantize(const geom::Vec3f& v, std::size_t a) const {
        const float norm = ext[a] > 0.0f ? (v[a] - lo[a]) / ext[a] : 0.0f;
        return std::lround((norm >= 0.0f ? std::min(norm, 1.0f) : 0.0f) * maxQ);
    }
    float dequantize(std::int64_t q, std::size_t a) const {
        return lo[a] + static_cast<float>(q) / maxQ * ext[a];
    }
};

std::int64_t quantizeColor(float c) {
    return std::lround((c >= 0.0f ? std::min(c, 1.0f) : 0.0f) *
                       static_cast<float>(kColorLevels));
}

// One section's residual varints.
void putResiduals(const mesh::TriMesh& m, const Quantizer& quant, const Section& s,
                  std::uint32_t startWatermark, std::vector<std::uint8_t>& raw) {
    switch (s.kind) {
        case Kind::Axis: {
            // Delta against the previous vertex: iso-surface output is
            // spatially coherent, so deltas stay small.
            std::int64_t prev = 0;
            for (std::uint32_t i = s.begin; i < s.end; ++i) {
                const std::int64_t q = quant.quantize(m.vertices[i], s.index);
                putVarint(raw, q - prev);
                prev = q;
            }
            break;
        }
        case Kind::Connectivity: {
            // High-watermark coding: each index is stored as (watermark -
            // index), so indices near the recently created vertices yield
            // small values.
            std::int64_t watermark = startWatermark;
            for (std::uint32_t t = s.begin; t < s.end; ++t) {
                const mesh::Triangle& tri = m.triangles[t];
                for (const std::uint32_t idx : {tri.a, tri.b, tri.c}) {
                    putVarint(raw, watermark - static_cast<std::int64_t>(idx));
                    watermark = std::max(watermark, static_cast<std::int64_t>(idx) + 1);
                }
            }
            break;
        }
        case Kind::Color: {
            std::int64_t prev = 0;
            for (std::uint32_t i = s.begin; i < s.end; ++i) {
                const std::int64_t q = quantizeColor(m.colors[i][s.index]);
                putVarint(raw, q - prev);
                prev = q;
            }
            break;
        }
    }
}

// Parses one section's varints straight into its slice of 'out'; false
// on a malformed section (it must hold exactly its values).
bool parseResiduals(std::span<const std::uint8_t> raw, const Layout& layout,
                    const Quantizer& quant, const Section& s,
                    std::uint32_t startWatermark, mesh::TriMesh& out) {
    const std::uint8_t* p = raw.data();
    const std::uint8_t* const end = p + raw.size();
    const std::size_t maxBytes = layout.maxValueBytes(s);
    std::int64_t d = 0;
    switch (s.kind) {
        case Kind::Axis: {
            std::int64_t q = 0;
            for (std::uint32_t i = s.begin; i < s.end; ++i) {
                if (!getVarint(p, end, maxBytes, d)) return false;
                q += d;
                out.vertices[i][s.index] = quant.dequantize(q, s.index);
            }
            break;
        }
        case Kind::Connectivity: {
            std::int64_t watermark = startWatermark;
            for (std::uint32_t t = s.begin; t < s.end; ++t) {
                std::array<std::uint32_t, 3> idx{};
                for (std::uint32_t& index : idx) {
                    if (!getVarint(p, end, maxBytes, d)) return false;
                    const std::int64_t v = watermark - d;
                    if (v < 0 || v >= static_cast<std::int64_t>(layout.nv)) return false;
                    index = static_cast<std::uint32_t>(v);
                    watermark = std::max(watermark, v + 1);
                }
                out.triangles[t] = {idx[0], idx[1], idx[2]};
            }
            break;
        }
        case Kind::Color: {
            std::int64_t q = 0;
            for (std::uint32_t i = s.begin; i < s.end; ++i) {
                if (!getVarint(p, end, maxBytes, d)) return false;
                q += d;
                out.colors[i][s.index] = geom::clamp(
                    static_cast<float>(q) / static_cast<float>(kColorLevels), 0.0f, 1.0f);
            }
            break;
        }
    }
    return p == end;
}

std::uint32_t startWatermark(const std::vector<std::uint32_t>& watermarks,
                             const Section& s) {
    return s.kind == Kind::Connectivity ? watermarks[s.index] : 0;
}

// Per-slot scratch, allocated on the calling thread and reused across
// the slot's sections, so worker threads allocate nothing.
struct Slot {
    LzcWorkspace lzc;
    std::vector<std::uint8_t> raw;  // encoder: one section's residuals
};

// The residual bytes a section's stream header declares, from the
// backend its format byte names; nullopt for an unknown backend.
std::optional<std::size_t> declaredRawBytes(std::span<const std::uint8_t> payload) {
    if (!payload.empty() && payload[0] == kRansFormatTag) return ransDecodedSize(payload);
    return lzcDecodedSize(payload);
}

// A v3 stream's header and section table.
struct Stream {
    Layout layout;
    Quantizer quant{};
    std::vector<std::uint32_t> watermarks{};
    std::vector<std::span<const std::uint8_t>> sections{};
    std::vector<std::size_t> rawBytes{};  // as each section's stream header declares
};

// Reads and checks the header and section table. Every count is checked
// against its section's declared size (at least one byte, at most one
// maximal varint per value) before anything is sized by it.
std::optional<Stream> readStream(std::span<const std::uint8_t> data) {
    byteio::Reader r{data};
    if (r.u32() != kMagic) return std::nullopt;
    const std::uint32_t nv = r.u32();
    const std::uint32_t nt = r.u32();
    const std::uint32_t bitsWord = r.u32();
    const int bits = static_cast<int>(bitsWord & 0x7FFFFFFFu);
    if (r.fail || bits < 4 || bits > 24) return std::nullopt;
    Stream st{Layout(nv, nt, bits, (bitsWord & 0x80000000u) != 0)};
    for (std::size_t a = 0; a < 3; ++a) st.quant.lo[a] = r.f32();
    for (std::size_t a = 0; a < 3; ++a) st.quant.ext[a] = r.f32();
    st.quant.maxQ = static_cast<float>((1u << bits) - 1);

    st.watermarks.resize(st.layout.parts);
    for (std::uint32_t& w : st.watermarks) {
        w = r.u32();
        if (w > nv) return std::nullopt;
    }
    std::vector<std::uint32_t> lengths(st.layout.sections.size());
    std::uint64_t total = 0;
    for (std::uint32_t& len : lengths) {
        len = r.u32();
        total += len;
    }
    if (r.fail || total != data.size() - r.pos) return std::nullopt;

    for (std::size_t s = 0; s < lengths.size(); ++s) {
        const auto payload = r.bytes(lengths[s]);
        const Section& section = st.layout.sections[s];
        const auto declared = declaredRawBytes(payload);
        if (!declared || *declared < section.values() ||
            *declared > st.layout.maxRawBytes(section))
            return std::nullopt;
        st.sections.push_back(payload);
        st.rawBytes.push_back(*declared);
    }
    return st;
}

}  // namespace

LzcOptions meshSectionLzcOptions(std::size_t rawBytes) {
    // About one hash bucket per 16 residual bytes: varint streams hold
    // few distinct 3-grams, so a full 2^16-entry table per slot would add
    // 256 KB of touched memory each and no ratio.
    LzcOptions lzc;
    lzc.hashBits = std::clamp(static_cast<int>(std::bit_width(rawBytes)) - 4, 12, 16);
    return lzc;
}

float quantizationError(const mesh::TriMesh& m, int positionBits) {
    const auto ext = m.bounds().extent();
    const float maxExt = std::max({ext.x, ext.y, ext.z, 1e-9f});
    const float step = maxExt / static_cast<float>((1u << positionBits) - 1);
    // Half-step per axis; sqrt(3)/2 along the diagonal.
    return step * 0.8660254f;
}

std::vector<std::uint8_t> encodeMesh(const mesh::TriMesh& m,
                                     const MeshCodecOptions& options) {
    const int bits = geom::clamp(options.positionBits, 4, 24);
    Quantizer quant{};
    if (!m.empty()) {
        const auto bounds = m.bounds();
        quant.lo = bounds.lo;
        quant.ext = bounds.extent();
    }
    quant.maxQ = static_cast<float>((1u << bits) - 1);
    const bool colors = options.encodeColors && m.hasColors();
    const Layout layout(static_cast<std::uint32_t>(m.vertexCount()),
                        static_cast<std::uint32_t>(m.triangleCount()), bits, colors);

    // Starting watermark of each connectivity part: one past the highest
    // index of the triangles before it.
    std::vector<std::uint32_t> watermarks(layout.parts);
    std::uint32_t watermark = 0;
    for (std::uint32_t p = 0; p < layout.parts; ++p) {
        watermarks[p] = watermark;
        for (std::uint32_t t = layout.partBegin(p); t < layout.partBegin(p + 1); ++t) {
            const mesh::Triangle& tri = m.triangles[t];
            watermark = std::max({watermark, tri.a + 1, tri.b + 1, tri.c + 1});
        }
    }

    const std::size_t sections = layout.sections.size();
    std::vector<std::vector<std::uint8_t>> packed(sections);
    std::size_t maxRaw = 0;
    for (std::size_t s = 0; s < sections; ++s) {
        const std::size_t bound = layout.maxRawBytes(layout.sections[s]);
        // Room for an incompressible section (lzc expands those by under
        // 6%), so no worker ever grows it.
        packed[s].reserve(usesRans(layout.sections[s])
                              ? ransMaxCompressedBytes(bound)
                              : kLzcHeaderBytes + bound + bound / 16 + 16);
        maxRaw = std::max(maxRaw, bound);
    }
    core::ThreadPool& pool = options.pool != nullptr ? *options.pool : core::sharedPool();
    std::vector<Slot> slots(slotCount(pool, layout));
    for (Slot& slot : slots) {
        slot.raw.reserve(maxRaw);
        slot.lzc.reserveCompress(maxRaw);
    }
    forEachSection(pool, layout.schedule(), slots.size(), [&](std::size_t k, std::size_t s) {
        const Section& section = layout.sections[s];
        Slot& slot = slots[k];
        slot.raw.clear();
        putResiduals(m, quant, section, startWatermark(watermarks, section), slot.raw);
        if (usesRans(section)) {
            ransCompress(slot.raw, packed[s]);
            return;
        }
        lzcCompress(slot.raw, slot.lzc, packed[s], meshSectionLzcOptions(slot.raw.size()));
    });

    std::vector<std::uint8_t> out;
    std::size_t total = kFixedHeaderBytes + 4 * (layout.parts + sections);
    for (const auto& p : packed) total += p.size();
    out.reserve(total);
    putU32(out, kMagic);
    putU32(out, layout.nv);
    putU32(out, layout.nt);
    putU32(out, static_cast<std::uint32_t>(bits) | (colors ? 0x80000000u : 0u));
    for (std::size_t a = 0; a < 3; ++a) putF32(out, quant.lo[a]);
    for (std::size_t a = 0; a < 3; ++a) putF32(out, quant.ext[a]);
    for (const std::uint32_t w : watermarks) putU32(out, w);
    for (const auto& p : packed) putU32(out, static_cast<std::uint32_t>(p.size()));
    for (const auto& p : packed) out.insert(out.end(), p.begin(), p.end());
    return out;
}

std::optional<mesh::TriMesh> decodeMesh(std::span<const std::uint8_t> data,
                                        core::ThreadPool* pool) {
    const std::optional<Stream> stream = readStream(data);
    if (!stream) return std::nullopt;
    const Layout& layout = stream->layout;

    mesh::TriMesh out;
    out.vertices.resize(layout.nv);
    out.triangles.resize(layout.nt);
    if (layout.colors) out.colors.resize(layout.nv);
    core::ThreadPool& p = pool != nullptr ? *pool : core::sharedPool();
    std::vector<Slot> slots(slotCount(p, layout));
    const std::size_t maxRaw =
        *std::max_element(stream->rawBytes.begin(), stream->rawBytes.end());
    for (Slot& slot : slots) slot.lzc.reserveDecompress(maxRaw);
    std::atomic<bool> failed{false};
    forEachSection(p, layout.schedule(), slots.size(), [&](std::size_t k, std::size_t s) {
        if (failed) return;
        const Section& section = layout.sections[s];
        const std::span<const std::uint8_t> payload = stream->sections[s];
        LzcWorkspace& ws = slots[k].lzc;
        if (!(payload[0] == kRansFormatTag ? ransDecompress(payload, ws.decoded)
                                           : lzcDecompress(payload, ws)) ||
            !parseResiduals(ws.decoded, layout, stream->quant, section,
                            startWatermark(stream->watermarks, section), out))
            failed = true;
    });
    if (failed) return std::nullopt;

    out.computeVertexNormals();
    return out;
}

std::optional<std::vector<MeshSection>> meshSections(std::span<const std::uint8_t> data) {
    const std::optional<Stream> stream = readStream(data);
    if (!stream) return std::nullopt;
    std::vector<MeshSection> out;
    for (std::size_t s = 0; s < stream->sections.size(); ++s) {
        const Section& section = stream->layout.sections[s];
        std::string name;
        switch (section.kind) {
            case Kind::Axis: name = std::string(1, "xyz"[section.index]); break;
            case Kind::Connectivity: name = "conn" + std::to_string(section.index); break;
            case Kind::Color: name = std::string(1, "rgb"[section.index]); break;
        }
        const std::span<const std::uint8_t> bytes = stream->sections[s];
        out.push_back({std::move(name), bytes[0] == kRansFormatTag ? "rans" : "lzc",
                       stream->rawBytes[s], bytes});
    }
    return out;
}

}  // namespace semholo::compress
