#include "semholo/compress/lzc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "semholo/compress/rangecoder.hpp"
#include "semholo/geometry/byteio.hpp"

namespace semholo::compress {

namespace {

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 273;
constexpr int kLenBits = 9;        // match length - kMinMatch in [0, 271)
constexpr int kDistSlotBits = 5;   // distance slot 0..31
constexpr std::uint32_t kWindow = 1u << 20;
constexpr int kMinHashBits = 8;
constexpr int kMaxHashBits = 16;
// Initial output reservation cap: the size header is untrusted until
// the payload actually decodes, so never pre-allocate more than this.
constexpr std::size_t kMaxInitialReserve = 64u * 1024u;

std::uint32_t hash3(const std::uint8_t* p, int bits) {
    // Multiplicative hash over 3 bytes.
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - bits);
}

// Length of the common prefix of 'a' and 'b', at most 'limit' bytes,
// compared eight bytes at a time.
std::size_t matchLength(const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) {
    std::size_t len = 0;
    for (; len + 8 <= limit; len += 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a + len, 8);
        std::memcpy(&y, b + len, 8);
        if (const std::uint64_t diff = x ^ y; diff != 0) {
            const int bit = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                       : std::countl_zero(diff);
            return len + static_cast<std::size_t>(bit / 8);
        }
    }
    while (len < limit && a[len] == b[len]) ++len;
    return len;
}

// Distance is coded as a 5-bit slot (bit length) + raw low bits: the
// LZMA "distance slot" scheme with a flat low-bit model.
int distanceSlot(std::uint32_t dist) {
    int bits = 0;
    while ((dist >> bits) > 1) ++bits;
    return bits;
}

// Model layout inside LzcWorkspace::models.
constexpr std::size_t kLiteralRowProbs = 256;
constexpr std::size_t kLiteralProbs = kLiteralRowProbs << kLzcMaxLiteralContextBits;
constexpr std::size_t kLenProbs = (1u << kLenBits) - 1;
constexpr std::size_t kDistSlotProbs = (1u << kDistSlotBits) - 1;
constexpr std::size_t kModelProbs = 2 + kLiteralProbs + kLenProbs + kDistSlotProbs;

// Views of the adaptive models, reset to their initial probabilities.
struct Models {
    explicit Models(std::vector<BitProb>& probs) {
        probs.assign(kModelProbs, BitProb{});
        BitProb* p = probs.data();
        isMatch = p;  // context: previous op was match?
        literalBase = p + 2;
        len = {p + 2 + kLiteralProbs, kLenProbs};
        distSlot = {p + 2 + kLiteralProbs + kLenProbs, kDistSlotProbs};
    }
    // Literal contexts: prev byte's top 'literalContextBits' bits. The
    // clamped option selects how many of the 8 rows are live; encoder
    // and decoder derive the same count from the stream's format byte.
    std::span<BitProb> literal(std::uint8_t ctx) const {
        return {literalBase + ctx * kLiteralRowProbs, kLiteralRowProbs};
    }

    BitProb* isMatch;
    BitProb* literalBase;
    std::span<BitProb> len;
    std::span<BitProb> distSlot;
};

}  // namespace

int lzcClampedLiteralContextBits(int literalContextBits) {
    return std::clamp(literalContextBits, 0, kLzcMaxLiteralContextBits);
}

void LzcWorkspace::reserveCompress(std::size_t inputBytes) {
    head.reserve(std::size_t{1} << kMaxHashBits);
    prev.reserve(inputBytes);
    models.reserve(kModelProbs);
}

void LzcWorkspace::reserveDecompress(std::size_t outputBytes) {
    models.reserve(kModelProbs);
    decoded.reserve(outputBytes);
}

void lzcCompress(std::span<const std::uint8_t> data, LzcWorkspace& ws,
                 std::vector<std::uint8_t>& out, const LzcOptions& options) {
    const int ctxBits = lzcClampedLiteralContextBits(options.literalContextBits);
    out.clear();
    out.push_back(
        static_cast<std::uint8_t>(kLzcFormatTag | static_cast<unsigned>(ctxBits)));
    byteio::putU32(out, static_cast<std::uint32_t>(data.size()));
    if (data.empty()) return;

    const Models models(ws.models);
    // Code into a vector on this thread's stack: the encoder updates its
    // end pointer once per byte out, and 'out' may sit next to another
    // thread's output vector (the mesh codec's sections), which would
    // share that cache line.
    std::vector<std::uint8_t> coded = std::move(out);
    RangeEncoder enc(coded);

    // Hash-chain match finder. Every prev[] entry a chain walk reads was
    // written when its position was inserted, so prev needs no reset.
    const int hashBits = std::clamp(options.hashBits, kMinHashBits, kMaxHashBits);
    ws.head.assign(std::size_t{1} << hashBits, -1);
    ws.prev.resize(data.size());
    std::int32_t* head = ws.head.data();
    std::int32_t* prev = ws.prev.data();

    const int ctxShift = 8 - ctxBits;
    std::size_t pos = 0;
    bool lastWasMatch = false;
    while (pos < data.size()) {
        // Find the best match at 'pos'.
        std::uint32_t bestLen = 0, bestDist = 0;
        if (pos + kMinMatch <= data.size()) {
            const std::uint32_t h = hash3(&data[pos], hashBits);
            const std::uint8_t* const here = &data[pos];
            const std::size_t maxLen = std::min<std::size_t>(kMaxMatch, data.size() - pos);
            std::int32_t cand = head[h];
            int steps = options.maxChainSteps;
            while (cand >= 0 && steps-- > 0 &&
                   pos - static_cast<std::size_t>(cand) <= kWindow) {
                const std::size_t cpos = static_cast<std::size_t>(cand);
                // Only a candidate that also matches the byte at bestLen
                // can beat bestLen (which stays below maxLen).
                if (data[cpos + bestLen] == here[bestLen]) {
                    const std::size_t len = matchLength(&data[cpos], here, maxLen);
                    if (len >= kMinMatch && len > bestLen) {
                        bestLen = static_cast<std::uint32_t>(len);
                        bestDist = static_cast<std::uint32_t>(pos - cpos);
                        if (len == maxLen) break;
                    }
                }
                cand = prev[cpos];
            }
        }

        if (bestLen >= kMinMatch) {
            enc.encodeBit(models.isMatch[lastWasMatch ? 1 : 0], 1);
            enc.encodeTree(models.len, bestLen - kMinMatch, kLenBits);
            const int slot = distanceSlot(bestDist);
            enc.encodeTree(models.distSlot, static_cast<std::uint32_t>(slot),
                           kDistSlotBits);
            if (slot > 0)
                enc.encodeDirect(bestDist & ((1u << slot) - 1u), slot);
            // Insert all covered positions into the hash chains.
            const std::size_t end = pos + bestLen;
            while (pos < end && pos + kMinMatch <= data.size()) {
                const std::uint32_t h = hash3(&data[pos], hashBits);
                prev[pos] = head[h];
                head[h] = static_cast<std::int32_t>(pos);
                ++pos;
            }
            pos = end;
            lastWasMatch = true;
        } else {
            enc.encodeBit(models.isMatch[lastWasMatch ? 1 : 0], 0);
            const std::uint8_t ctx =
                pos > 0 ? static_cast<std::uint8_t>(data[pos - 1] >> ctxShift) : 0;
            enc.encodeTree(models.literal(ctx), data[pos], 8);
            if (pos + kMinMatch <= data.size()) {
                const std::uint32_t h = hash3(&data[pos], hashBits);
                prev[pos] = head[h];
                head[h] = static_cast<std::int32_t>(pos);
            }
            ++pos;
            lastWasMatch = false;
        }
    }

    enc.finish();
    out = std::move(coded);
}

std::vector<std::uint8_t> lzcCompress(std::span<const std::uint8_t> data,
                                      const LzcOptions& options) {
    LzcWorkspace ws;
    std::vector<std::uint8_t> out;
    lzcCompress(data, ws, out, options);
    return out;
}

std::optional<std::size_t> lzcDecodedSize(std::span<const std::uint8_t> compressed) {
    if (compressed.size() < kLzcHeaderBytes) return std::nullopt;
    if ((compressed[0] & kLzcFormatMask) != kLzcFormatTag) return std::nullopt;
    const std::size_t size = byteio::Reader{compressed.subspan(1)}.u32();
    // Guard against absurd headers (corrupt input).
    if (size > (1u << 30) ||
        size > (compressed.size() - kLzcHeaderBytes) * kLzcMaxExpansion)
        return std::nullopt;
    return size;
}

bool lzcDecompress(std::span<const std::uint8_t> compressed, LzcWorkspace& ws) {
    const auto declared = lzcDecodedSize(compressed);
    if (!declared) return false;
    const std::size_t size = *declared;
    const int ctxBits = static_cast<int>(compressed[0] & ~kLzcFormatMask);
    std::vector<std::uint8_t>& out = ws.decoded;
    out.clear();
    if (size == 0) return true;
    // The size is still untrusted until the payload decodes: cap the
    // up-front allocation so a ~12-byte corrupt packet cannot force a
    // 1 GiB reserve; the vector grows geometrically past the cap.
    out.reserve(std::min<std::size_t>(size, kMaxInitialReserve));

    const Models models(ws.models);
    RangeDecoder dec(compressed.subspan(kLzcHeaderBytes));
    const int ctxShift = 8 - ctxBits;

    bool lastWasMatch = false;
    while (out.size() < size) {
        if (dec.exhausted()) return false;
        if (dec.decodeBit(models.isMatch[lastWasMatch ? 1 : 0]) == 1) {
            const std::uint32_t len = dec.decodeTree(models.len, kLenBits) + kMinMatch;
            const int slot =
                static_cast<int>(dec.decodeTree(models.distSlot, kDistSlotBits));
            std::uint32_t dist = slot > 0 ? (1u << slot) | dec.decodeDirect(slot) : 1u;
            if (dist > out.size()) return false;
            if (out.size() + len > size) return false;
            const std::size_t from = out.size() - dist;
            for (std::uint32_t i = 0; i < len; ++i) out.push_back(out[from + i]);
            lastWasMatch = true;
        } else {
            const std::uint8_t ctx =
                out.empty() ? 0 : static_cast<std::uint8_t>(out.back() >> ctxShift);
            out.push_back(static_cast<std::uint8_t>(dec.decodeTree(models.literal(ctx), 8)));
            lastWasMatch = false;
        }
    }
    return true;
}

std::optional<std::vector<std::uint8_t>> lzcDecompress(
    std::span<const std::uint8_t> compressed) {
    LzcWorkspace ws;
    if (!lzcDecompress(compressed, ws)) return std::nullopt;
    return std::move(ws.decoded);
}

}  // namespace semholo::compress
