// Little-endian byte writer and bounds-checked reader shared by every
// wire format: the pose payload, the mesh, point-cloud and colour-block
// codecs, lzc's header and the channel containers. Floats travel as
// their IEEE-754 bit patterns.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace semholo::byteio {

inline void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void putF32(std::vector<std::uint8_t>& out, float f) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    putU32(out, bits);
}

inline void putF64(std::vector<std::uint8_t>& out, double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

// Reads little-endian values from untrusted bytes. A read that would
// pass the end returns 0 (an empty span for bytes()), consumes nothing
// and sets 'fail', which stays set: a decoder may read a whole header
// and test 'fail' once.
struct Reader {
    std::span<const std::uint8_t> data;
    std::size_t pos{0};
    bool fail{false};

    // The next n bytes as a view into 'data'.
    std::span<const std::uint8_t> bytes(std::size_t n) {
        if (n > data.size() - pos) {
            fail = true;
            return {};
        }
        const auto view = data.subspan(pos, n);
        pos += n;
        return view;
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
    float f32() {
        const std::uint32_t bits = u32();
        float f;
        std::memcpy(&f, &bits, sizeof(f));
        return f;
    }
    double f64() {
        const std::uint64_t bits = le(8);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }

private:
    std::uint64_t le(std::size_t n) {
        std::uint64_t v = 0;
        const auto b = bytes(n);
        for (std::size_t i = 0; i < b.size(); ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }
};

}  // namespace semholo::byteio
