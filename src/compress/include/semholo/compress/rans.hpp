// Static rANS: a 4-way interleaved range-asymmetric-numeral-system byte
// coder with one frequency table per context, sent ahead of the payload.
// The context of a byte is the top bit of the byte before it, so on a
// LEB128 varint stream (the mesh codec's position sections) first bytes
// and continuation bytes get separate tables. It codes every byte in a
// few table lookups and no adaptive decisions, so it runs an order of
// magnitude faster than lzc on streams lzc codes mostly as literals.
//
// Wire layout:
//   [format byte kRansFormatTag][u32le decoded size]
//   when the size is nonzero:
//     frequency tables, one per context, as one bit stream padded to a
//       byte: u8 last coded symbol, then Elias-gamma(freq + 1) for every
//       symbol up to it (an unused context codes one zero entry)
//     u32le state[4]       the encoder's final states, in lane order
//     payload bytes        renormalisation output, read front to back
// A used context's frequencies sum to kRansScale, and none reaches it,
// so every byte costs some bits (kRansMaxExpansion). The decoder ends
// with every state back at its initial value and the payload consumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace semholo::compress {

inline constexpr std::uint8_t kRansFormatTag = 0x30;
inline constexpr std::size_t kRansHeaderBytes = 5;
inline constexpr int kRansScaleBits = 12;
inline constexpr std::uint32_t kRansScale = 1u << kRansScaleBits;

// No rANS stream decodes to more than this many bytes per stream byte:
// with every frequency below kRansScale, each decoded byte shrinks its
// lane's state by at least 1/kRansScale of it, so one renormalisation
// byte (a factor of 256) pays for under 8 * ln 2 * 4096 ~ 22,713 bytes.
inline constexpr std::size_t kRansMaxExpansion = 32768;

// Upper bound on ransCompress's output for 'inputBytes' bytes of input:
// header, tables, states, and at most two payload bytes per input byte.
std::size_t ransMaxCompressedBytes(std::size_t inputBytes);

// Compress 'data' into 'out', replacing its contents and keeping its
// capacity. A caller that reserves ransMaxCompressedBytes up front gets
// a call that allocates nothing.
void ransCompress(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> ransCompress(std::span<const std::uint8_t> data);

// The decoded size a stream's header declares, or nullopt when the
// format byte is wrong or the size is impossible for the stream's length
// (over 1 GiB or over kRansMaxExpansion per stream byte).
std::optional<std::size_t> ransDecodedSize(std::span<const std::uint8_t> compressed);

// Decompress into 'out' (replacing its contents); false on malformed
// input: a bad header or table, a truncated payload, trailing bytes, or
// final states that do not match the encoder's initial ones.
bool ransDecompress(std::span<const std::uint8_t> compressed, std::vector<std::uint8_t>& out);
std::optional<std::vector<std::uint8_t>> ransDecompress(
    std::span<const std::uint8_t> compressed);

}  // namespace semholo::compress
