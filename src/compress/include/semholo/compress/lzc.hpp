// LZC: an LZMA-class lossless compressor (LZ77 hash-chain match finder
// feeding the adaptive binary range coder). Used wherever the paper uses
// LZMA — most importantly compressing the 1.91 KB keypoint payload of
// Table 2 — and as the entropy backend of the mesh and text codecs.
//
// Wire format v2 (one byte of self-description): every stream starts
// with a format byte carrying the wire version and the encoder's
// literal-context setting, so decompression needs no out-of-band
// options. v1 streams (raw size header only) are no longer produced or
// accepted; every producer in this repo compresses and decompresses
// with the same build.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "semholo/compress/rangecoder.hpp"

namespace semholo::compress {

struct LzcOptions {
    // Maximum match-finder chain walks per position (speed/ratio knob).
    int maxChainSteps{64};
    // Context bits of the previous byte used for literal coding.
    // Valid range is [0, 3] (the literal model has at most 8 contexts);
    // out-of-range values are clamped before use, so encoder and
    // decoder agree by construction.
    int literalContextBits{3};
    // log2 of the match finder's hash-table size, clamped to [8, 16].
    // Encoder-only: the decoder needs no copy of it, but it changes which
    // candidates the chain walk meets, so it can change the bytes. A
    // smaller table touches less memory per call on inputs with few
    // distinct 3-grams.
    int hashBits{16};
};

// The literal-context range the literal model actually supports.
inline constexpr int kLzcMaxLiteralContextBits = 3;

// 'literalContextBits' clamped to the supported [0, 3] range — the
// single source of truth both the encoder and the decoder use.
int lzcClampedLiteralContextBits(int literalContextBits);

// Wire layout: [format byte][u32le uncompressed size][range-coded
// payload]. The format byte is (kLzcFormatTag | literalContextBits).
inline constexpr std::uint8_t kLzcFormatTag = 0x20;   // high nibble: wire v2
inline constexpr std::uint8_t kLzcFormatMask = 0xFC;  // low 2 bits: ctx bits
inline constexpr std::size_t kLzcHeaderBytes = 5;

// Compress 'data'. Output embeds the format byte and uncompressed size.
std::vector<std::uint8_t> lzcCompress(std::span<const std::uint8_t> data,
                                      const LzcOptions& options = {});

// Decompress; returns nullopt on malformed input (short or unknown
// header, absurd size, truncated or corrupt payload). All decode
// parameters come from the stream header — never from caller options.
std::optional<std::vector<std::uint8_t>> lzcDecompress(
    std::span<const std::uint8_t> compressed);

// Caller-owned scratch for the workspace overloads below. A caller that
// reserves it up front gets calls that allocate nothing, whichever
// thread runs them; the mesh codec sizes one per worker slot on the
// calling thread, so worker threads never grow per-thread malloc arenas.
struct LzcWorkspace {
    std::vector<std::int32_t> head;     // match-finder hash heads
    std::vector<std::int32_t> prev;     // match-finder chain links, one per input byte
    std::vector<BitProb> models;        // adaptive probabilities, reset per stream
    std::vector<std::uint8_t> decoded;  // output of the decompress overload

    // Size the buffers for compressing inputs of up to 'inputBytes'.
    void reserveCompress(std::size_t inputBytes);
    // Size the buffers for decompressing outputs of up to 'outputBytes'.
    void reserveDecompress(std::size_t outputBytes);
};

// lzcCompress into 'out' (replacing its contents, keeping its capacity);
// byte-identical to the allocating overload.
void lzcCompress(std::span<const std::uint8_t> data, LzcWorkspace& workspace,
                 std::vector<std::uint8_t>& out, const LzcOptions& options = {});

// lzcDecompress into 'workspace.decoded'; false on malformed input.
bool lzcDecompress(std::span<const std::uint8_t> compressed, LzcWorkspace& workspace);

// No lzc stream decodes to more than this many bytes per compressed
// payload byte: a maximal match costs at least ~0.33 bits with 11-bit
// adaptive probabilities, i.e. under 6700 bytes out per byte in.
inline constexpr std::size_t kLzcMaxExpansion = 8192;

// The uncompressed size a stream's header declares, or nullopt when the
// header is malformed or the size is impossible for the stream's length
// (over 1 GiB or over kLzcMaxExpansion per payload byte). Still
// untrusted until the payload decodes, but bounded by the input size.
std::optional<std::size_t> lzcDecodedSize(std::span<const std::uint8_t> compressed);

}  // namespace semholo::compress
