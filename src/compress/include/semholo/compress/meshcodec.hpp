// Draco-class lossy mesh codec: position quantisation within the mesh
// bounds, previous-vertex delta prediction along the (spatially
// coherent) vertex order, high-watermark connectivity coding, and
// entropy coding on top. This is the "traditional communication w/
// compression" path of Table 2 (~7x on raw geometry, quantisation-
// bounded error).
//
// Wire format v3 splits the residuals into independent sections (x / y
// / z deltas, connectivity in up to four triangle ranges, r / g / b)
// that are coded and decoded concurrently. Each section is an lzc
// stream or a static rANS stream, and its format byte names which: the
// encoder puts large position sections on rANS and everything else on
// lzc, by section kind and value count alone. The layout depends only
// on the mesh, so the bytes are identical at any worker count. The
// codec may be called from a task of the pool it fans out on: the
// calling thread codes sections too, so the call completes. v2 streams
// are no longer produced or accepted.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "semholo/compress/lzc.hpp"
#include "semholo/mesh/trimesh.hpp"

namespace semholo::core {
class ThreadPool;
}

namespace semholo::compress {

struct MeshCodecOptions {
    // Bits per position component (Draco default is 11).
    int positionBits{11};
    // Encode per-vertex colours (5 bits/channel) when the mesh has them.
    bool encodeColors{true};
    // Pool the sections are coded on; nullptr uses the process-wide
    // shared pool. The output does not depend on the pool's size.
    core::ThreadPool* pool{nullptr};
};

std::vector<std::uint8_t> encodeMesh(const mesh::TriMesh& m,
                                     const MeshCodecOptions& options = {});

// nullopt on malformed input; never throws on corrupt data. 'pool' as
// in MeshCodecOptions.
std::optional<mesh::TriMesh> decodeMesh(std::span<const std::uint8_t> data,
                                        core::ThreadPool* pool = nullptr);

// One section of an encoded mesh.
struct MeshSection {
    std::string name;         // "x", "y", "z", "conn0".."conn3", "r", "g", "b"
    std::string backend;      // "lzc" or "rans"
    std::size_t rawBytes{};   // residual varint bytes the section decodes to
    std::span<const std::uint8_t> stream;  // its lzc or rANS stream on the wire
};

// The section table of an encoded mesh, in wire order; nullopt when
// decodeMesh would reject the header or table. Each section's stream
// points into 'data'.
std::optional<std::vector<MeshSection>> meshSections(std::span<const std::uint8_t> data);

// The lzc options encodeMesh codes a section of 'rawBytes' residual
// bytes with, when the section's backend is lzc.
LzcOptions meshSectionLzcOptions(std::size_t rawBytes);

// Worst-case positional error of the quantisation for a given mesh and
// bit depth (half a quantisation step along the box diagonal).
float quantizationError(const mesh::TriMesh& m, int positionBits);

}  // namespace semholo::compress
