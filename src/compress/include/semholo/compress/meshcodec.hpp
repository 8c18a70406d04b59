// Draco-class lossy mesh codec: position quantisation within the mesh
// bounds, previous-vertex delta prediction along the (spatially
// coherent) vertex order, high-watermark connectivity coding, and LZC
// entropy coding on top. This is the "traditional communication w/
// compression" path of Table 2 (~7x on raw geometry, quantisation-
// bounded error).
//
// Wire format v2 splits the residuals into independent lzc sections
// (x / y / z deltas, connectivity in up to four triangle ranges, r / g /
// b) that are coded and decoded concurrently. The layout depends only on
// the mesh, so the bytes are identical at any worker count. The codec
// may be called from a task of the pool it fans out on: the calling
// thread codes sections too, so the call completes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

// One lzc section of an encoded mesh.
struct MeshSection {
    std::string name;         // "x", "y", "z", "conn0".."conn3", "r", "g", "b"
    std::size_t rawBytes{};   // residual varint bytes the section decodes to
    std::size_t packedBytes{};  // its lzc stream on the wire
};

// The section table of an encoded mesh, in wire order; nullopt when
// decodeMesh would reject the header or table.
std::optional<std::vector<MeshSection>> meshSections(std::span<const std::uint8_t> data);

// Worst-case positional error of the quantisation for a given mesh and
// bit depth (half a quantisation step along the box diagonal).
float quantizationError(const mesh::TriMesh& m, int positionBits);

}  // namespace semholo::compress
