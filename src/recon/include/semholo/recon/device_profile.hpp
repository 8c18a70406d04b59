// Nominal device profiles for the Figure 4 comparison. The paper runs
// X-Avatar on an NVIDIA A100 (80 GB workstation GPU) and reports that a
// laptop RTX 3080 cannot handle 512/1024 resolutions at all. We model a
// device as a memory budget: the hard reconstruction-feasibility limit.
#pragma once

#include <cstddef>
#include <string>

namespace semholo::recon {

struct DeviceProfile {
    std::string name;
    std::size_t memoryBudgetBytes{};

    // A100-class workstation: large memory.
    static DeviceProfile workstation();
    // RTX-3080-laptop-class: 8 GB budget; at 512^3+ the dense field grid
    // plus intermediates exceed it, matching the paper's observation.
    static DeviceProfile laptop();
    // This host, no memory cap (for raw measurements).
    static DeviceProfile host();

    bool fitsInMemory(std::size_t bytes) const {
        return memoryBudgetBytes == 0 || bytes <= memoryBudgetBytes;
    }
};

// How the implicit field is evaluated on the grid.
enum class ReconMode {
    // Legacy path: every node evaluated serially, per-node feature
    // activations held for the whole grid.
    Dense,
    // Block-tiled path: blocks the body field's certificate proves
    // surface-free are skipped, the rest fan out over a worker pool, and
    // per-node intermediates are only materialised for the blocks that
    // actually sample (~surface area).
    Sparse,
};

// Total working-set estimate for an R^3 reconstruction: grid nodes plus
// the intermediate structures of extraction (~4x the grid in practice).
std::size_t reconstructionWorkingSetBytes(int resolution);

// Mode-aware estimate. Dense matches the single-argument overload. In
// sparse mode the value grid is still dense (4 bytes/node) but the
// 15-floats-per-node intermediates exist only for surface blocks, whose
// fraction of the grid shrinks like blockSize / resolution.
std::size_t reconstructionWorkingSetBytes(int resolution, ReconMode mode,
                                          int blockSize = 8);

}  // namespace semholo::recon
