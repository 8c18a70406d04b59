// Nominal device profiles for the Figure 4 comparison. The paper runs
// X-Avatar on an NVIDIA A100 (80 GB workstation GPU) and reports that a
// laptop RTX 3080 cannot handle 512/1024 resolutions at all. We model a
// device as a memory budget: the hard reconstruction-feasibility limit.
// Both modes keep their values in a block store: dense samples every
// block of the (R+1)^3 grid, sparse only the blocks near the surface.
// The budget is checked against reconstructionWorkingSetBytes' estimate
// before a reconstruction runs; a test checks that each mode's estimate
// covers the store's measured size (ReconstructionResult::storeBytes).
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
    // plus intermediates exceed it, matching the paper's observation,
    // while the sparse block store fits.
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
    // node values and per-node intermediates are only materialised for
    // the blocks that actually sample (~surface area).
    Sparse,
};

// Working-set estimate for an R^3 reconstruction. Both modes keep their
// values in BlockSampler's block store and count the value plus 15
// floats of intermediates per sampled node. Dense samples all (R+1)^3
// nodes. Sparse adds an 8-byte table entry per block and samples only
// the blocks near the surface, whose share of the grid shrinks like
// blockSize / resolution. The estimate stays above the store's measured
// size (ReconstructionResult::storeBytes).
std::size_t reconstructionWorkingSetBytes(int resolution, ReconMode mode,
                                          int blockSize = 8);

}  // namespace semholo::recon
