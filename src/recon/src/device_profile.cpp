#include "semholo/recon/device_profile.hpp"

#include <algorithm>

namespace semholo::recon {

DeviceProfile DeviceProfile::workstation() {
    return {"a100-workstation", 80ull << 30};
}

DeviceProfile DeviceProfile::laptop() {
    // RTX 3080 Laptop GPU, 8 GB variant; X-Avatar-style reconstruction at
    // 512^3 needs the dense feature grid + network activations, which
    // exceeds it (the paper: the laptop "cannot handle" 512 and 1024).
    return {"rtx3080-laptop", 8ull << 30};
}

DeviceProfile DeviceProfile::host() { return {"host", 0}; }

std::size_t reconstructionWorkingSetBytes(int resolution) {
    const auto r = static_cast<std::size_t>(resolution) + 1;
    const std::size_t gridBytes = r * r * r * sizeof(float);
    // SDF grid + per-voxel feature activations + extraction intermediates:
    // ~16 floats per node. With this model 256^3 -> ~1.1 GB (fits an 8 GB
    // laptop), 512^3 -> ~8.6 GB (exceeds it), 1024^3 -> ~69 GB (fits only
    // the 80 GB A100) — reproducing the Figure 4 feasibility pattern.
    return gridBytes * 16;
}

std::size_t reconstructionWorkingSetBytes(int resolution, ReconMode mode,
                                          int blockSize) {
    if (mode == ReconMode::Dense) return reconstructionWorkingSetBytes(resolution);
    const auto r = static_cast<std::size_t>(resolution) + 1;
    const std::size_t gridBytes = r * r * r * sizeof(float);
    // Surface blocks scale with the body's surface area: of the
    // (r/B)^3 blocks roughly c * (r/B)^2 intersect the surface, so the
    // occupied fraction is ~c * B / r (c ~= 3 for a human silhouette in
    // its bounding box; confirmed by the block counters in BENCH_fig4).
    // Only those blocks carry the 15-floats-per-node intermediates; the
    // 4-byte value grid stays dense. 512^3 -> ~0.9 GB and 1024^3 ->
    // ~5.8 GB: both inside the 8 GB laptop budget that dense mode blows
    // past (8.6 GB / 69 GB).
    const std::size_t b = blockSize > 0 ? static_cast<std::size_t>(blockSize) : 8;
    const double fraction =
        std::min(1.0, 3.0 * static_cast<double>(b) / static_cast<double>(r));
    return gridBytes +
           static_cast<std::size_t>(static_cast<double>(gridBytes) * 15.0 * fraction);
}

}  // namespace semholo::recon
