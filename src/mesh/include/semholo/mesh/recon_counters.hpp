// Work counters of the receiver's reconstruction path: field sampling,
// the body field's pruning tallies and iso-surface extraction. One
// struct serves one pass, one decoded frame and one session, and sums
// with +=. Each field has exactly one writer, named per group below;
// fields a path does not run stay zero (the dense path writes no
// sampler counter, image-only decodes write none).
#pragma once

#include <cstdint>
#include <limits>

namespace semholo::mesh {

struct ReconCounters {
    // Written by BlockSampler::sample.
    std::uint64_t blocksTotal{};         // blocks tiled over the grid
    std::uint64_t blocksSampled{};       // fully evaluated
    std::uint64_t blocksSkipped{};       // certified surface-free, filled
    // Of blocksSkipped, how many were filled from a certified octree
    // ancestor rather than their own leaf test.
    std::uint64_t blocksCoarseFilled{};
    std::uint64_t nodesEvaluated{};      // field evaluations incl. block centers
    std::uint64_t nodesTotal{};          // grid nodes the dense path would touch
    std::uint64_t certTests{};           // analytic certificate invocations
    // Written by the reconstruction from the body field's tallies.
    std::uint64_t bonesPruned{};         // capsule blends skipped via bounds
    // Written by extractIsoSurface.
    std::uint64_t blocksExtracted{};     // blocks holding >= 1 crossing edge
    std::uint64_t activeCells{};         // mixed-sign cells emitted from
    std::uint64_t vertices{};            // crossing-edge vertices emitted
    std::uint64_t triangles{};           // table triangles emitted (pre-cleanup)

    ReconCounters& operator+=(const ReconCounters& other) {
        blocksTotal += other.blocksTotal;
        blocksSampled += other.blocksSampled;
        blocksSkipped += other.blocksSkipped;
        blocksCoarseFilled += other.blocksCoarseFilled;
        nodesEvaluated += other.nodesEvaluated;
        nodesTotal += other.nodesTotal;
        certTests += other.certTests;
        bonesPruned += other.bonesPruned;
        blocksExtracted += other.blocksExtracted;
        activeCells += other.activeCells;
        vertices += other.vertices;
        triangles += other.triangles;
        return *this;
    }

    // Share of grid nodes the sampler evaluated; NaN when no node was
    // tiled (no data, not a zero that reads as a result).
    double evalFraction() const {
        return nodesTotal > 0 ? static_cast<double>(nodesEvaluated) /
                                    static_cast<double>(nodesTotal)
                              : std::numeric_limits<double>::quiet_NaN();
    }
};

}  // namespace semholo::mesh
