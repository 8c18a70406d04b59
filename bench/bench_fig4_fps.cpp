// Regenerates Figure 4: reconstruction FPS of keypoint-based meshes at
// output resolutions 128/256/512/1024 — now for both the legacy dense
// field pass and the sparse block-pruned pipeline.
//
// The paper measures X-Avatar on an NVIDIA A100 and reports <3 FPS at
// 128 and <1 FPS at 256+; an RTX 3080 laptop cannot run 512/1024 at all.
// We measure the dense CPU reconstruction directly at 32..256 and
// extrapolate its cubic field cost to 512/1024 (running dense 512 takes
// minutes and adds no information: the scaling exponent is the result).
// The sparse pipeline is measured outright through 512 — block pruning
// reduces the field pass to the O(surface) shell, so 512 runs in seconds
// — and through 1024 when SEMHOLO_FIG4_FULL is set.
//
// Environment:
//   SEMHOLO_FIG4_MAX_RES — cap on measured resolutions (CI smoke runs
//                          use a small cap); rows above the cap fall
//                          back to extrapolation.
//   SEMHOLO_FIG4_FULL    — also measure sparse 1024 (minutes, off by
//                          default).
//
// Per-resolution wall times land in telemetry histograms (several
// repeats at the small resolutions; per-row costs fitted on histogram
// p50s, not single runs) and are exported to BENCH_fig4.json so perf
// PRs can track the reconstruction trajectory. Each measured sparse row
// also records its block store's measured size (sparse_store_bytes, the
// value table and arena only); the laptop columns judge every row by
// the working-set model, which a test checks covers that store.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/isosurface_legacy.hpp"
#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/core/telemetry.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/recon/keypoint_recon.hpp"

using namespace semholo;

namespace {

int envInt(const char* name, int fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    return std::atoi(v);
}

bool envFlag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

}  // namespace

int main() {
    bench::banner("Figure 4: reconstruction FPS vs output resolution");

    const body::Pose pose =
        body::MotionGenerator(body::MotionKind::Talk).poseAt(0.5);

    const int maxRes = envInt("SEMHOLO_FIG4_MAX_RES", 512);
    const int sparseMeasuredMax =
        std::min(maxRes, envFlag("SEMHOLO_FIG4_FULL") ? 1024 : 512);
    const int denseMeasuredMax = std::min(maxRes, 256);

    struct Row {
        int resolution{};
        core::telemetry::Histogram denseMs, sparseMs;
        // Extraction-stage slice of the totals above (measured rows only).
        core::telemetry::Histogram denseExtractMs, sparseExtractMs;
        bool denseMeasured{}, sparseMeasured{};
        mesh::ReconCounters sparseStats;  // from the last sparse repeat
        std::size_t sparseStoreBytes{};   // block store, last sparse repeat
    };
    std::vector<Row> rows;
    // Cost models for the unmeasured tail, fitted on the LARGEST measured
    // run's histogram p50 (single-run timings at these scales are noisy):
    // dense scales with the full voxel volume, sparse with the surface
    // shell (the pruner only evaluates blocks the iso-surface crosses).
    double denseUnitCost = 0.0;   // ms per voxel
    double sparseUnitCost = 0.0;  // ms per surface cell (~R^2)
    for (const int res : {32, 64, 128, 256, 512, 1024}) {
        Row row;
        row.resolution = res;
        row.denseMeasured = res <= denseMeasuredMax;
        row.sparseMeasured = res <= sparseMeasuredMax;
        // Repeat the cheap resolutions so the histograms have a spread.
        const int repeats = res <= 64 ? 5 : (res <= 128 ? 3 : (res <= 256 ? 2 : 1));
        if (row.denseMeasured) {
            recon::ReconstructionOptions opt;
            opt.resolution = res;
            opt.mode = recon::ReconMode::Dense;
            opt.device = recon::DeviceProfile::host();
            for (int i = 0; i < repeats; ++i) {
                const auto r = recon::reconstructFromPose(pose, opt);
                row.denseMs.record(r.totalMs());
                row.denseExtractMs.record(r.extractMs);
            }
            denseUnitCost =
                row.denseMs.p50() / (static_cast<double>(res) * res * res);
        }
        if (row.sparseMeasured) {
            recon::ReconstructionOptions opt;
            opt.resolution = res;
            opt.mode = recon::ReconMode::Sparse;
            opt.device = recon::DeviceProfile::host();
            for (int i = 0; i < repeats; ++i) {
                const auto r = recon::reconstructFromPose(pose, opt);
                row.sparseMs.record(r.totalMs());
                row.sparseExtractMs.record(r.extractMs);
                row.sparseStats = r.stats;
                row.sparseStoreBytes = r.storeBytes;
            }
            sparseUnitCost = row.sparseMs.p50() / (static_cast<double>(res) * res);
        }
        if (!row.denseMeasured)
            row.denseMs.record(denseUnitCost * static_cast<double>(res) * res * res);
        if (!row.sparseMeasured)
            row.sparseMs.record(sparseUnitCost * static_cast<double>(res) * res);
        rows.push_back(std::move(row));
    }

    const auto laptop = recon::DeviceProfile::laptop();
    bench::Table table({"resolution", "dense ms (p50)", "dense mode",
                        "sparse ms (p50)", "sparse mode", "speedup",
                        "sparse FPS", "laptop dense/sparse", "paper FPS (A100)"});
    core::telemetry::JsonWriter json;
    json.beginObject();
    json.field("schema_version", core::telemetry::kBenchSchemaVersion);
    json.field("bench", std::string("fig4_fps"));
    json.field("simd_backend", std::string(body::bodyBatchBackend()));
    json.beginArray("rows");
    for (const Row& row : rows) {
        const double denseMs = row.denseMs.p50();
        const double sparseMs = row.sparseMs.p50();
        const double speedup = sparseMs > 0.0 ? denseMs / sparseMs : 0.0;
        const bool fitsDense = laptop.fitsInMemory(recon::reconstructionWorkingSetBytes(
            row.resolution, recon::ReconMode::Dense));
        const bool fitsSparse = laptop.fitsInMemory(recon::reconstructionWorkingSetBytes(
            row.resolution, recon::ReconMode::Sparse, recon::resolveBlockSize(row.resolution)));
        const char* paper = row.resolution == 128   ? "~2.5"
                            : row.resolution == 256 ? "~0.9"
                            : row.resolution == 512 ? "~0.4"
                            : row.resolution == 1024 ? "~0.2"
                                                     : "-";
        table.addRow(
            {std::to_string(row.resolution), bench::fmt("%.0f", denseMs),
             row.denseMeasured ? "measured" : "extrapolated (cubic)",
             bench::fmt("%.0f", sparseMs),
             row.sparseMeasured ? "measured" : "extrapolated (quadratic)",
             bench::fmt("%.1fx", speedup), bench::fmt("%.2f", 1000.0 / sparseMs),
             std::string(fitsDense ? "yes" : "NO") + " / " +
                 (fitsSparse ? "yes" : "NO"),
             paper});
        json.beginObject()
            .field("resolution", static_cast<std::uint64_t>(row.resolution))
            .field("dense_measured", std::string(row.denseMeasured ? "yes" : "no"))
            .field("dense_samples", static_cast<std::uint64_t>(row.denseMs.count()))
            .field("dense_ms_p50", row.denseMs.p50())
            .field("dense_ms_p95", row.denseMs.p95())
            .field("sparse_measured", std::string(row.sparseMeasured ? "yes" : "no"))
            .field("sparse_samples", static_cast<std::uint64_t>(row.sparseMs.count()))
            .field("sparse_ms_p50", row.sparseMs.p50())
            .field("sparse_ms_p95", row.sparseMs.p95())
            .field("dense_extract_ms_p50", row.denseExtractMs.p50())
            .field("extract_ms_p50", row.sparseExtractMs.p50())
            .field("extract_ms_p95", row.sparseExtractMs.p95())
            .field("active_cells", row.sparseStats.activeCells)
            .field("speedup", speedup)
            .field("sparse_fps_p50", 1000.0 / sparseMs)
            .field("blocks_total", row.sparseStats.blocksTotal)
            .field("blocks_skipped", row.sparseStats.blocksSkipped)
            .field("blocks_coarse_filled", row.sparseStats.blocksCoarseFilled)
            .field("cert_tests", row.sparseStats.certTests)
            .field("node_eval_fraction", row.sparseStats.evalFraction())
            .field("laptop_dense", std::string(fitsDense ? "yes" : "no"))
            .field("laptop_sparse", std::string(fitsSparse ? "yes" : "no"));
        if (row.sparseMeasured)
            json.field("sparse_store_bytes", static_cast<std::uint64_t>(row.sparseStoreBytes));
        json.endObject();
    }
    json.endArray();
    table.print();

    // ---- Ablation: SIMD batch x octree certificates, one core ----------
    // Each lever off in turn, on a single worker so the numbers are the
    // per-core cost the 30-FPS budget is judged against. The batch
    // kernel and the octree both leave the mesh byte-identical, so any
    // row disagreeing on output is a bug, not a tradeoff.
    bench::banner("Ablation at the Figure-4 anchor resolution (1 worker)");
    const int ablRes = std::min(maxRes, 128);
    core::ThreadPool oneCore(1);
    struct AblationRow {
        const char* name;
        bool simd, octree;
        core::telemetry::Histogram ms;
        mesh::ReconCounters stats;
    };
    AblationRow ablations[] = {
        {"scalar+flat", false, false, {}, {}},
        {"scalar+octree", false, true, {}, {}},
        {"simd+flat", true, false, {}, {}},
        {"simd+octree", true, true, {}, {}},
    };
    for (AblationRow& abl : ablations) {
        recon::ReconstructionOptions opt;
        opt.resolution = ablRes;
        opt.mode = recon::ReconMode::Sparse;
        opt.device = recon::DeviceProfile::host();
        opt.pool = &oneCore;
        opt.simdBatch = abl.simd;
        opt.octreeCertificates = abl.octree;
        for (int i = 0; i < 3; ++i) {
            const auto r = recon::reconstructFromPose(pose, opt);
            abl.ms.record(r.totalMs());
            abl.stats = r.stats;
        }
    }
    const double ablBaseMs = ablations[0].ms.p50();
    bench::Table ablTable({"config", "ms (p50)", "FPS", "speedup vs scalar+flat",
                           "node eval fraction", "cert tests",
                           "coarse-filled blocks"});
    json.beginArray("ablation");
    for (const AblationRow& abl : ablations) {
        const double ms = abl.ms.p50();
        ablTable.addRow({abl.name, bench::fmt("%.1f", ms),
                         bench::fmt("%.2f", 1000.0 / ms),
                         bench::fmt("%.2fx", ablBaseMs / ms),
                         bench::fmt("%.3f", abl.stats.evalFraction()),
                         std::to_string(abl.stats.certTests),
                         std::to_string(abl.stats.blocksCoarseFilled)});
        json.beginObject()
            .field("config", std::string(abl.name))
            .field("resolution", static_cast<std::uint64_t>(ablRes))
            .field("ms_p50", ms)
            .field("fps_p50", 1000.0 / ms)
            .field("speedup_vs_scalar_flat", ablBaseMs / ms)
            .field("node_eval_fraction", abl.stats.evalFraction())
            .field("cert_tests", abl.stats.certTests)
            .field("blocks_coarse_filled", abl.stats.blocksCoarseFilled)
            .endObject();
    }
    json.endArray();
    ablTable.print();

    // ---- Extraction: block-local table-driven vs legacy, single core ----
    // Same sampled grid, same options, both extractors serial — the
    // speedup is a pure algorithmic ratio, immune to machine speed. The
    // two extractors must emit the same triangle set (canonical soup
    // equality); a mismatch is a correctness bug and fails the run.
    bench::banner("Extraction: block-local marching tetrahedra vs legacy (1 core)");
    const int extRes = std::min(maxRes, 128);
    bool extractionMatch = true;
    {
        body::BodyFieldOptions fieldOpt;
        const body::BodyField body =
            body::makeBodyField(pose, fieldOpt);
        mesh::BlockSampler sampler(mesh::VoxelGrid(body.bounds, {extRes, extRes, extRes}),
                                   recon::resolveBlockSize(extRes));
        mesh::FieldSampleOptions sampling;
        sampling.certificate = body.certificate;
        sampling.batch = body.batch;
        sampler.sample(body.field, sampling);
        // The legacy extractor reads a dense copy of the store, made once
        // outside the timed loop. The block extractor reads the store.
        const std::vector<float> values = mesh::denseValues(sampler);

        mesh::IsoSurfaceOptions extOpt;  // recon-path config for both sides
        extOpt.weldVertices = false;
        core::telemetry::Histogram legacyMs, blockMs;
        mesh::ReconCounters es;
        mesh::TriMesh legacyMesh, blockMesh;
        for (int i = 0; i < 5; ++i) {
            auto t0 = std::chrono::steady_clock::now();
            legacyMesh =
                mesh::extractIsoSurfaceLegacy(sampler.grid(), values, &sampler, extOpt);
            legacyMs.record(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
            t0 = std::chrono::steady_clock::now();
            blockMesh = mesh::extractIsoSurface(sampler, extOpt, &es);
            blockMs.record(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
        }

        const auto legacySoup = mesh::canonicalTriangleSoup(legacyMesh);
        const auto blockSoup = mesh::canonicalTriangleSoup(blockMesh);
        extractionMatch = legacySoup.size() == blockSoup.size();
        for (std::size_t i = 0; extractionMatch && i < legacySoup.size(); ++i)
            for (int v = 0; v < 3 && extractionMatch; ++v)
                extractionMatch = legacySoup[i][v].x == blockSoup[i][v].x &&
                                  legacySoup[i][v].y == blockSoup[i][v].y &&
                                  legacySoup[i][v].z == blockSoup[i][v].z;

        const double extSpeedup =
            blockMs.p50() > 0.0 ? legacyMs.p50() / blockMs.p50() : 0.0;
        bench::Table ext({"resolution", "legacy ms (p50)", "block ms (p50)",
                          "speedup (1 core)", "active cells", "triangles",
                          "canonical match"});
        ext.addRow({std::to_string(extRes), bench::fmt("%.1f", legacyMs.p50()),
                    bench::fmt("%.1f", blockMs.p50()),
                    bench::fmt("%.2fx", extSpeedup),
                    std::to_string(es.activeCells),
                    std::to_string(blockMesh.triangleCount()),
                    extractionMatch ? "yes" : "NO"});
        ext.print();
        json.beginObject("extraction")
            .field("resolution", static_cast<std::uint64_t>(extRes))
            .field("legacy_ms_p50", legacyMs.p50())
            .field("block_ms_p50", blockMs.p50())
            .field("speedup_single_core", extSpeedup)
            .field("canonical_match", std::string(extractionMatch ? "yes" : "no"))
            .field("active_cells", es.activeCells)
            .field("vertices", es.vertices)
            .field("triangles", es.triangles)
            .endObject();
    }

    json.endObject();
    {
        std::FILE* f = std::fopen("BENCH_fig4.json", "w");
        if (f != nullptr) {
            std::fputs(json.str().c_str(), f);
            std::fputs("\n", f);
            std::fclose(f);
            std::printf("\nwrote BENCH_fig4.json\n");
        }
    }

    std::printf(
        "\nShape check: dense FPS decays ~cubically and sits far below the 30 FPS\n"
        "interactive requirement at every paper resolution (Figure 4); the laptop\n"
        "profile cannot hold dense 512/1024 grids (section 4.2) but the sparse\n"
        "working set fits. Sparse reconstruction prunes interior/exterior blocks,\n"
        "so its cost tracks the surface shell (~R^2) instead of the volume.\n");
    if (!extractionMatch) {
        std::fprintf(stderr,
                     "FAIL: block extractor and legacy extractor disagree on the "
                     "triangle set at %d^3\n",
                     extRes);
        return 1;
    }
    return 0;
}
