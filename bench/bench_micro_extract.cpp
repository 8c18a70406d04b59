// Microbenchmarks for iso-surface extraction (google-benchmark): the
// legacy serial cell scan vs the two-pass block-local table-driven
// extractor, serial and pooled. All variants run over the same sampled
// body grid so the ratios isolate the extraction algorithm from field
// evaluation.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/isosurface_legacy.hpp"
#include "semholo/recon/keypoint_recon.hpp"

namespace semholo {
namespace {

// One sampled grid per resolution, shared by every benchmark variant
// (sampling a 128^3 body field is far more expensive than extraction).
// The legacy extractor reads a dense copy of the values, the block
// extractor the sampler's store.
struct Workload {
    std::unique_ptr<mesh::BlockSampler> sampler;
    std::vector<float> values;
};

Workload& workload(int res) {
    static std::map<int, Workload> cache;
    Workload& w = cache[res];
    if (!w.sampler) {
        const body::Pose pose =
            body::MotionGenerator(body::MotionKind::Talk).poseAt(0.5);
        const body::BodyField body =
            body::makeBodyField(pose);
        w.sampler = std::make_unique<mesh::BlockSampler>(
            mesh::VoxelGrid(body.bounds, {res, res, res}), recon::resolveBlockSize(res));
        mesh::FieldSampleOptions sampling;
        sampling.certificate = body.certificate;
        sampling.batch = body.batch;
        w.sampler->sample(body.field, sampling);
        w.values = mesh::denseValues(*w.sampler);
    }
    return w;
}

mesh::IsoSurfaceOptions reconOptions() {
    mesh::IsoSurfaceOptions opt;  // recon-path config: weld elided
    opt.weldVertices = false;
    return opt;
}

void BM_ExtractLegacy(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    const auto opt = reconOptions();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mesh::extractIsoSurfaceLegacy(w.sampler->grid(), w.values, w.sampler.get(), opt));
}
BENCHMARK(BM_ExtractLegacy)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ExtractBlockSerial(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    const auto opt = reconOptions();
    for (auto _ : state)
        benchmark::DoNotOptimize(mesh::extractIsoSurface(*w.sampler, opt, nullptr));
}
BENCHMARK(BM_ExtractBlockSerial)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ExtractBlockPooled(benchmark::State& state) {
    Workload& w = workload(static_cast<int>(state.range(0)));
    core::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    auto opt = reconOptions();
    opt.pool = &pool;
    for (auto _ : state)
        benchmark::DoNotOptimize(mesh::extractIsoSurface(*w.sampler, opt, nullptr));
}
BENCHMARK(BM_ExtractBlockPooled)
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semholo

BENCHMARK_MAIN();
