// Microbenchmarks + the codec v2 Pareto sweep.
//
// Part 1 (google-benchmark): per-call costs of the compression
// substrates — LZC and the codec v2 pipeline on the 1.91 KB pose
// payload (the per-frame sender hot path of the keypoint channel) and
// the mesh codec on the body template (the traditional channel hot
// path). These quantify the codec contribution to the Table 1
// extraction overheads.
//
// Part 2 (after the microbenches): the full sweep over
// filter chain x entropy backend x lzc level, run on real serialized
// pose sequences (Talk + Collaborate, per-frame payloads exactly as the
// keypoint channel sends them). Emits BENCH_codec_pareto.json with the
// ratio-vs-throughput frontier for regression tracking, and exits
// nonzero if any combination fails its bit-exact round trip — CI runs
// this binary as a correctness gate, not just a stopwatch.
//
// Part 3 (last): the mesh codec at pool size 1 and at the shared pool's
// size, with the in-run speedup, each section's backend, sizes and
// coder MB/s (position sections also on lzc, their v2 backend), and the
// ratio against the raw mesh; exits nonzero if the pool sizes disagree
// on a byte or a section does not re-encode to its own bytes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/compress/codec2.hpp"
#include "semholo/compress/lzc.hpp"
#include "semholo/compress/meshcodec.hpp"
#include "semholo/compress/rans.hpp"
#include "semholo/compress/texturecodec.hpp"
#include "semholo/core/telemetry.hpp"
#include "semholo/core/thread_pool.hpp"

namespace semholo {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 72};
    return model;
}

std::vector<std::uint8_t> posePayload() {
    const body::MotionGenerator gen(body::MotionKind::Talk);
    return body::serializePose(gen.poseAt(0.5));
}

void BM_LzcCompressPosePayload(benchmark::State& state) {
    const auto payload = posePayload();
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::lzcCompress(payload));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_LzcCompressPosePayload);

void BM_LzcDecompressPosePayload(benchmark::State& state) {
    const auto compressed = compress::lzcCompress(posePayload());
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::lzcDecompress(compressed));
    }
}
BENCHMARK(BM_LzcDecompressPosePayload);

void BM_Codec2CompressPosePayload(benchmark::State& state) {
    const auto payload = posePayload();
    const auto options = compress::poseCodecDefaults();
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::codec2Encode(payload, options));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
    state.counters["enc_bytes"] = static_cast<double>(
        compress::codec2Encode(payload, options).size());
}
BENCHMARK(BM_Codec2CompressPosePayload);

void BM_Codec2DecompressPosePayload(benchmark::State& state) {
    const auto container =
        compress::codec2Encode(posePayload(), compress::poseCodecDefaults());
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::codec2Decode(container));
    }
}
BENCHMARK(BM_Codec2DecompressPosePayload);

void BM_FilterPosePayload(benchmark::State& state) {
    const auto payload = posePayload();
    const auto chain = compress::poseCodecDefaults().filters;
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::applyFilters(chain, payload));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_FilterPosePayload);

// The production bitshuffle (8 rows per 64-bit transpose) against the
// bit-at-a-time reference it must stay byte-identical to; the ratio of
// these two rows is the speedup the transpose path buys.
void BM_BitshuffleFast(benchmark::State& state) {
    const auto payload = posePayload();
    const compress::FilterChain chain{.ops = {compress::FilterOp::Bitshuffle},
                                      .stride = 8};
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::applyFilters(chain, payload));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_BitshuffleFast);

void BM_BitshuffleScalarReference(benchmark::State& state) {
    const auto payload = posePayload();
    std::vector<std::uint8_t> out(payload.size());
    for (auto _ : state) {
        compress::detail::bitshuffleScalar(payload, out.data(), 8);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_BitshuffleScalarReference);

// Mesh codec rows take the pool size as their argument: 1, or 0 for the
// shared pool's default size.
core::ThreadPool* meshBenchPool(benchmark::State& state,
                                std::optional<core::ThreadPool>& own) {
    if (state.range(0) == 0) return &core::sharedPool();
    return &own.emplace(static_cast<std::size_t>(state.range(0)));
}

void BM_MeshEncode(benchmark::State& state) {
    const mesh::TriMesh& m = sharedModel().templateMesh();
    std::optional<core::ThreadPool> own;
    compress::MeshCodecOptions opt;
    opt.encodeColors = false;
    opt.pool = meshBenchPool(state, own);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::encodeMesh(m, opt));
    }
    state.counters["workers"] = static_cast<double>(opt.pool->size());
    state.counters["raw_bytes"] = static_cast<double>(m.rawGeometryBytes());
    state.counters["enc_bytes"] =
        static_cast<double>(compress::encodeMesh(m, opt).size());
}
BENCHMARK(BM_MeshEncode)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_MeshDecode(benchmark::State& state) {
    std::optional<core::ThreadPool> own;
    core::ThreadPool* pool = meshBenchPool(state, own);
    compress::MeshCodecOptions opt;
    opt.encodeColors = false;
    const auto data = compress::encodeMesh(sharedModel().templateMesh(), opt);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::decodeMesh(data, pool));
    }
    state.counters["workers"] = static_cast<double>(pool->size());
}
BENCHMARK(BM_MeshDecode)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_TextureBlocks(benchmark::State& state) {
    const auto& colors = sharedModel().templateMesh().colors;
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::encodeColorBlocks(colors));
    }
    state.counters["colors"] = static_cast<double>(colors.size());
}
BENCHMARK(BM_TextureBlocks);

void BM_PoseSerialize(benchmark::State& state) {
    const body::MotionGenerator gen(body::MotionKind::Talk);
    const body::Pose pose = gen.poseAt(0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(body::serializePose(pose));
    }
}
BENCHMARK(BM_PoseSerialize);

// ---------------------------------------------------------------------
// Pareto sweep: filter chain x backend x lzc maxChainSteps level over
// real serialized pose sequences.

struct SweepRow {
    std::string chain;
    std::string backend;
    int level{};  // lzc maxChainSteps; 0 for the Store backend
    std::size_t rawBytes{};
    std::size_t encBytes{};
    double encMs{};
    double decMs{};
    bool roundTripOk{true};
    bool pareto{false};

    double ratio() const {
        return encBytes > 0 ? static_cast<double>(rawBytes) /
                                  static_cast<double>(encBytes)
                            : 0.0;
    }
    double encMBps() const {
        return encMs > 0.0 ? static_cast<double>(rawBytes) / 1e6 / (encMs / 1e3)
                           : 0.0;
    }
    double decMBps() const {
        return decMs > 0.0 ? static_cast<double>(rawBytes) / 1e6 / (decMs / 1e3)
                           : 0.0;
    }
};

double wallMs(const std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int runParetoSweep() {
    bench::banner(
        "Codec v2 Pareto sweep: filter chain x backend x level on pose streams");

    // The workload: per-frame pose payloads exactly as the keypoint
    // channel sends them, from two motion sequences.
    std::vector<std::vector<std::uint8_t>> frames;
    std::size_t rawBytes = 0;
    for (const body::MotionKind kind :
         {body::MotionKind::Talk, body::MotionKind::Collaborate}) {
        const body::MotionGenerator gen(kind);
        for (const body::Pose& pose : gen.sequence(64, 30.0)) {
            frames.push_back(body::serializePose(pose));
            rawBytes += frames.back().size();
        }
    }

    using compress::EntropyBackend;
    using compress::FilterChain;
    using compress::FilterOp;
    const std::vector<FilterChain> chains = {
        FilterChain{.ops = {}, .stride = 8},
        FilterChain{.ops = {FilterOp::DeltaDiff}, .stride = 8},
        FilterChain{.ops = {FilterOp::ByteTranspose}, .stride = 8},
        FilterChain{.ops = {FilterOp::ByteTranspose, FilterOp::DeltaDiff},
                    .stride = 8},
        FilterChain{.ops = {FilterOp::ByteTranspose, FilterOp::XorDiff},
                    .stride = 8},
        FilterChain{.ops = {FilterOp::Bitshuffle}, .stride = 8},
        FilterChain{.ops = {FilterOp::Bitshuffle, FilterOp::DeltaDiff},
                    .stride = 8},
    };
    const std::vector<int> lzcLevels = {4, 64, 256};
    constexpr int kRepeats = 3;

    std::vector<SweepRow> rows;
    bool allRoundTripsOk = true;
    for (const FilterChain& chain : chains) {
        for (const EntropyBackend backend :
             {EntropyBackend::Store, EntropyBackend::Lzc}) {
            const std::vector<int> levels =
                backend == EntropyBackend::Lzc ? lzcLevels : std::vector<int>{0};
            for (const int level : levels) {
                compress::Codec2Options options;
                options.filters = chain;
                options.backend = backend;
                options.lzc.maxChainSteps = level;

                SweepRow row;
                row.chain = compress::filterChainName(chain);
                row.backend = backend == EntropyBackend::Lzc ? "lzc" : "store";
                row.level = level;
                row.rawBytes = rawBytes;

                std::vector<std::vector<std::uint8_t>> encoded(frames.size());
                row.encMs = 1e30;
                for (int rep = 0; rep < kRepeats; ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    for (std::size_t f = 0; f < frames.size(); ++f)
                        encoded[f] = compress::codec2Encode(frames[f], options);
                    row.encMs = std::min(row.encMs, wallMs(t0));
                }
                row.encBytes = 0;
                for (const auto& e : encoded) row.encBytes += e.size();

                std::vector<std::optional<std::vector<std::uint8_t>>> decoded(
                    frames.size());
                row.decMs = 1e30;
                for (int rep = 0; rep < kRepeats; ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    for (std::size_t f = 0; f < frames.size(); ++f)
                        decoded[f] = compress::codec2Decode(encoded[f]);
                    row.decMs = std::min(row.decMs, wallMs(t0));
                }
                for (std::size_t f = 0; f < frames.size(); ++f) {
                    if (!decoded[f] || *decoded[f] != frames[f]) {
                        row.roundTripOk = false;
                        allRoundTripsOk = false;
                    }
                }
                rows.push_back(std::move(row));
            }
        }
    }

    // Pareto frontier on (ratio, encode throughput): a row is on the
    // frontier when no other row is at least as good on both axes and
    // strictly better on one.
    for (SweepRow& row : rows) {
        row.pareto = true;
        for (const SweepRow& other : rows) {
            if (&other == &row) continue;
            const bool geq = other.ratio() >= row.ratio() &&
                             other.encMBps() >= row.encMBps();
            const bool strict = other.ratio() > row.ratio() ||
                                other.encMBps() > row.encMBps();
            if (geq && strict) {
                row.pareto = false;
                break;
            }
        }
    }

    // Acceptance probe: does some filter chain strictly dominate plain
    // lzc (better ratio at >= equal encode throughput) at the default
    // level?
    const SweepRow* plain = nullptr;
    for (const SweepRow& row : rows)
        if (row.chain == "none" && row.backend == "lzc" && row.level == 64)
            plain = &row;
    std::string dominatingChain;
    double dominatingRatio = 0.0;
    if (plain != nullptr) {
        for (const SweepRow& row : rows) {
            if (row.backend != "lzc" || row.chain == "none") continue;
            if (row.ratio() > plain->ratio() &&
                row.encMBps() >= plain->encMBps() &&
                row.ratio() > dominatingRatio) {
                dominatingRatio = row.ratio();
                dominatingChain = row.chain + "@" + std::to_string(row.level);
            }
        }
    }

    bench::Table table({"filter chain", "backend", "level", "enc KB", "ratio",
                        "enc MB/s", "dec MB/s", "round trip", "pareto"});
    core::telemetry::JsonWriter json;
    json.beginObject();
    json.field("schema_version", core::telemetry::kBenchSchemaVersion);
    json.field("bench", std::string("codec_pareto"));
    json.field("frames", static_cast<std::uint64_t>(frames.size()));
    json.field("raw_bytes", static_cast<std::uint64_t>(rawBytes));
    json.beginArray("rows");
    for (const SweepRow& row : rows) {
        table.addRow({row.chain, row.backend, std::to_string(row.level),
                      bench::fmt("%.1f", static_cast<double>(row.encBytes) / 1e3),
                      bench::fmt("%.3f", row.ratio()),
                      bench::fmt("%.1f", row.encMBps()),
                      bench::fmt("%.1f", row.decMBps()),
                      row.roundTripOk ? "ok" : "FAIL", row.pareto ? "*" : ""});
        json.beginObject()
            .field("chain", row.chain)
            .field("backend", row.backend)
            .field("level", static_cast<std::uint64_t>(row.level))
            .field("enc_bytes", static_cast<std::uint64_t>(row.encBytes))
            .field("ratio", row.ratio())
            .field("enc_mbps", row.encMBps())
            .field("dec_mbps", row.decMBps())
            .field("round_trip", std::string(row.roundTripOk ? "ok" : "fail"))
            .field("pareto", std::string(row.pareto ? "yes" : "no"))
            .endObject();
    }
    json.endArray();
    if (plain != nullptr) {
        json.field("plain_lzc_ratio", plain->ratio());
        json.field("plain_lzc_enc_mbps", plain->encMBps());
    }
    json.field("dominating_chain", dominatingChain);
    json.field("all_round_trips",
               std::string(allRoundTripsOk ? "ok" : "fail"));
    json.endObject();
    table.print();

    if (std::FILE* f = std::fopen("BENCH_codec_pareto.json", "w")) {
        std::fputs(json.str().c_str(), f);
        std::fputs("\n", f);
        std::fclose(f);
        std::printf("\nwrote BENCH_codec_pareto.json\n");
    }

    if (plain != nullptr) {
        std::printf(
            "\nplain lzc@64: ratio %.3f at %.1f MB/s; %s\n", plain->ratio(),
            plain->encMBps(),
            dominatingChain.empty()
                ? "WARNING: no filter chain dominates plain lzc on this host"
                : ("dominated by " + dominatingChain).c_str());
    }
    if (!allRoundTripsOk) {
        std::printf("FAIL: at least one (chain x backend x level) combination "
                    "did not round-trip bit-exactly\n");
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Mesh codec v3 on a Talk frame (the traditional channel's codec, on the
// mesh it sends): encode/decode at pool size 1 and at the shared pool's
// size, the in-run speedup, and each section's backend, sizes and coder
// throughput, with the position sections also timed on lzc (their v2
// backend). Exits nonzero when the two pool sizes disagree on a byte,
// the mesh does not decode, or a section does not re-encode to its own
// bytes.

// One section stream's coder throughput on its residual bytes.
struct SectionTiming {
    double encMBps{};
    double decMBps{};
    std::size_t packedBytes{};
    bool reproduced{true};  // re-encoding gave the same stream
};

SectionTiming timeSection(std::span<const std::uint8_t> stream, bool rans, int repeats) {
    compress::LzcWorkspace ws;
    std::vector<std::uint8_t> raw, packed;
    if (rans ? !compress::ransDecompress(stream, raw) : !compress::lzcDecompress(stream, ws))
        return {0.0, 0.0, stream.size(), false};
    if (!rans) raw = ws.decoded;
    double encMs = 1e30, decMs = 1e30;
    for (int rep = 0; rep < repeats; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        rans ? compress::ransCompress(raw, packed)
             : compress::lzcCompress(raw, ws, packed, compress::meshSectionLzcOptions(raw.size()));
        encMs = std::min(encMs, wallMs(t0));
        t0 = std::chrono::steady_clock::now();
        rans ? (void)compress::ransDecompress(packed, ws.decoded)
             : (void)compress::lzcDecompress(packed, ws);
        decMs = std::min(decMs, wallMs(t0));
    }
    const auto mbps = [&raw](double ms) {
        return static_cast<double>(raw.size()) / 1e3 / std::max(ms, 1e-6);
    };
    return {mbps(encMs), mbps(decMs), packed.size(),
            std::equal(packed.begin(), packed.end(), stream.begin(), stream.end())};
}

int runMeshCodecReport() {
    bench::banner("Mesh codec v3: pool size 1 vs the shared pool, per section");
    const mesh::TriMesh m =
        sharedModel().deform(body::MotionGenerator(body::MotionKind::Talk).poseAt(0.5));
    compress::MeshCodecOptions opt;
    opt.encodeColors = false;
    core::ThreadPool single(1);
    constexpr int kRepeats = 5;

    struct Row {
        std::size_t workers{};
        double encMs{1e30};
        double decMs{1e30};
        std::vector<std::uint8_t> bytes;
        bool decoded{true};
    };
    std::vector<Row> rows;
    for (core::ThreadPool* pool : {&single, &core::sharedPool()}) {
        Row row;
        row.workers = pool->size();
        opt.pool = pool;
        for (int rep = 0; rep < kRepeats; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            row.bytes = compress::encodeMesh(m, opt);
            row.encMs = std::min(row.encMs, wallMs(t0));
            t0 = std::chrono::steady_clock::now();
            const auto back = compress::decodeMesh(row.bytes, pool);
            row.decMs = std::min(row.decMs, wallMs(t0));
            row.decoded = row.decoded && back.has_value();
        }
        rows.push_back(std::move(row));
    }

    bench::Table timing({"pool workers", "encode ms", "decode ms", "encode speedup",
                         "decode speedup"});
    for (const Row& row : rows)
        timing.addRow({std::to_string(row.workers), bench::fmt("%.2f", row.encMs),
                       bench::fmt("%.2f", row.decMs),
                       bench::fmt("%.2fx", rows[0].encMs / row.encMs),
                       bench::fmt("%.2fx", rows[0].decMs / row.decMs)});
    timing.print();

    const auto sections = compress::meshSections(rows[0].bytes);
    bool reproduced = true;
    if (sections) {
        std::printf("\n");
        bench::Table table({"section", "backend", "raw KB", "packed KB", "ratio",
                            "encode MB/s", "decode MB/s"});
        bench::Table versus({"section", "rans KB", "lzc KB", "rans dec MB/s",
                             "lzc dec MB/s", "decode speedup"});
        double minSpeedup = 1e30;
        for (const compress::MeshSection& s : *sections) {
            const bool rans = s.backend == "rans";
            const SectionTiming t = timeSection(s.stream, rans, kRepeats);
            reproduced = reproduced && t.reproduced;
            table.addRow({s.name, s.backend,
                          bench::fmt("%.1f", static_cast<double>(s.rawBytes) / 1e3),
                          bench::fmt("%.1f", static_cast<double>(s.stream.size()) / 1e3),
                          bench::fmt("%.2f", static_cast<double>(s.rawBytes) /
                                                 static_cast<double>(s.stream.size())),
                          bench::fmt("%.1f", t.encMBps), bench::fmt("%.1f", t.decMBps)});
            if (!rans) continue;
            // The same residuals on lzc, the position sections' v2 backend.
            std::vector<std::uint8_t> raw;
            compress::ransDecompress(s.stream, raw);
            const auto lzc =
                compress::lzcCompress(raw, compress::meshSectionLzcOptions(raw.size()));
            const SectionTiming l = timeSection(lzc, false, kRepeats);
            minSpeedup = std::min(minSpeedup, t.decMBps / l.decMBps);
            versus.addRow({s.name, bench::fmt("%.1f", static_cast<double>(t.packedBytes) / 1e3),
                           bench::fmt("%.1f", static_cast<double>(l.packedBytes) / 1e3),
                           bench::fmt("%.1f", t.decMBps), bench::fmt("%.1f", l.decMBps),
                           bench::fmt("%.1fx", t.decMBps / l.decMBps)});
        }
        table.print();
        std::printf("\nposition sections, rANS (v3) vs lzc (v2):\n");
        versus.print();
        if (minSpeedup < 1e30)
            std::printf("slowest position-section decode speedup over lzc: %.1fx "
                        "(target: >= 5x)\n",
                        minSpeedup);
    }
    std::printf("\nraw mesh %.1f KB -> %.1f KB on the wire: %.2fx\n",
                static_cast<double>(m.rawGeometryBytes()) / 1e3,
                static_cast<double>(rows[0].bytes.size()) / 1e3,
                static_cast<double>(m.rawGeometryBytes()) /
                    static_cast<double>(rows[0].bytes.size()));

    const bool ok = sections && reproduced && rows[0].bytes == rows[1].bytes &&
                    rows[0].decoded && rows[1].decoded;
    if (!ok)
        std::printf("FAIL: mesh codec bytes differ across pool sizes, do not decode, or a "
                    "section does not re-encode to its own bytes\n");
    return ok ? 0 : 1;
}

}  // namespace
}  // namespace semholo

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const int sweep = semholo::runParetoSweep();
    const int mesh = semholo::runMeshCodecReport();
    return sweep != 0 || mesh != 0 ? 1 : 0;
}
