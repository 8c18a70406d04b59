// Regenerates Table 2: required bandwidth (Mbps) at 30 FPS for
// keypoint-based semantic vs traditional communication, before and after
// compression (LZC standing in for LZMA, our mesh codec for Draco).
//
// Paper values: semantic 0.46 / 0.30 Mbps; traditional 95.4 / 10.1 Mbps;
// savings ~207x (raw) and ~34x (compressed).
//
// Each table row is a ChannelSpec: the sweep iterates over data, and the
// wire bytes come from the same channel implementations the session
// engines run, so this table can never drift from the real pipeline.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/compress/pointcloudcodec.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/core/conference.hpp"
#include "semholo/mesh/sampling.hpp"

using namespace semholo;

int main() {
    bench::banner("Table 2: bandwidth at 30 FPS, keypoint semantics vs traditional");

    // Default template resolution: ~10.5k vertices, the SMPL-X scale the
    // paper's traditional baseline streams (~398 KB/frame raw).
    const body::BodyModel model(body::ShapeParams{});
    const body::MotionGenerator gen(body::MotionKind::Talk, model.shape());
    constexpr int kFrames = 30;
    constexpr double kFps = 30.0;

    struct Row {
        const char* label;
        core::ChannelSpec spec;
        const char* paperMbps;
        const char* byteFormat;
    };
    const std::vector<Row> rows{
        {"semantic w/o compression",
         {"keypoint", {{"compressPayload", 0}}},
         "0.46",
         "%.2f"},
        {"semantic w/ compression (LZC~LZMA)",
         {"keypoint", {{"compressPayload", 1}}},
         "0.30",
         "%.2f"},
        {"traditional w/o compression",
         {"traditional", {{"compress", 0}}},
         "95.4",
         "%.1f"},
        {"traditional w/ compression (~Draco)",
         {"traditional", {{"compress", 1}}},
         "10.1",
         "%.1f"},
    };

    auto mbps = [](double bytesPerFrame) { return bytesPerFrame * 8.0 * 30.0 / 1e6; };

    std::vector<double> meanBytes;
    bench::Table table({"approach", "KB/frame", "Mbps@30FPS", "paper Mbps"});
    for (const Row& row : rows) {
        auto channel = core::makeChannel(row.spec, &model);
        double bytes = 0.0;
        for (int f = 0; f < kFrames; ++f) {
            core::FrameContext ctx;
            ctx.pose = gen.poseAt(f / kFps);
            ctx.pose.frameId = static_cast<std::uint32_t>(f);
            ctx.model = &model;
            ctx.timestamp = f / kFps;
            bytes += static_cast<double>(channel->encode(ctx).bytes());
        }
        bytes /= kFrames;
        meanBytes.push_back(bytes);
        table.addRow({row.label, bench::fmt(row.byteFormat, bytes / 1024.0),
                      bench::fmt(row.byteFormat, mbps(bytes)), row.paperMbps});
    }
    table.print();

    std::printf("\nBandwidth savings (raw):        %.0fx   (paper: ~207x)\n",
                meanBytes[2] / meanBytes[0]);
    std::printf("Bandwidth savings (compressed): %.0fx   (paper: ~34x)\n",
                meanBytes[3] / meanBytes[1]);

    // Supplementary: the point-cloud flavour of the traditional format
    // (section 2.1 lists both), through the octree codec.
    {
        const body::Pose pose = gen.poseAt(0.5);
        const auto cloud = mesh::sampleSurface(model.deform(pose), 100000, 3);
        compress::PointCloudCodecOptions pc;
        pc.encodeColors = false;
        const auto encoded = compress::encodePointCloud(cloud, pc);
        std::printf(
            "\nSupplementary (point-cloud representation, 100k points/frame):\n"
            "  raw %.1f KB -> octree-coded %.1f KB (%.1fx); at 30 FPS: %.1f -> "
            "%.1f Mbps\n",
            cloud.rawBytes() / 1024.0, encoded.size() / 1024.0,
            static_cast<double>(cloud.rawBytes()) /
                static_cast<double>(encoded.size()),
            mbps(static_cast<double>(cloud.rawBytes())),
            mbps(static_cast<double>(encoded.size())));
    }

    // Conference aggregate: the same Table 2 formats as a 4-party
    // conference over one 25 Mbps uplink, measured through the
    // multi-user session engine (per-tick scheduler). Reports each
    // user's bandwidth share so the table reflects wire bytes that
    // actually survived the shared bottleneck, not just encode sizes.
    bench::banner("Conference aggregate: 4 users, one 25 Mbps uplink");
    // Coarser template than the single-stream table: session rows decode
    // every frame, and the aggregate/share split is resolution-agnostic.
    const body::BodyModel confModel(body::ShapeParams{}, 48);
    const std::vector<Row> confRows{
        {"semantic w/ compression (LZC~LZMA)",
         {"keypoint", {{"compressPayload", 1}, {"reconResolution", 24}}},
         "0.30",
         "%.2f"},
        {"traditional w/ compression (~Draco)",
         {"traditional", {{"compress", 1}}},
         "10.1",
         "%.1f"},
    };
    bench::Table confTable({"approach", "aggregate Mbps", "per-user share",
                            "delivery %", "fairness (Jain)"});
    for (const Row& row : confRows) {
        constexpr std::size_t kUsers = 4;
        core::ConferenceConfig conf;
        conf.session.frames = 30;
        conf.session.timing = core::TimingModel::Simulated;
        conf.session.link.bandwidth = net::BandwidthTrace::constant(25e6);
        conf.session.link.queueCapacityBytes = 2 * 1024 * 1024;
        conf.enableDownlinks = false;  // uplink-share table
        conf.participants.resize(kUsers);
        for (auto& p : conf.participants) p.channel = row.spec;
        const auto stats = core::runConference(conf, confModel);

        std::string shares;
        for (const core::UserFairnessStats& f : stats.fairness) {
            if (!shares.empty()) shares += "/";
            shares += bench::fmt("%.2f", f.bandwidthShare);
        }
        const auto delivered = stats.telemetry.counters.framesDelivered;
        confTable.addRow(
            {row.label, bench::fmt("%.2f", stats.aggregateMbps), shares,
             bench::fmt("%.1f",
                        100.0 * static_cast<double>(delivered) /
                            static_cast<double>(kUsers * conf.session.frames)),
             bench::fmt("%.3f", stats.fairnessIndex)});
    }
    confTable.print();
    std::printf(
        "\nShape check: four semantic users fit in ~2%% of the uplink with\n"
        "equal shares; four compressed-mesh users contend for all of it.\n");
    return 0;
}
