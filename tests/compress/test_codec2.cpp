#include "semholo/compress/codec2.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "semholo/body/animation.hpp"
#include "semholo/body/pose.hpp"

namespace semholo::compress {
namespace {

std::vector<std::uint8_t> bytesOf(const std::string& s) {
    return {s.begin(), s.end()};
}

std::vector<std::uint8_t> poseStream(body::MotionKind kind, int frames) {
    const body::MotionGenerator gen(kind);
    std::vector<std::uint8_t> out;
    for (const body::Pose& pose : gen.sequence(static_cast<std::size_t>(frames)))
        for (const std::uint8_t b : body::serializePose(pose)) out.push_back(b);
    return out;
}

const std::vector<std::vector<FilterOp>> kChains = {
    {},
    {FilterOp::ByteTranspose},
    {FilterOp::ByteTranspose, FilterOp::DeltaDiff},
    {FilterOp::ByteTranspose, FilterOp::XorDiff},
    {FilterOp::Bitshuffle},
    {FilterOp::Bitshuffle, FilterOp::DeltaDiff},
    {FilterOp::DeltaDiff},
};

TEST(Codec2, EveryChainBackendOptionComboRoundTrips) {
    const auto stream = poseStream(body::MotionKind::Talk, 4);
    const auto text = bytesOf("semantic holographic communication caption text");
    for (const auto& ops : kChains) {
        for (const EntropyBackend backend :
             {EntropyBackend::Store, EntropyBackend::Lzc}) {
            for (const int steps : {1, 64, 256}) {
                for (const int ctxBits : {0, 2, 3, 9}) {
                    Codec2Options options;
                    options.filters.ops = ops;
                    options.filters.stride = 8;
                    options.backend = backend;
                    options.lzc.maxChainSteps = steps;
                    options.lzc.literalContextBits = ctxBits;
                    for (const auto* data : {&stream, &text}) {
                        const auto container = codec2Encode(*data, options);
                        const auto back = codec2Decode(container);
                        ASSERT_TRUE(back.has_value())
                            << filterChainName(options.filters);
                        EXPECT_EQ(*back, *data)
                            << filterChainName(options.filters);
                    }
                }
            }
        }
    }
}

TEST(Codec2, DecodeNeedsNoOptions) {
    // The container self-describes: decode sees only bytes, never the
    // encoder's Codec2Options. Encode with deliberately odd settings.
    const auto data = poseStream(body::MotionKind::Collaborate, 2);
    Codec2Options odd;
    odd.filters.ops = {FilterOp::Bitshuffle, FilterOp::XorDiff};
    odd.filters.stride = 16;
    odd.lzc.maxChainSteps = 7;
    odd.lzc.literalContextBits = 1;
    const auto container = codec2Encode(data, odd);
    const auto back = codec2Decode(container);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
}

TEST(Codec2, EmptyInputRoundTrips) {
    for (const EntropyBackend backend :
         {EntropyBackend::Store, EntropyBackend::Lzc}) {
        Codec2Options options = poseCodecDefaults();
        options.backend = backend;
        const auto container = codec2Encode({}, options);
        const auto back = codec2Decode(container);
        ASSERT_TRUE(back.has_value());
        EXPECT_TRUE(back->empty());
    }
}

TEST(Codec2, DefaultPoseChainBeatsPlainLzcOnPoseStream) {
    // The point of the filter stage (ROADMAP "Keypoint codec v2"): the
    // transpose+delta chain must strictly improve the ratio a bare lzc
    // pass achieves on the serialized pose stream.
    const auto stream = poseStream(body::MotionKind::Talk, 16);
    Codec2Options plain = textCodecDefaults();  // lzc, no filters
    const auto plainBytes = codec2Encode(stream, plain).size();
    const auto filteredBytes =
        codec2Encode(stream, poseCodecDefaults()).size();
    EXPECT_LT(filteredBytes, plainBytes);
}

TEST(Codec2, UnknownHeaderBytesRejected) {
    const auto container = codec2Encode(bytesOf("payload"), poseCodecDefaults());
    {
        auto bad = container;
        bad[0] = 0x00;  // magic
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
    {
        auto bad = container;
        bad[1] = kCodec2Version + 1;  // future version
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
    {
        auto bad = container;
        bad[2] = 9;  // unknown backend
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
    {
        auto bad = container;
        bad[3] = 0;  // zero stride
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
    {
        auto bad = container;
        bad[4] = 200;  // absurd filter count
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
    {
        auto bad = container;
        bad[5] = 99;  // unknown filter op byte
        EXPECT_FALSE(codec2Decode(bad).has_value());
    }
}

TEST(Codec2, MalformedEncodeOptionsDegradeToDecodableStream) {
    // A zero-stride chain cannot be honored; the encoder must still
    // produce a container the decoder accepts (filters dropped), never
    // an undecodable stream.
    const auto data = bytesOf("robustness of the encode path");
    Codec2Options broken = poseCodecDefaults();
    broken.filters.stride = 0;
    const auto container = codec2Encode(data, broken);
    const auto back = codec2Decode(container);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
}

TEST(Codec2, CorruptionFuzzNeverCrashes) {
    const auto data = poseStream(body::MotionKind::Wave, 2);
    for (const EntropyBackend backend :
         {EntropyBackend::Store, EntropyBackend::Lzc}) {
        Codec2Options options = poseCodecDefaults();
        options.backend = backend;
        const auto container = codec2Encode(data, options);

        // Truncations at every length must not crash. There is no
        // integrity hash by design, so a cut through the range-coder
        // tail may still decode — but the lzc backend's size header
        // pins the output length, so any successful decode has the
        // original size. (Store has no explicit size: a truncated store
        // container legitimately decodes to a shorter byte string.)
        for (std::size_t len = 0; len < container.size(); ++len) {
            const auto back =
                codec2Decode(std::span(container).subspan(0, len));
            if (back.has_value() && backend == EntropyBackend::Lzc) {
                EXPECT_EQ(back->size(), data.size());
            }
        }
        // Single-bit flips across the whole container: must not crash.
        for (std::size_t bit = 0; bit < container.size() * 8; bit += 7) {
            auto corrupt = container;
            corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            (void)codec2Decode(corrupt);
        }
    }
    // Random garbage of assorted sizes.
    std::mt19937 rng(31);
    std::uniform_int_distribution<int> uni(0, 255);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> garbage(static_cast<std::size_t>(uni(rng)));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(uni(rng));
        (void)codec2Decode(garbage);
    }
}

}  // namespace
}  // namespace semholo::compress
