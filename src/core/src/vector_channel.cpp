// Vector-semantics baseline (section 2.2): a linear (PCA) autoencoder
// over the subject mesh, fitted offline with the snapshot method — the
// Gram matrix of F training frames is eigendecomposed (Jacobi) and the
// leading K components form the encoder/decoder basis shared by both
// ends of the session.
#include <cmath>

#include "semholo/core/channel.hpp"
#include "semholo/geometry/byteio.hpp"
#include "semholo/geometry/eigen.hpp"

namespace semholo::core {

namespace {

class VectorChannel final : public SemanticChannel {
public:
    VectorChannel(const body::BodyModel& model, const VectorChannelOptions& options)
        : model_(model), options_(options) {
        train();
    }

    std::string name() const override { return "vector-pca"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const mesh::TriMesh gt = frame.groundTruth();
        if (gt.vertexCount() != vertexCount_)
            return out;  // wrong subject; empty payload signals failure

        // Project the centred mesh onto the basis.
        out.data.reserve(4 + basisCount_ * 2);
        byteio::putU32(out.data, out.frameId);
        for (std::size_t k = 0; k < basisCount_; ++k) {
            double c = 0.0;
            const double* u = &basis_[k * dim_];
            for (std::size_t i = 0; i < vertexCount_; ++i) {
                const geom::Vec3f& v = gt.vertices[i];
                c += u[3 * i] * (v.x - mean_[3 * i]) +
                     u[3 * i + 1] * (v.y - mean_[3 * i + 1]) +
                     u[3 * i + 2] * (v.z - mean_[3 * i + 2]);
            }
            // 16-bit quantisation at +-4 sigma of the training coefficient.
            const double scale = coeffScale_[k];
            const auto q = static_cast<std::int16_t>(geom::clamp(
                c / scale * 32767.0, -32767.0, 32767.0));
            byteio::putU16(out.data, static_cast<std::uint16_t>(q));
        }
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        if (encoded.data.size() != 4 + basisCount_ * 2) return out;

        byteio::Reader r{encoded.data};
        r.u32();  // frame id
        std::vector<double> coeffs(basisCount_);
        for (std::size_t k = 0; k < basisCount_; ++k) {
            const auto q = static_cast<std::int16_t>(r.u16());
            coeffs[k] = static_cast<double>(q) / 32767.0 * coeffScale_[k];
        }

        out.mesh.vertices.resize(vertexCount_);
        for (std::size_t i = 0; i < vertexCount_; ++i) {
            double x = mean_[3 * i], y = mean_[3 * i + 1], z = mean_[3 * i + 2];
            for (std::size_t k = 0; k < basisCount_; ++k) {
                const double* u = &basis_[k * dim_];
                x += coeffs[k] * u[3 * i];
                y += coeffs[k] * u[3 * i + 1];
                z += coeffs[k] * u[3 * i + 2];
            }
            out.mesh.vertices[i] = {static_cast<float>(x), static_cast<float>(y),
                                    static_cast<float>(z)};
        }
        out.mesh.triangles = model_.templateMesh().triangles;
        out.mesh.computeVertexNormals();
        out.valid = true;
        return out;
    }

    // Session-setup payload both ends must share (the decoder "network").
    std::size_t basisBytes() const {
        return (basis_.size() + mean_.size() + coeffScale_.size()) * sizeof(double);
    }

private:
    void train() {
        const body::MotionGenerator gen(options_.trainingMotion, model_.shape(),
                                        options_.trainingSeed);
        const std::size_t frames = std::max<std::size_t>(8, options_.trainingFrames);
        vertexCount_ = model_.templateMesh().vertexCount();
        dim_ = vertexCount_ * 3;

        // Snapshot matrix.
        std::vector<std::vector<double>> snapshots(frames);
        mean_.assign(dim_, 0.0);
        for (std::size_t f = 0; f < frames; ++f) {
            const mesh::TriMesh m = model_.deform(gen.poseAt(f / 30.0));
            auto& snap = snapshots[f];
            snap.resize(dim_);
            for (std::size_t i = 0; i < vertexCount_; ++i) {
                snap[3 * i] = m.vertices[i].x;
                snap[3 * i + 1] = m.vertices[i].y;
                snap[3 * i + 2] = m.vertices[i].z;
            }
            for (std::size_t d = 0; d < dim_; ++d) mean_[d] += snap[d];
        }
        for (double& m : mean_) m /= static_cast<double>(frames);
        for (auto& snap : snapshots)
            for (std::size_t d = 0; d < dim_; ++d) snap[d] -= mean_[d];

        // Gram matrix G_ij = <xc_i, xc_j>.
        std::vector<double> gram(frames * frames);
        for (std::size_t i = 0; i < frames; ++i) {
            for (std::size_t j = i; j < frames; ++j) {
                double dot = 0.0;
                for (std::size_t d = 0; d < dim_; ++d)
                    dot += snapshots[i][d] * snapshots[j][d];
                gram[i * frames + j] = dot;
                gram[j * frames + i] = dot;
            }
        }
        const auto eig = geom::jacobiEigenSymmetric(gram, frames);

        basisCount_ = std::min<std::size_t>(static_cast<std::size_t>(options_.latentDim),
                                            frames);
        basis_.assign(basisCount_ * dim_, 0.0);
        coeffScale_.assign(basisCount_, 1.0);
        std::size_t kept = 0;
        for (std::size_t k = 0; k < basisCount_; ++k) {
            if (eig.values[k] <= 1e-9) break;
            double* u = &basis_[kept * dim_];
            const double* w = eig.vector(k);
            for (std::size_t f = 0; f < frames; ++f) {
                const double wf = w[f];
                if (wf == 0.0) continue;
                const auto& snap = snapshots[f];
                for (std::size_t d = 0; d < dim_; ++d) u[d] += wf * snap[d];
            }
            // Normalize; training coefficient std = sqrt(lambda / F).
            double norm = 0.0;
            for (std::size_t d = 0; d < dim_; ++d) norm += u[d] * u[d];
            norm = std::sqrt(norm);
            if (norm < 1e-12) break;
            for (std::size_t d = 0; d < dim_; ++d) u[d] /= norm;
            coeffScale_[kept] =
                4.0 * std::sqrt(eig.values[k] / static_cast<double>(frames));
            ++kept;
        }
        basisCount_ = std::max<std::size_t>(1, kept);
        basis_.resize(basisCount_ * dim_);
        coeffScale_.resize(basisCount_);
    }

    const body::BodyModel& model_;
    VectorChannelOptions options_;
    std::size_t vertexCount_{0};
    std::size_t dim_{0};
    std::size_t basisCount_{0};
    std::vector<double> mean_;
    std::vector<double> basis_;       // row k = component k (dim_ doubles)
    std::vector<double> coeffScale_;  // quantisation full-scale per coeff
};

}  // namespace

std::unique_ptr<SemanticChannel> makeVectorChannel(const body::BodyModel& model,
                                                   const VectorChannelOptions& options) {
    return std::make_unique<VectorChannel>(model, options);
}

}  // namespace semholo::core
