#include "semholo/textsem/captioner.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace semholo::textsem {

using body::JointId;
using body::kJointCount;

std::string cellName(BodyCell cell) {
    switch (cell) {
        case BodyCell::Torso: return "torso";
        case BodyCell::HeadFace: return "head_face";
        case BodyCell::LeftArm: return "left_arm";
        case BodyCell::RightArm: return "right_arm";
        case BodyCell::LeftHand: return "left_hand";
        case BodyCell::RightHand: return "right_hand";
        case BodyCell::LeftLeg: return "left_leg";
        case BodyCell::RightLeg: return "right_leg";
        case BodyCell::Count: break;
    }
    return "unknown";
}

BodyCell cellOfJoint(JointId joint) {
    const std::size_t j = body::index(joint);
    using body::index;
    if (j >= index(JointId::LeftThumb1) && j <= index(JointId::LeftPinky3))
        return BodyCell::LeftHand;
    if (j >= index(JointId::RightThumb1) && j <= index(JointId::RightPinky3))
        return BodyCell::RightHand;
    if (j >= index(JointId::LeftClavicle) && j <= index(JointId::LeftWrist))
        return BodyCell::LeftArm;
    if (j >= index(JointId::RightClavicle) && j <= index(JointId::RightWrist))
        return BodyCell::RightArm;
    if (j >= index(JointId::LeftHip) && j <= index(JointId::LeftFoot))
        return BodyCell::LeftLeg;
    if (j >= index(JointId::RightHip) && j <= index(JointId::RightFoot))
        return BodyCell::RightLeg;
    if (j >= index(JointId::Neck) && j <= index(JointId::RightEye))
        return BodyCell::HeadFace;
    return BodyCell::Torso;
}

std::size_t TextFrame::totalBytes() const {
    std::size_t n = global.size();
    for (const std::string& c : cells) n += c.size();
    return n;
}

std::string TextFrame::concatenated() const {
    std::string out = global;
    for (const std::string& c : cells) {
        out += '\n';
        out += c;
    }
    return out;
}

namespace {

constexpr double kRadToDeg = 180.0 / M_PI;
constexpr double kDegToRad = M_PI / 180.0;

// Quantisation step of the expression coefficients on the HeadFace
// channel.
constexpr double kExpressionStep = 0.05;

// Simulated inference cost model (ms).
constexpr double kCaptionPerCellMs = 45.0;  // Scan2Cap-class per region
constexpr double kCaptionGlobalMs = 60.0;   // global feature extraction
constexpr double kReconPerCellMs = 180.0;   // text-to-3D per region
constexpr double kReconGlobalMs = 120.0;

// Short joint token: strip the cell prefix from the skeleton name where
// possible to keep captions compact.
std::string jointToken(JointId id) {
    return std::string(body::Skeleton::canonical().name(id));
}

long quantize(double value, double step) {
    return std::lround(value / step);
}

}  // namespace

TextFrame captionPose(const body::Pose& pose, const CaptionOptions& options) {
    TextFrame frame;
    // Global channel: root position (cm) and the pelvis orientation —
    // the "global features" channel of section 3.3's two-step encoding.
    {
        std::ostringstream ss;
        const auto& t = pose.rootTranslation;
        ss << "global: frame " << pose.frameId << "; pos "
           << quantize(t.x * 100.0, 1.0) << ' ' << quantize(t.y * 100.0, 1.0) << ' '
           << quantize(t.z * 100.0, 1.0);
        const auto& r = pose.jointRotations[body::index(JointId::Pelvis)];
        ss << "; orient " << quantize(r.x * kRadToDeg, 2.0) << ' '
           << quantize(r.y * kRadToDeg, 2.0) << ' ' << quantize(r.z * kRadToDeg, 2.0);
        frame.global = ss.str();
    }

    // Local channels: every non-identity joint rotation in its cell,
    // quantised at the cell's quality step.
    std::array<std::ostringstream, kCellCount> cellStreams;
    std::array<bool, kCellCount> started{};
    for (std::size_t j = 0; j < kJointCount; ++j) {
        const auto id = static_cast<JointId>(j);
        if (id == JointId::Pelvis) continue;  // carried on the global channel
        const BodyCell cell = cellOfJoint(id);
        const auto ci = static_cast<std::size_t>(cell);
        const double step = options.quality[ci].angleStepDeg;
        const auto& r = pose.jointRotations[j];
        const long qx = quantize(r.x * kRadToDeg, step);
        const long qy = quantize(r.y * kRadToDeg, step);
        const long qz = quantize(r.z * kRadToDeg, step);
        if (qx == 0 && qy == 0 && qz == 0) continue;  // rest joints omitted
        if (!started[ci]) {
            cellStreams[ci] << cellName(cell) << ':';
            started[ci] = true;
        }
        cellStreams[ci] << ' ' << jointToken(id) << ' ' << qx << ' ' << qy << ' '
                        << qz << ';';
    }

    // Expression coefficients ride the head_face channel.
    {
        const auto ci = static_cast<std::size_t>(BodyCell::HeadFace);
        std::ostringstream& ss = cellStreams[ci];
        bool anyExpr = false;
        for (std::size_t e = 0; e < pose.expression.coeffs.size(); ++e) {
            const long q = quantize(pose.expression.coeffs[e], kExpressionStep);
            if (q == 0) continue;
            if (!started[ci]) {
                ss << cellName(BodyCell::HeadFace) << ':';
                started[ci] = true;
            }
            if (!anyExpr) {
                ss << " expr";
                anyExpr = true;
            }
            ss << ' ' << e << '=' << q;
        }
        if (anyExpr) ss << ';';
    }

    for (std::size_t c = 0; c < kCellCount; ++c) frame.cells[c] = cellStreams[c].str();
    return frame;
}

std::optional<body::Pose> parseCaption(const TextFrame& frame,
                                       const body::ShapeParams& shape,
                                       const CaptionOptions& options) {
    body::Pose pose;
    pose.shape = shape;

    // Global channel.
    {
        std::istringstream ss(frame.global);
        std::string tag;
        ss >> tag;
        if (tag != "global:") return std::nullopt;
        std::string word;
        while (ss >> word) {
            if (word == "frame") {
                long f;
                if (!(ss >> f)) return std::nullopt;
                pose.frameId = static_cast<std::uint32_t>(f);
            } else if (word == "pos") {
                long x, y, z;
                if (!(ss >> x >> y >> z)) return std::nullopt;
                pose.rootTranslation = {static_cast<float>(x) / 100.0f,
                                        static_cast<float>(y) / 100.0f,
                                        static_cast<float>(z) / 100.0f};
            } else if (word == "orient") {
                long x, y, z;
                if (!(ss >> x >> y >> z)) return std::nullopt;
                pose.jointRotations[body::index(JointId::Pelvis)] = {
                    static_cast<float>(x * 2.0 * kDegToRad),
                    static_cast<float>(y * 2.0 * kDegToRad),
                    static_cast<float>(z * 2.0 * kDegToRad)};
            }
        }
        // Strip optional ';' handled by the lenient tokenizer below.
    }

    // Joint-name lookup.
    const body::Skeleton& sk = body::Skeleton::canonical();
    std::map<std::string, JointId, std::less<>> byName;
    for (const auto& j : sk.joints()) byName.emplace(std::string(j.name), j.id);

    for (std::size_t c = 0; c < kCellCount; ++c) {
        const std::string& text = frame.cells[c];
        if (text.empty()) continue;
        // Tokenise on whitespace and ';'.
        std::string cleaned = text;
        for (char& ch : cleaned)
            if (ch == ';' || ch == ':') ch = ' ';
        std::istringstream ss(cleaned);
        std::string word;
        ss >> word;  // cell name
        const double step = options.quality[c].angleStepDeg;
        while (ss >> word) {
            if (word == "expr") {
                // expression entries "index=value" until end.
                std::string entry;
                while (ss >> entry) {
                    const auto eq = entry.find('=');
                    if (eq == std::string::npos) break;
                    const int idx = std::stoi(entry.substr(0, eq));
                    const long q = std::stol(entry.substr(eq + 1));
                    if (idx >= 0 &&
                        idx < static_cast<int>(pose.expression.coeffs.size()))
                        pose.expression.coeffs[static_cast<std::size_t>(idx)] =
                            static_cast<double>(q) * kExpressionStep;
                }
                continue;
            }
            const auto it = byName.find(word);
            if (it == byName.end()) return std::nullopt;
            long x, y, z;
            if (!(ss >> x >> y >> z)) return std::nullopt;
            pose.jointRotations[body::index(it->second)] = {
                static_cast<float>(x * step * kDegToRad),
                static_cast<float>(y * step * kDegToRad),
                static_cast<float>(z * step * kDegToRad)};
        }
    }
    return pose;
}

double captionCostMs(std::size_t cellsEncoded) {
    return kCaptionGlobalMs + static_cast<double>(cellsEncoded) * kCaptionPerCellMs;
}

double reconCostMs(std::size_t cellsDecoded) {
    return kReconGlobalMs + static_cast<double>(cellsDecoded) * kReconPerCellMs;
}

}  // namespace semholo::textsem
