// Text-based semantics (section 3.3): translate body state into textual
// descriptions and back.
//
// Substitution note (DESIGN.md): the paper builds on 3D dense captioning
// (Scan2Cap-class) and text-to-3D generation (Point-E/DreamFusion-class)
// neural models. We replace both with a deterministic pose-grammar
// captioner: the human model is partitioned into cells (section 3.3's
// proposal), a *global channel* carries the overall body position and
// orientation, and *local channels* carry per-cell joint descriptions in
// a compact human-readable grammar, e.g.
//     "left_arm: shoulder 40 -12 3; elbow 85 0 0; wrist 0 5 0"
// Angles are quantised per-cell (the per-channel quality levels of
// section 3.3). Reconstruction parses the text back into a pose and runs
// the shared implicit-body reconstruction. The simulated inference cost
// model is calibrated to published captioning / text-to-3D latencies and
// drives the Table 1 overhead rows; its per-cell and global costs and the
// expression quantisation step are fixed constants (captioner.cpp).
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>

#include "semholo/body/pose.hpp"

namespace semholo::textsem {

// Body cells: section 3.3 proposes partitioning the human model and
// describing each cell on its own channel.
enum class BodyCell : std::uint8_t {
    Torso = 0,
    HeadFace,
    LeftArm,
    RightArm,
    LeftHand,
    RightHand,
    LeftLeg,
    RightLeg,
    Count
};
inline constexpr std::size_t kCellCount = static_cast<std::size_t>(BodyCell::Count);

std::string cellName(BodyCell cell);
BodyCell cellOfJoint(body::JointId joint);

struct CellQuality {
    // Quantisation step for joint angles, degrees. Smaller = more text,
    // higher fidelity (the per-channel quality ladder of section 3.3).
    double angleStepDeg{3.0};
};

struct CaptionOptions {
    std::array<CellQuality, kCellCount> quality{};
};

// A captioned frame: one global channel + one channel per cell.
struct TextFrame {
    std::string global;
    std::array<std::string, kCellCount> cells;

    std::size_t totalBytes() const;
    std::string concatenated() const;
};

// Encode a pose into the text channels.
TextFrame captionPose(const body::Pose& pose, const CaptionOptions& options = {});

// Parse text channels back into a pose (quantised). Returns nullopt on
// malformed input. 'shape' is the session-constant subject shape and
// 'options' must match the encoder's (quality steps are negotiated once
// per session).
std::optional<body::Pose> parseCaption(const TextFrame& frame,
                                       const body::ShapeParams& shape = {},
                                       const CaptionOptions& options = {});

// Simulated DL inference costs (ms). 3D dense captioning and text-to-3D
// diffusion are the heavy stages the paper's Table 1 marks "H"; values
// follow published per-frame orders of magnitude scaled per cell.
double captionCostMs(std::size_t cellsEncoded);
double reconCostMs(std::size_t cellsDecoded);

}  // namespace semholo::textsem
