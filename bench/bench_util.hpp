// Shared helpers for the experiment harnesses: fixed-width table
// printing in the style of the paper's tables, and common workload
// setup. Each bench binary regenerates one table or figure (see the
// DESIGN.md experiment index) and prints paper-vs-measured rows.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "semholo/core/session.hpp"

namespace semholo::bench {

// True when two runs of one configuration produced the same per-frame
// sequences: bytes, delivery, drops and the simulated transfer and
// capture-to-render times. Under TimingModel::Simulated this must hold
// at any worker count; a mismatch is an engine bug.
inline bool sameFrames(const core::MultiSessionStats& a,
                       const core::MultiSessionStats& b) {
    if (a.perUser.size() != b.perUser.size()) return false;
    for (std::size_t u = 0; u < a.perUser.size(); ++u) {
        const auto& fa = a.perUser[u].frames;
        const auto& fb = b.perUser[u].frames;
        if (fa.size() != fb.size()) return false;
        for (std::size_t f = 0; f < fa.size(); ++f)
            if (fa[f].bytes != fb[f].bytes || fa[f].delivered != fb[f].delivered ||
                fa[f].droppedAtSender != fb[f].droppedAtSender ||
                fa[f].droppedAtReceiver != fb[f].droppedAtReceiver ||
                fa[f].transferMs != fb[f].transferMs || fa[f].e2eMs != fb[f].e2eMs)
                return false;
    }
    return true;
}

class Table {
public:
    explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

    void addRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void print() const {
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
        for (const auto& row : rows_)
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());

        auto printRow = [&](const std::vector<std::string>& row) {
            std::printf("|");
            for (std::size_t c = 0; c < widths.size(); ++c) {
                const std::string& cell = c < row.size() ? row[c] : std::string();
                std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
            }
            std::printf("\n");
        };
        printRow(headers_);
        std::printf("|");
        for (const std::size_t w : widths) {
            for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
            std::printf("|");
        }
        std::printf("\n");
        for (const auto& row : rows_) printRow(row);
    }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

inline void banner(const char* title) {
    std::printf("\n==== %s ====\n\n", title);
}

}  // namespace semholo::bench
