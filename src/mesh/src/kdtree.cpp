#include "semholo/mesh/kdtree.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>

namespace semholo::mesh {

void KdTree::build(std::span<const Vec3f> points) {
    points_.assign(points.begin(), points.end());
    order_.resize(points_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    nodes_.clear();
    if (points_.empty()) return;
    nodes_.reserve(points_.size() / kLeafSize * 2 + 2);
    buildRecursive(0, static_cast<std::uint32_t>(points_.size()));
}

std::uint32_t KdTree::buildRecursive(std::uint32_t begin, std::uint32_t end) {
    const auto nodeIndex = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();

    const std::uint32_t n = end - begin;
    if (n <= kLeafSize) {
        nodes_[nodeIndex].first = begin;
        nodes_[nodeIndex].count = static_cast<std::uint16_t>(n);
        return nodeIndex;
    }

    // Split on the axis with the largest spread.
    Vec3f lo = points_[order_[begin]], hi = lo;
    for (std::uint32_t i = begin; i < end; ++i) {
        const Vec3f& p = points_[order_[i]];
        lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
        hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
    const Vec3f ext = hi - lo;
    std::uint8_t axis = 0;
    if (ext.y > ext.x) axis = 1;
    if (ext.z > ext[axis]) axis = 2;

    const std::uint32_t mid = begin + n / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                     [&](std::uint32_t a, std::uint32_t b) {
                         return points_[a][axis] < points_[b][axis];
                     });
    const float split = points_[order_[mid]][axis];

    nodes_[nodeIndex].axis = axis;
    nodes_[nodeIndex].split = split;
    nodes_[nodeIndex].count = 0;
    buildRecursive(begin, mid);  // left child == nodeIndex + 1
    const std::uint32_t right = buildRecursive(mid, end);
    nodes_[nodeIndex].right = right;
    return nodeIndex;
}

KdTree::Hit KdTree::nearest(Vec3f query) const {
    Hit best;
    if (nodes_.empty()) return best;

    // Fixed explicit stack: a node's far child waits on it with the
    // squared distance to its splitting plane, and is skipped on pop when
    // a hit found meanwhile is at least that close. Every point beyond
    // the plane is at least that far, and a hit is replaced only by a
    // strictly closer point, so skipping changes neither the hit nor
    // which of equally distant points wins. Each descent step pops one
    // entry and pushes at most two, so the stack never holds more than
    // the tree's depth plus one: at most 30 with 32-bit indices and
    // median splits down to kLeafSize points.
    struct Pending {
        std::uint32_t node;
        float plane2;
    };
    std::array<Pending, 64> stack;
    std::size_t top = 0;
    stack[top++] = {0, 0.0f};
    while (top > 0) {
        const Pending entry = stack[--top];
        if (entry.plane2 >= best.distance2) continue;
        const std::uint32_t ni = entry.node;
        const Node& node = nodes_[ni];
        if (node.count > 0) {
            for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
                const std::uint32_t pi = order_[i];
                const float d2 = (points_[pi] - query).norm2();
                if (d2 < best.distance2) best = {pi, d2};
            }
            continue;
        }
        const float delta = query[node.axis] - node.split;
        const std::uint32_t near = delta <= 0.0f ? ni + 1 : node.right;
        const std::uint32_t far = delta <= 0.0f ? node.right : ni + 1;
        // Visit the far side only if the splitting plane is closer than
        // the best hit so far; push it first so near is processed next.
        if (delta * delta < best.distance2) stack[top++] = {far, delta * delta};
        stack[top++] = {near, 0.0f};
    }
    return best;
}

std::vector<KdTree::Hit> KdTree::kNearest(Vec3f query, std::size_t k) const {
    std::vector<Hit> result;
    if (nodes_.empty() || k == 0) return result;

    auto cmp = [](const Hit& a, const Hit& b) { return a.distance2 < b.distance2; };
    std::priority_queue<Hit, std::vector<Hit>, decltype(cmp)> heap(cmp);

    std::vector<std::uint32_t> stack{0};
    while (!stack.empty()) {
        const std::uint32_t ni = stack.back();
        stack.pop_back();
        const Node& node = nodes_[ni];
        if (node.count > 0) {
            for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
                const std::uint32_t pi = order_[i];
                const float d2 = (points_[pi] - query).norm2();
                if (heap.size() < k) {
                    heap.push({pi, d2});
                } else if (d2 < heap.top().distance2) {
                    heap.pop();
                    heap.push({pi, d2});
                }
            }
            continue;
        }
        const float delta = query[node.axis] - node.split;
        const std::uint32_t near = delta <= 0.0f ? ni + 1 : node.right;
        const std::uint32_t far = delta <= 0.0f ? node.right : ni + 1;
        const float worst =
            heap.size() < k ? std::numeric_limits<float>::max() : heap.top().distance2;
        if (delta * delta < worst) stack.push_back(far);
        stack.push_back(near);
    }

    result.resize(heap.size());
    for (auto it = result.rbegin(); it != result.rend(); ++it) {
        *it = heap.top();
        heap.pop();
    }
    return result;
}

std::vector<std::uint32_t> KdTree::radiusSearch(Vec3f query, float radius) const {
    std::vector<std::uint32_t> result;
    if (nodes_.empty() || radius <= 0.0f) return result;
    const float r2 = radius * radius;

    std::vector<std::uint32_t> stack{0};
    while (!stack.empty()) {
        const std::uint32_t ni = stack.back();
        stack.pop_back();
        const Node& node = nodes_[ni];
        if (node.count > 0) {
            for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
                const std::uint32_t pi = order_[i];
                if ((points_[pi] - query).norm2() <= r2) result.push_back(pi);
            }
            continue;
        }
        const float delta = query[node.axis] - node.split;
        if (delta <= radius) stack.push_back(ni + 1);
        if (-delta <= radius) stack.push_back(node.right);
    }
    return result;
}

}  // namespace semholo::mesh
