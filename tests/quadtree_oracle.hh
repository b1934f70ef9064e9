/**
 * @file
 * Reference implementation of the Barnes-Hut arena, written the
 * straightforward way: std::sort of (Morton code, body index) pairs,
 * then a recursive emitter that scans each range once per level for its
 * quadrant bounds.
 *
 * QuadTree::build must reproduce its arena byte for byte and its body
 * order exactly.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "layout/quadtree.hh"

namespace viva::oracle
{

/** The arena and body order of one reference build. */
struct QuadTreeImage
{
    std::vector<layout::QuadTree::Cell> cells;
    std::vector<std::uint32_t> order;
};

namespace detail
{

using layout::Vec2;
using Body = layout::QuadTree::Body;
using Cell = layout::QuadTree::Cell;

constexpr int kMortonBits = 21;
constexpr double kMortonGrid = double(std::uint64_t(1) << kMortonBits);

inline std::uint64_t
spreadBits(std::uint64_t v)
{
    std::uint64_t out = 0;
    for (int b = 0; b < kMortonBits; ++b)
        out |= ((v >> b) & 1) << (2 * b);
    return out;
}

inline std::uint64_t
quantize(double x, double lo, double hi)
{
    double n = (std::clamp(x, lo, hi) - lo) / (hi - lo);
    double scaled = n * kMortonGrid;
    if (scaled >= kMortonGrid - 1.0)
        return (std::uint64_t(1) << kMortonBits) - 1;
    return std::uint64_t(scaled);
}

/** The recursive emitter over the sorted pairs. */
struct Builder
{
    Vec2 rootLo, rootHi;
    const std::vector<Body> &bodies;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted;
    std::vector<Cell> cells;

    void
    emit(Vec2 lo, Vec2 hi, int quadrant, std::size_t begin,
         std::size_t end, int shift)
    {
        const std::size_t cell = cells.size();
        cells.push_back({});
        cells[cell].size = std::max(hi.x - lo.x, hi.y - lo.y);
        cells[cell].quadrant = static_cast<std::uint32_t>(quadrant);
        if (end - begin == 1 || shift < 0) {
            Vec2 p{};
            double q = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const Body &b = bodies[sorted[i].second];
                Vec2 bp{std::clamp(b.position.x, rootLo.x, rootHi.x),
                        std::clamp(b.position.y, rootLo.y, rootHi.y)};
                double total = q + b.charge;
                p = (p * q + bp * b.charge) / total;
                q = total;
            }
            Cell &leaf = cells[cell];
            leaf.bary = p;
            leaf.charge = q;
            leaf.bodies = static_cast<std::uint32_t>(end - begin);
            leaf.skip = layout::CellId::fromIndex(cell + 1);
            return;
        }

        std::size_t bound[5] = {begin, begin, begin, begin, begin};
        for (int d = 0; d < 4; ++d) {
            std::size_t sub = bound[d];
            while (sub < end && int((sorted[sub].first >> shift) & 3) == d)
                ++sub;
            bound[d + 1] = sub;
        }
        const double mx = 0.5 * (lo.x + hi.x);
        const double my = 0.5 * (lo.y + hi.y);
        const Vec2 qlo[4] = {{lo.x, lo.y}, {mx, lo.y}, {lo.x, my}, {mx, my}};
        const Vec2 qhi[4] = {{mx, my}, {hi.x, my}, {mx, hi.y}, {hi.x, hi.y}};
        std::size_t child[4] = {0, 0, 0, 0};
        for (int d = 3; d >= 0; --d) {
            if (bound[d] == bound[d + 1])
                continue;
            child[d] = cells.size();
            emit(qlo[d], qhi[d], d, bound[d], bound[d + 1], shift - 2);
        }
        double charge_sum = 0.0;
        Vec2 moment{};
        for (int d = 0; d < 4; ++d) {
            if (bound[d] == bound[d + 1])
                continue;
            charge_sum += cells[child[d]].charge;
            moment += cells[child[d]].bary * cells[child[d]].charge;
        }
        Cell &parent = cells[cell];
        parent.charge = charge_sum;
        parent.bary = moment / charge_sum;
        parent.skip = layout::CellId::fromIndex(cells.size());
    }
};

} // namespace detail

/** The reference build of `bodies` over the box [lo, hi]. */
inline QuadTreeImage
buildQuadTree(layout::Vec2 lo, layout::Vec2 hi,
              const std::vector<layout::QuadTree::Body> &bodies)
{
    detail::Builder b{lo, hi, bodies, {}, {}};
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        std::uint64_t qx = detail::quantize(bodies[i].position.x, lo.x, hi.x);
        std::uint64_t qy = detail::quantize(bodies[i].position.y, lo.y, hi.y);
        b.sorted.push_back(
            {(detail::spreadBits(qy) << 1) | detail::spreadBits(qx),
             std::uint32_t(i)});
    }
    std::sort(b.sorted.begin(), b.sorted.end());
    if (!bodies.empty())
        b.emit(lo, hi, 0, 0, bodies.size(), 2 * (detail::kMortonBits - 1));

    QuadTreeImage image{std::move(b.cells), {}};
    for (const auto &[code, index] : b.sorted)
        image.order.push_back(index);
    return image;
}

} // namespace viva::oracle
