/**
 * @file
 * Implementation of the Barnes-Hut quadtree.
 */

#include "layout/quadtree.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/obs.hh"

namespace viva::layout
{

namespace obs = support::obs;

namespace
{

/** Two points closer than this are the same point for repulsion. */
constexpr double kCoincidenceEps = 1e-9;

/** Morton resolution per axis: 21 bits interleave into 42. */
constexpr int kMortonBits = 21;
constexpr double kMortonGrid = double(std::uint64_t(1) << kMortonBits);

/** Spread the low 21 bits of v over the even bit positions. */
std::uint64_t
spreadBits(std::uint64_t v)
{
    v &= 0x1fffffull;
    v = (v | (v << 16)) & 0x0000ffff0000ffffull;
    v = (v | (v << 8)) & 0x00ff00ff00ff00ffull;
    v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0full;
    v = (v | (v << 2)) & 0x3333333333333333ull;
    v = (v | (v << 1)) & 0x5555555555555555ull;
    return v;
}

/** Quantize a coordinate into [0, 2^21) over [lo, hi]. */
std::uint64_t
quantize(double x, double lo, double hi)
{
    double n = (std::clamp(x, lo, hi) - lo) / (hi - lo);
    double scaled = n * kMortonGrid;
    if (scaled >= kMortonGrid - 1.0)
        return (std::uint64_t(1) << kMortonBits) - 1;
    return std::uint64_t(scaled);
}

/** The interleaved Morton code of a position inside the box. */
std::uint64_t
mortonCode(Vec2 p, Vec2 lo, Vec2 hi)
{
    std::uint64_t qx = quantize(p.x, lo.x, hi.x);
    std::uint64_t qy = quantize(p.y, lo.y, hi.y);
    return (spreadBits(qy) << 1) | spreadBits(qx);
}

/** The four quadrant boxes of [lo, hi], indexed by the Morton digit. */
struct Quadrants
{
    Vec2 lo[4];
    Vec2 hi[4];
};

Quadrants
quadrantsOf(Vec2 lo, Vec2 hi)
{
    double mx = 0.5 * (lo.x + hi.x);
    double my = 0.5 * (lo.y + hi.y);
    return {{{lo.x, lo.y}, {mx, lo.y}, {lo.x, my}, {mx, my}},
            {{mx, my}, {hi.x, my}, {mx, hi.y}, {hi.x, hi.y}}};
}

/** The longer side of a box: the size the opening test divides. */
double
boxSize(Vec2 lo, Vec2 hi)
{
    return std::max(hi.x - lo.x, hi.y - lo.y);
}

} // namespace

void
QuadTree::build(Vec2 lo, Vec2 hi, const std::vector<Body> &bodies)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("layout.quadtree.build");
    obs::ScopedPhase timer(phase);

    VIVA_ASSERT(lo.x < hi.x && lo.y < hi.y, "degenerate quadtree box");
    cells.clear();
    rootLo = lo;
    rootHi = hi;
    points = bodies.size();
    if (bodies.empty())
        return;

    VIVA_ASSERT(bodies.size() < (std::size_t(1) << 30),
                "quadtree build over ", bodies.size(), " bodies");
    sorted.resize(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        VIVA_ASSERT(bodies[i].charge > 0, "charge must be positive");
        sorted[i] = {mortonCode(bodies[i].position, lo, hi),
                     std::uint32_t(i)};
    }
    // Deterministic: ties broken by the original body index, so the
    // tree (and every force it yields) is a pure function of the
    // input sequence.
    std::sort(sorted.begin(), sorted.end());

    buildRange(lo, hi, 0, 0, bodies.size(), 2 * (kMortonBits - 1), bodies);
}

void
QuadTree::buildRange(Vec2 lo, Vec2 hi, int quadrant, std::size_t begin,
                     std::size_t end, int shift,
                     const std::vector<Body> &bodies)
{
    const std::size_t cell = cells.size();
    cells.push_back({});
    cells[cell].size = boxSize(lo, hi);
    cells[cell].quadrant = static_cast<std::uint32_t>(quadrant);
    if (end - begin == 1 || shift < 0) {
        // One body, or several sharing a Morton cell: a leaf at the
        // charge-weighted centroid, merged left-to-right in sorted
        // order (deterministic).
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
        leaf.skip = CellId::fromIndex(cell + 1);
        return;
    }

    // The range is Morton-sorted, so each quadrant's bodies form one
    // contiguous sub-range; bound[d] .. bound[d + 1] is quadrant d's.
    std::size_t bound[5] = {begin, begin, begin, begin, begin};
    for (int d = 0; d < 4; ++d) {
        std::size_t sub = bound[d];
        while (sub < end && int((sorted[sub].first >> shift) & 3) == d)
            ++sub;
        bound[d + 1] = sub;
    }
    // Emit the non-empty quadrants in order 3, 2, 1, 0 but sum them in
    // order 0..3: the walk then adds every term in the order of a
    // depth-first stack walk that pushes children 0..3, the reference
    // the pinned layout values (tests/grid5000_session_test.cc) hold.
    const Quadrants quad = quadrantsOf(lo, hi);
    std::size_t child[4] = {0, 0, 0, 0};
    for (int d = 3; d >= 0; --d) {
        if (bound[d] == bound[d + 1])
            continue;  // empty quadrant: no cell at all
        child[d] = cells.size();
        buildRange(quad.lo[d], quad.hi[d], d, bound[d], bound[d + 1],
                   shift - 2, bodies);
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
    parent.skip = CellId::fromIndex(cells.size());
}

Vec2
QuadTree::forceAt(Vec2 position, double theta) const
{
    Vec2 total;
    // A cell whose squared size exceeds theta^2 * d^2 by the relative
    // margin 1e-9 -- far above the few ulps either test rounds by --
    // fails the exact opening test too, so it is opened without the
    // square root and the division: same cells, same terms, fewer
    // cycles.
    const double open_factor = theta * theta * (1.0 + 1e-9);
    const std::size_t n = cells.size();
    std::size_t c = 0;
    while (c < n) {
        const Cell &cell = cells[c];
        Vec2 d = position - cell.bary;
        double d2 = d.norm2();
        if (cell.bodies != 0) {
            ++c;
            double dist = std::sqrt(d2);
            if (dist < kCoincidenceEps)
                continue;  // self or coincident: no direction, skip
            total += d * (cell.charge / (dist * dist * dist));
            continue;
        }
        if (cell.size * cell.size > open_factor * d2) {
            ++c;  // open the cell: its first child follows it
            continue;
        }
        double dist = std::sqrt(d2);
        if (dist > kCoincidenceEps && cell.size / dist < theta) {
            // Far enough: the whole subtree acts from its barycentre.
            total += d * (cell.charge / (dist * dist * dist));
            c = cell.skip.index();
            continue;
        }
        ++c;
    }
    return total;
}

support::AuditLog
QuadTree::auditInvariants() const
{
    using support::auditFail;
    using support::nearlyEqual;

    // Rounding of the barycentre sums; positions compare with the same
    // tolerance scaled by the root box.
    constexpr double kTol = 1e-9;
    const double slack = kTol * std::max(1.0, boxSize(rootLo, rootHi));
    auto inside = [slack](Vec2 p, Vec2 lo, Vec2 hi) {
        return p.x >= lo.x - slack && p.x <= hi.x + slack &&
               p.y >= lo.y - slack && p.y <= hi.y + slack;
    };

    support::AuditLog log;
    const std::size_t n = cells.size();
    if (n == 0) {
        if (points != 0)
            auditFail(log, points, " bodies built into an empty arena");
        return log;
    }
    if (cells[0].skip.index() != n)
        auditFail(log, "root skips to ", cells[0].skip, ", not past all ",
                  n, " cells");

    // Boxes recomputed top-down: preorder puts every parent before its
    // children, so a cell's box is known by the time it is visited.
    std::vector<Vec2> boxLo(n), boxHi(n);
    boxLo[0] = rootLo;
    boxHi[0] = rootHi;
    std::size_t leafBodies = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Cell &c = cells[i];
        if (c.size != boxSize(boxLo[i], boxHi[i]))
            auditFail(log, "cell ", i, " stores size ", c.size,
                      " for a box of size ",
                      boxSize(boxLo[i], boxHi[i]));
        if (!(c.charge > 0.0))
            auditFail(log, "cell ", i, " has non-positive charge ",
                      c.charge);
        const std::size_t skip = c.skip.index();
        if (skip <= i || skip > n) {
            auditFail(log, "cell ", i, " skips to ", c.skip,
                      ", outside (", i, ", ", n, "]");
            continue;
        }

        if (c.bodies != 0) {
            leafBodies += c.bodies;
            if (skip != i + 1)
                auditFail(log, "leaf ", i, " skips over a subtree to ",
                          c.skip);
            if (!inside(c.bary, boxLo[i], boxHi[i]))
                auditFail(log, "leaf ", i, " point escapes its box");
            continue;
        }
        if (skip == i + 1) {
            auditFail(log, "internal cell ", i, " has no children");
            continue;
        }

        // The children's subtrees must tile (i, skip) exactly, each in
        // its own quadrant, quadrants descending; a child's barycentre
        // must lie in its quadrant.
        const Quadrants quad = quadrantsOf(boxLo[i], boxHi[i]);
        double childCharge = 0.0;
        Vec2 moment;
        std::uint32_t free_below = 4;
        bool nested = true;
        for (std::size_t k = i + 1; k < skip;) {
            const Cell &child = cells[k];
            const std::uint32_t q = child.quadrant;
            const std::size_t next = child.skip.index();
            if (next <= k || next > skip || q >= free_below) {
                auditFail(log, "child ", k, " of cell ", i,
                          q >= free_below
                              ? " repeats or reorders a quadrant"
                              : " skips outside its parent");
                nested = false;
                break;
            }
            if (!inside(child.bary, quad.lo[q], quad.hi[q]))
                auditFail(log, "child ", k, " of cell ", i,
                          " has its barycentre outside quadrant ", q);
            boxLo[k] = quad.lo[q];
            boxHi[k] = quad.hi[q];
            free_below = q;
            childCharge += child.charge;
            moment += child.bary * child.charge;
            k = next;
        }
        if (!nested)
            continue;
        if (!nearlyEqual(c.charge, childCharge, kTol))
            auditFail(log, "internal cell ", i, " charge ", c.charge,
                      " != sum of children ", childCharge);
        Vec2 expect = moment / childCharge;
        if (!nearlyEqual(c.bary.x, expect.x, kTol) ||
            !nearlyEqual(c.bary.y, expect.y, kTol))
            auditFail(log, "internal cell ", i,
                      " barycentre drifted from its children");
    }
    if (leafBodies != points)
        auditFail(log, "leaves hold ", leafBodies, " bodies of the ",
                  points, " built");
    return log;
}

void
QuadTree::debugScaleCellCharge(std::size_t cell, double factor)
{
    VIVA_ASSERT(cell < cells.size(), "bad cell index ", cell);
    cells[cell].charge *= factor;
}

} // namespace viva::layout
