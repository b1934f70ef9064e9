/**
 * @file
 * Implementation of the Barnes-Hut quadtree.
 */

#include "layout/quadtree.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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

/** The radix sort covers the 42 code bits in 4 passes of 11 bits. */
constexpr int kRadixBits = 11;
constexpr int kRadixPasses = 4;
constexpr int kRadix = 1 << kRadixBits;

/** The digit of a code that radix pass `pass` sorts by. */
std::uint32_t
radixDigit(std::uint64_t code, int pass)
{
    return std::uint32_t(code >> (pass * kRadixBits)) & (kRadix - 1);
}

/** The leading 2-bit digits two distinct codes share. */
int
sharedDigits(std::uint64_t a, std::uint64_t b)
{
    return (std::countl_zero(a ^ b) - (64 - 2 * kMortonBits)) / 2;
}

/**
 * Call fn(begin, end, shared_above, leaf_depth) for each run [begin,
 * end) of equal codes, highest codes first. shared_above is the number
 * of leading digits the run shares with the run before it (-1 for the
 * first); leaf_depth is the depth of the run's leaf: one level below
 * the deepest cell it shares with a neighbouring run, or the full
 * depth when several bodies share the code.
 */
template <typename Fn>
void
forEachRun(const std::vector<std::uint64_t> &codes, Fn &&fn)
{
    int shared_above = -1;
    for (std::size_t end = codes.size(); end > 0;) {
        const std::uint64_t code = codes[end - 1];
        std::size_t begin = end - 1;
        while (begin > 0 && codes[begin - 1] == code)
            --begin;
        const int shared_below =
            begin > 0 ? sharedDigits(codes[begin - 1], code) : -1;
        const int leaf_depth = end - begin > 1
                                   ? kMortonBits
                                   : 1 + std::max(shared_above, shared_below);
        fn(begin, end, shared_above, leaf_depth);
        shared_above = shared_below;
        end = begin;
    }
}

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
    const std::size_t n = bodies.size();
    codes.resize(n);
    order.resize(n);
    if (n == 0)
        return;

    VIVA_ASSERT(n < (std::size_t(1) << 30), "quadtree build over ", n,
                " bodies");
    // Stable LSD radix sort of the 42-bit codes, kRadixBits per pass.
    // The input is in body-index order, so equal codes stay in index
    // order: the result is the ascending (code, index) order, and the
    // tree (and every force it yields) is a pure function of the input
    // sequence.
    std::uint32_t count[kRadixPasses][kRadix] = {};
    for (std::size_t i = 0; i < n; ++i) {
        VIVA_ASSERT(bodies[i].charge > 0, "charge must be positive");
        const std::uint64_t code = mortonCode(bodies[i].position, lo, hi);
        codes[i] = code;
        order[i] = std::uint32_t(i);
        for (int p = 0; p < kRadixPasses; ++p)
            ++count[p][radixDigit(code, p)];
    }
    codeScratch.resize(n);
    orderScratch.resize(n);
    for (int p = 0; p < kRadixPasses; ++p) {
        std::uint32_t *at = count[p];
        if (at[radixDigit(codes[0], p)] == n)
            continue;  // one digit for all: the pass would not move
        std::uint32_t sum = 0;
        for (int d = 0; d < kRadix; ++d)
            sum += std::exchange(at[d], sum);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t to = at[radixDigit(codes[i], p)]++;
            codeScratch[to] = codes[i];
            orderScratch[to] = order[i];
        }
        codes.swap(codeScratch);
        order.swap(orderScratch);
    }

    emitArena(bodies);
}

void
QuadTree::emitArena(const std::vector<Body> &bodies)
{
    // The cell at depth k holds the bodies whose codes share their
    // first k digits, so one pass over the runs of equal codes, highest
    // first, emits the preorder with children in quadrant order 3, 2,
    // 1, 0: each run opens the cells below the deepest one it shares
    // with the run before it, down to its leaf. `open` holds the
    // internal cells on the path to the current run, by depth; a cell
    // is closed -- summed over its children and given its skip -- when
    // the pass leaves its subtree.
    struct Open
    {
        std::size_t cell;
        Vec2 lo, hi;
        std::size_t child[4];  ///< in emission order: quadrant 3 first
        int children;
    };
    Open open[kMortonBits];
    int top = -1;  // depth of the deepest open cell
    auto close = [&](const Open &o) {
        // Summed in quadrant order 0..3: the walk then adds every term
        // in the order of a depth-first stack walk that pushes children
        // 0..3, the reference the pinned layout values
        // (tests/grid5000_session_test.cc) hold.
        double charge_sum = 0.0;
        Vec2 moment{};
        for (int k = o.children - 1; k >= 0; --k) {
            const Cell &child = cells[o.child[k]];
            charge_sum += child.charge;
            moment += child.bary * child.charge;
        }
        Cell &parent = cells[o.cell];
        parent.charge = charge_sum;
        parent.bary = moment / charge_sum;
        parent.skip = CellId::fromIndex(cells.size());
    };

    // Count first, so the arena grows once per build at most.
    std::size_t cell_count = 0;
    forEachRun(codes, [&](std::size_t, std::size_t, int shared_above,
                          int leaf_depth) {
        cell_count += std::size_t(leaf_depth - shared_above);
    });
    cells.reserve(cell_count);

    forEachRun(codes, [&](std::size_t begin, std::size_t end,
                          int shared_above, int leaf_depth) {
        const std::uint64_t code = codes[begin];
        for (; top > shared_above; --top)
            close(open[top]);
        for (int depth = shared_above + 1; depth <= leaf_depth; ++depth) {
            Vec2 box_lo = rootLo, box_hi = rootHi;
            int quadrant = 0;
            const std::size_t cell = cells.size();
            if (depth > 0) {
                // Quadrant `quadrant` of the parent's box, as
                // quadrantsOf() splits it. Field by field, here and
                // below: a whole-struct temporary costs the store
                // forwarding of every cell.
                Open &parent = open[depth - 1];
                quadrant = int((code >> (2 * (kMortonBits - depth))) & 3);
                const double xs[3] = {parent.lo.x,
                                      0.5 * (parent.lo.x + parent.hi.x),
                                      parent.hi.x};
                const double ys[3] = {parent.lo.y,
                                      0.5 * (parent.lo.y + parent.hi.y),
                                      parent.hi.y};
                const int qx = quadrant & 1, qy = quadrant >> 1;
                box_lo = {xs[qx], ys[qy]};
                box_hi = {xs[qx + 1], ys[qy + 1]};
                parent.child[parent.children++] = cell;
            }
            Cell &fresh = cells.emplace_back();
            fresh.size = boxSize(box_lo, box_hi);
            fresh.quadrant = static_cast<std::uint32_t>(quadrant);
            if (depth < leaf_depth) {
                Open &o = open[depth];
                o.cell = cell;
                o.lo = box_lo;
                o.hi = box_hi;
                o.children = 0;
                top = depth;
            }
        }

        // The leaf at the charge-weighted centroid of its bodies,
        // merged left-to-right in sorted order (deterministic).
        Vec2 p{};
        double q = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const Body &b = bodies[order[i]];
            Vec2 bp{std::clamp(b.position.x, rootLo.x, rootHi.x),
                    std::clamp(b.position.y, rootLo.y, rootHi.y)};
            double total = q + b.charge;
            p = (p * q + bp * b.charge) / total;
            q = total;
        }
        Cell &leaf = cells.back();
        leaf.bary = p;
        leaf.charge = q;
        leaf.bodies = static_cast<std::uint32_t>(end - begin);
        leaf.skip = CellId::fromIndex(cells.size());
    });
    for (; top >= 0; --top)
        close(open[top]);
}

Vec2
QuadTree::forceAt(Vec2 position, double theta) const
{
    Vec2 total;
    // A cell whose squared size exceeds theta^2 * d^2 by the relative
    // margin 1e-9 -- far above the few ulps either test rounds by --
    // fails the exact opening test too, so it is opened without the
    // square root and the division; one below it by the same margin
    // passes the exact test, so it is accepted without the division.
    // Only cells inside the band run the exact test: same cells, same
    // terms, fewer cycles. A negative theta accepts nothing.
    const double open_factor = theta * theta * (1.0 + 1e-9);
    const double accept_factor =
        theta > 0.0 ? theta * theta * (1.0 - 1e-9) : 0.0;
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
        const double size2 = cell.size * cell.size;
        if (size2 > open_factor * d2) {
            ++c;  // open the cell: its first child follows it
            continue;
        }
        double dist = std::sqrt(d2);
        if (dist > kCoincidenceEps &&
            (size2 < accept_factor * d2 || cell.size / dist < theta)) {
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
