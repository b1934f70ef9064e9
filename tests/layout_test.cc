/**
 * @file
 * Tests for the layout engine: graph mutations, Barnes-Hut accuracy,
 * force-directed convergence, interactivity and the quality metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <span>

#include "layout/force.hh"
#include "layout/graph.hh"
#include "layout/metrics.hh"
#include "layout/quadtree.hh"
#include "support/random.hh"
#include "quadtree_oracle.hh"

namespace vl = viva::layout;

// --- Vec2 -------------------------------------------------------------------

TEST(Vec2, Arithmetic)
{
    vl::Vec2 a{3.0, 4.0};
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    EXPECT_DOUBLE_EQ((a * 2.0).x, 6.0);
    EXPECT_DOUBLE_EQ((a - vl::Vec2{3.0, 0.0}).y, 4.0);
    EXPECT_DOUBLE_EQ(vl::distance({0, 0}, {3, 4}), 5.0);
}

// --- LayoutGraph ---------------------------------------------------------------

TEST(LayoutGraph, AddRemoveNodes)
{
    vl::LayoutGraph g;
    auto a = g.addNode(100, {0, 0}, 2.0);
    auto b = g.addNode(200, {1, 0});
    EXPECT_EQ(g.nodeCount(), 2u);
    EXPECT_EQ(g.findKey(100), a);
    EXPECT_DOUBLE_EQ(g.node(a).charge, 2.0);

    g.removeNodes({a});
    EXPECT_EQ(g.nodeCount(), 1u);
    EXPECT_EQ(g.findKey(100), vl::kNoNode);
    // The survivor shifted into the freed slot; its key still finds it.
    b = g.findKey(200);
    EXPECT_EQ(b, vl::NodeId{0});
    EXPECT_DOUBLE_EQ(g.node(b).position.x, 1.0);
    EXPECT_TRUE(g.auditInvariants().empty());
}

TEST(LayoutGraph, RemoveNodesCompactsInOrder)
{
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(g.addNode(std::uint64_t(10 + i), {double(i), 0.0}));
    g.addEdge(ids[0], ids[5], 2.0);
    g.addEdge(ids[1], ids[2]);
    g.addEdge(ids[3], ids[4], 3.0);
    g.removeNodes({ids[4], ids[1]});

    // Survivors keep their relative order and carry their slot as id.
    ASSERT_EQ(g.rawNodes().size(), 4u);
    const std::uint64_t keys[] = {10, 12, 13, 15};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(g.rawNodes()[i].key, keys[i]);
        EXPECT_EQ(g.findKey(keys[i]), vl::NodeId::fromIndex(i));
    }
    // Edges touching a removed node are gone; the rest are renumbered.
    ASSERT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.rawEdges()[0].a, g.findKey(10));
    EXPECT_EQ(g.rawEdges()[0].b, g.findKey(15));
    EXPECT_DOUBLE_EQ(g.rawEdges()[0].strength, 2.0);
    EXPECT_TRUE(g.auditInvariants().empty());
}

TEST(LayoutGraph, EdgesFollowRemovals)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {1, 0});
    auto c = g.addNode(3, {2, 0});
    g.addEdge(a, b);
    g.addEdge(b, c);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_EQ(g.neighbors(b).size(), 2u);
    g.removeNodes({a});
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.neighbors(g.findKey(2)),
              (std::vector<vl::NodeId>{g.findKey(3)}));
}

TEST(LayoutGraph, ClearEdgesKeepsNodes)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {5, 5});
    g.addEdge(a, b);
    g.clearEdges();
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_EQ(g.nodeCount(), 2u);
    EXPECT_DOUBLE_EQ(g.node(b).position.x, 5.0);
}

TEST(LayoutGraph, PinningZeroesVelocity)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    g.mutableNodes()[a.index()].velocity = {3, 3};
    g.setPinned(a, true);
    EXPECT_DOUBLE_EQ(g.node(a).velocity.x, 0.0);
    EXPECT_TRUE(g.node(a).pinned);
}

TEST(LayoutGraph, Centroid)
{
    vl::LayoutGraph g;
    g.addNode(1, {0, 0});
    g.addNode(2, {4, 2});
    EXPECT_DOUBLE_EQ(g.centroid().x, 2.0);
    EXPECT_DOUBLE_EQ(g.centroid().y, 1.0);
}

TEST(LayoutGraphDeath, DuplicateKeyAsserts)
{
    vl::LayoutGraph g;
    g.addNode(7, {0, 0});
    EXPECT_DEATH(g.addNode(7, {1, 1}), "duplicate");
}

// --- QuadTree -------------------------------------------------------------------

namespace
{

/** A tree over [lo, hi] built from the given bodies. */
vl::QuadTree
builtTree(vl::Vec2 lo, vl::Vec2 hi,
          const std::vector<vl::QuadTree::Body> &bodies)
{
    vl::QuadTree tree;
    tree.build(lo, hi, bodies);
    return tree;
}

/** The exact field at `query`: every body's term, coincident ones
 * skipped as forceAt skips them. */
vl::Vec2
exactField(const std::vector<vl::QuadTree::Body> &bodies, vl::Vec2 query)
{
    vl::Vec2 exact;
    for (const vl::QuadTree::Body &b : bodies) {
        vl::Vec2 d = query - b.position;
        double dist = d.norm();
        if (dist < 1e-9)
            continue;
        exact += d * (b.charge / (dist * dist * dist));
    }
    return exact;
}

} // namespace

TEST(QuadTree, SinglePointField)
{
    vl::QuadTree tree = builtTree({-10, -10}, {10, 10}, {{{0, 0}, 2.0}});
    vl::Vec2 f = tree.forceAt({3, 0}, 0.5);
    // field = q * d / |d|^3 = 2 * 3 / 27 along +x.
    EXPECT_NEAR(f.x, 2.0 * 3.0 / 27.0, 1e-12);
    EXPECT_NEAR(f.y, 0.0, 1e-12);
}

TEST(QuadTree, SelfQueryIsFinite)
{
    vl::QuadTree tree = builtTree({-1, -1}, {1, 1}, {{{0.5, 0.5}, 1.0}});
    vl::Vec2 f = tree.forceAt({0.5, 0.5}, 0.5);
    EXPECT_DOUBLE_EQ(f.x, 0.0);
    EXPECT_DOUBLE_EQ(f.y, 0.0);
}

TEST(QuadTree, CoincidentPointsMerge)
{
    vl::QuadTree tree = builtTree(
        {-1, -1}, {1, 1},
        std::vector<vl::QuadTree::Body>(10, {{0.25, 0.25}, 1.0}));
    EXPECT_EQ(tree.pointCount(), 10u);
    vl::Vec2 f = tree.forceAt({0.75, 0.25}, 0.0);
    // Ten unit charges at distance 0.5: 10 * 0.5 / 0.125 = 40.
    EXPECT_NEAR(f.x, 40.0, 1e-9);
}

TEST(QuadTree, ThetaZeroIsExact)
{
    viva::support::Rng rng(11);
    std::vector<vl::QuadTree::Body> pts;
    for (int i = 0; i < 60; ++i)
        pts.push_back({{rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)},
                       rng.uniform(0.5, 3.0)});
    vl::QuadTree tree = builtTree({0, 0}, {100, 100}, pts);
    vl::Vec2 query{50.0, 50.0};
    vl::Vec2 exact = exactField(pts, query);
    vl::Vec2 approx = tree.forceAt(query, 0.0);
    EXPECT_NEAR(approx.x, exact.x, 1e-9);
    EXPECT_NEAR(approx.y, exact.y, 1e-9);
}

/** Barnes-Hut error must shrink with theta (property, parameterized). */
class QuadTreeAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(QuadTreeAccuracy, RelativeErrorBounded)
{
    double theta = GetParam();
    viva::support::Rng rng(23);
    vl::LayoutGraph g;
    for (int i = 0; i < 300; ++i)
        g.addNode(i, {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)},
                  rng.uniform(0.5, 4.0));
    double err = vl::barnesHutError(g, theta);
    // Empirical bound: mean relative error well under theta^2 + 2%.
    EXPECT_LT(err, theta * theta * 0.5 + 0.02) << "theta " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, QuadTreeAccuracy,
                         ::testing::Values(0.3, 0.5, 0.8, 1.0, 1.2));

namespace
{

/** A randomized charged graph, no edges (only repulsion matters here). */
vl::LayoutGraph
randomChargedGraph(std::uint64_t seed, int n)
{
    viva::support::Rng rng(seed);
    vl::LayoutGraph g;
    for (int i = 0; i < n; ++i)
        g.addNode(std::uint64_t(i),
                  {rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)},
                  rng.uniform(0.5, 4.0));
    return g;
}

} // namespace

/**
 * Property: with theta = 0 no cell is ever opened as an approximation,
 * so the tree walk degenerates to the exact O(n^2) sum -- the mean
 * relative force error must vanish (to rounding) on every randomized
 * graph, not just a hand-picked one.
 */
TEST(QuadTreeProperty, ThetaZeroMatchesExactSumOnRandomGraphs)
{
    for (std::uint64_t seed : {1u, 29u, 404u, 7777u}) {
        vl::LayoutGraph g = randomChargedGraph(seed, 250);
        EXPECT_LT(vl::barnesHutError(g, 0.0), 1e-9) << "seed " << seed;
    }
}

/**
 * Property: opening fewer cells can only lose accuracy, so the mean
 * relative error is non-decreasing in theta. Averaged over seeds with a
 * small slack, since a single graph can show tiny non-monotone wiggles.
 */
TEST(QuadTreeProperty, ErrorIsMonotoneInTheta)
{
    const double thetas[] = {0.0, 0.4, 0.8, 1.2};
    double mean_err[4] = {0, 0, 0, 0};
    const std::uint64_t seeds[] = {3, 31, 314, 3141};
    for (std::uint64_t seed : seeds) {
        vl::LayoutGraph g = randomChargedGraph(seed, 200);
        for (int i = 0; i < 4; ++i)
            mean_err[i] += vl::barnesHutError(g, thetas[i]) / 4.0;
    }
    EXPECT_LT(mean_err[0], 1e-9);
    for (int i = 0; i + 1 < 4; ++i)
        EXPECT_LE(mean_err[i], mean_err[i + 1] + 1e-4)
            << "theta " << thetas[i] << " vs " << thetas[i + 1];
    // And the sweep is not vacuous: coarse theta has real error.
    EXPECT_GT(mean_err[3], 1e-4);
}

// --- the arena batch build --------------------------------------------------

namespace
{

/** A deterministic random body set inside [0, 500)^2. */
std::vector<vl::QuadTree::Body>
randomBodies(std::uint64_t seed, int n)
{
    viva::support::Rng rng(seed);
    std::vector<vl::QuadTree::Body> bodies;
    for (int i = 0; i < n; ++i)
        bodies.push_back({{rng.uniform(0.0, 500.0),
                           rng.uniform(0.0, 500.0)},
                          rng.uniform(0.5, 4.0)});
    return bodies;
}

} // namespace

TEST(QuadTreeArena, BatchBuildAuditsClean)
{
    std::vector<vl::QuadTree::Body> bodies = randomBodies(17, 700);
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
    EXPECT_EQ(tree.pointCount(), 700u);
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeArena, BatchMatchesIncrementalAtThetaZero)
{
    // With theta = 0 no cell is accepted as a whole, so the walk must
    // agree with the exact pairwise sum to rounding at every query
    // point.
    std::vector<vl::QuadTree::Body> bodies = randomBodies(19, 300);
    vl::QuadTree batch;
    batch.build({-1.0, -1.0}, {501.0, 501.0}, bodies);

    viva::support::Rng rng(21);
    for (int i = 0; i < 40; ++i) {
        vl::Vec2 q{rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
        vl::Vec2 a = exactField(bodies, q);
        vl::Vec2 b = batch.forceAt(q, 0.0);
        EXPECT_NEAR(a.x, b.x, 1e-9);
        EXPECT_NEAR(a.y, b.y, 1e-9);
    }
}

TEST(QuadTreeArena, RebuildReusesTheArena)
{
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {500.0, 500.0}, randomBodies(31, 800));
    std::size_t big = tree.cellCount();
    EXPECT_TRUE(tree.auditInvariants().empty());

    // A smaller rebuild shrinks the logical tree (capacity is an
    // implementation detail, but the cell count must track the build).
    tree.build({0.0, 0.0}, {500.0, 500.0}, randomBodies(37, 50));
    EXPECT_LT(tree.cellCount(), big);
    EXPECT_EQ(tree.pointCount(), 50u);
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeArena, CoincidentBodiesMergeIntoOneLeaf)
{
    std::vector<vl::QuadTree::Body> bodies(10,
                                           {{0.25, 0.25}, 1.0});
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {1.0, 1.0}, bodies);
    EXPECT_EQ(tree.pointCount(), 10u);
    EXPECT_TRUE(tree.auditInvariants().empty());
    vl::Vec2 f = tree.forceAt({0.75, 0.25}, 0.0);
    // Ten unit charges at distance 0.5: 10 * 0.5 / 0.125 = 40.
    EXPECT_NEAR(f.x, 40.0, 1e-9);
}

TEST(QuadTreeArena, EmptyBuildIsWellFormed)
{
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {1.0, 1.0}, {});
    EXPECT_EQ(tree.pointCount(), 0u);
    EXPECT_TRUE(tree.auditInvariants().empty());
    vl::Vec2 f = tree.forceAt({0.5, 0.5}, 0.8);
    EXPECT_DOUBLE_EQ(f.x, 0.0);
    EXPECT_DOUBLE_EQ(f.y, 0.0);
}

// --- the one-pass build against the recursive reference -------------------------

namespace
{

using Bodies = std::vector<vl::QuadTree::Body>;

/**
 * Build `bodies` into a tree that already holds another build (so a
 * reused arena or sort buffer cannot hide stale state) and check the
 * arena byte for byte, and the body order, against the reference.
 */
void
expectMatchesOracle(vl::Vec2 lo, vl::Vec2 hi, const Bodies &bodies)
{
    static_assert(sizeof(vl::QuadTree::Cell) == 5 * sizeof(double),
                  "a padded cell would make the byte comparison flaky");
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, randomBodies(3, 900));
    tree.build(lo, hi, bodies);
    const viva::oracle::QuadTreeImage ref =
        viva::oracle::buildQuadTree(lo, hi, bodies);

    ASSERT_EQ(tree.arena().size(), ref.cells.size());
    for (std::size_t c = 0; c < ref.cells.size(); ++c)
        ASSERT_EQ(std::memcmp(&tree.arena()[c], &ref.cells[c],
                              sizeof(vl::QuadTree::Cell)),
                  0)
            << "cell " << c << " of " << ref.cells.size();
    ASSERT_EQ(tree.bodyOrder().size(), ref.order.size());
    EXPECT_TRUE(std::equal(ref.order.begin(), ref.order.end(),
                           tree.bodyOrder().begin()));
    EXPECT_TRUE(tree.auditInvariants().empty());
}

} // namespace

TEST(QuadTreeOracle, UniformBodies)
{
    expectMatchesOracle({-1.0, -1.0}, {501.0, 501.0},
                        randomBodies(41, 4000));
}

TEST(QuadTreeOracle, ClusteredBodies)
{
    // Tight clusters of very different spreads: long single-child
    // chains above each cluster, dense branching inside it.
    viva::support::Rng rng(43);
    Bodies bodies;
    const double spreads[] = {1e-6, 1e-3, 0.5, 20.0};
    for (int k = 0; k < 12; ++k) {
        vl::Vec2 centre{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
        double spread = spreads[k % 4];
        for (int i = 0; i < 150; ++i)
            bodies.push_back({{centre.x + rng.uniform(-spread, spread),
                               centre.y + rng.uniform(-spread, spread)},
                              rng.uniform(0.5, 4.0)});
    }
    expectMatchesOracle({-30.0, -30.0}, {1030.0, 1030.0}, bodies);
}

TEST(QuadTreeOracle, CoincidentBodies)
{
    // Bodies drawn from a small pool of positions: groups sharing a
    // code sit next to single bodies and to other groups.
    viva::support::Rng rng(47);
    Bodies pool = randomBodies(53, 60);
    Bodies bodies;
    for (int i = 0; i < 400; ++i)
        bodies.push_back({pool[rng.index(pool.size())].position,
                          rng.uniform(0.5, 4.0)});
    expectMatchesOracle({-1.0, -1.0}, {501.0, 501.0}, bodies);
}

TEST(QuadTreeOracle, BodiesAtTheMortonResolution)
{
    // Steps around the 2^-21 cell size of the unit box, some far below
    // it, plus bodies outside the box that clamp onto its edges.
    Bodies bodies;
    const double steps[] = {1e-13, 1e-7, 4.76837158203125e-07, 2e-6};
    for (int row = 0; row < 4; ++row)
        for (int i = 0; i < 20; ++i)
            bodies.push_back(
                {{0.5 + double(i) * steps[row], 0.25 * (row + 0.5)},
                 1.0 + 0.125 * i});
    bodies.push_back({{-3.0, 0.5}, 2.0});
    bodies.push_back({{0.5, 7.0}, 2.0});
    bodies.push_back({{9.0, 9.0}, 1.0});
    bodies.push_back({{1.0, 1.0}, 1.0});
    expectMatchesOracle({0.0, 0.0}, {1.0, 1.0}, bodies);
}

TEST(QuadTreeOracle, OneAndTwoBodies)
{
    expectMatchesOracle({0.0, 0.0}, {1.0, 1.0}, {{{0.3, 0.7}, 2.5}});
    expectMatchesOracle({0.0, 0.0}, {1.0, 1.0},
                        {{{0.3, 0.7}, 2.5}, {{0.3, 0.7}, 1.5}});
    expectMatchesOracle({0.0, 0.0}, {1.0, 1.0},
                        {{{0.3, 0.7}, 2.5}, {{0.30001, 0.7}, 1.5}});
}

namespace
{

/** forceAt with only the exact opening test, over the tree's arena. */
vl::Vec2
referenceField(const vl::QuadTree &tree, vl::Vec2 position, double theta)
{
    vl::Vec2 total;
    std::span<const vl::QuadTree::Cell> cells = tree.arena();
    for (std::size_t c = 0; c < cells.size();) {
        const vl::QuadTree::Cell &cell = cells[c];
        vl::Vec2 d = position - cell.bary;
        double dist = std::sqrt(d.norm2());
        bool accept = dist > 1e-9 && cell.size / dist < theta;
        if (cell.bodies != 0 && dist >= 1e-9)
            total += d * (cell.charge / (dist * dist * dist));
        else if (cell.bodies == 0 && accept) {
            total += d * (cell.charge / (dist * dist * dist));
            c = cell.skip.index();
            continue;
        }
        ++c;
    }
    return total;
}

} // namespace

TEST(QuadTreeOracle, OpeningTestAtTheThetaBoundary)
{
    // Quadrant 0 of the unit box is a cell of size 0.5 with its
    // barycentre at (0.25, 0.25); at theta 0.5 it is accepted exactly
    // when the query is farther than 1.0 from it. Queries on that
    // boundary in many directions, a hundred ulps either side of it,
    // and inside and just outside the 1e-9 band of the squared
    // shortcuts must sum the same terms as the exact test alone.
    Bodies bodies{{{0.125, 0.125}, 1.0}, {{0.375, 0.375}, 1.0},
                  {{0.9, 0.8}, 2.0}};
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {1.0, 1.0}, bodies);
    const double theta = 0.5, size = 0.5;
    const vl::Vec2 bary{0.25, 0.25};

    std::vector<vl::Vec2> queries;
    for (int a = 0; a < 32; ++a) {
        const double angle = a * std::numbers::pi / 64.0;
        const vl::Vec2 dir{std::cos(angle), std::sin(angle)};
        for (int k = -100; k <= 100; ++k)
            queries.push_back(bary + dir * (1.0 + k * 0x1p-52));
        for (double rel : {-2e-9, -1e-9, -9e-10, -5e-10, -1e-10, 1e-10,
                           5e-10, 9e-10, 1e-9, 2e-9})
            queries.push_back(bary + dir * (1.0 + rel));
    }
    // The sweep must reach the rounding band, where comparing squares
    // without a margin disagrees with the exact test.
    int disagreements = 0;
    for (vl::Vec2 q : queries) {
        const double d2 = (q - bary).norm2();
        const bool exact = size / std::sqrt(d2) < theta;
        disagreements += (size * size < theta * theta * d2) != exact;
    }
    EXPECT_GT(disagreements, 0);

    for (vl::Vec2 q : queries) {
        vl::Vec2 got = tree.forceAt(q, theta);
        vl::Vec2 want = referenceField(tree, q, theta);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "query (" << q.x << ", " << q.y << ")";
    }
}

// --- ForceLayout ------------------------------------------------------------------

TEST(ForceLayout, TwoConnectedNodesApproachRestLength)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {1, 0});
    g.addEdge(a, b);
    vl::ForceLayout layout(g);
    layout.params().restLength = 40.0;
    layout.stabilize(3000, 1e-10).value();

    double d = vl::distance(g.node(a).position, g.node(b).position);
    // Equilibrium: spring pull equals charge push, so distance settles
    // somewhat above the rest length; it must be stable and finite.
    EXPECT_GT(d, 30.0);
    EXPECT_LT(d, 400.0);

    // At equilibrium the forces balance: k*q1*q2/d^2 == s*(d - L).
    double push = layout.params().charge / (d * d);
    double pull = layout.params().spring * (d - 40.0);
    EXPECT_NEAR(push, pull, 0.05 * std::max(push, pull) + 1e-6);
}

TEST(ForceLayout, DisconnectedNodesRepel)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {0.5, 0});
    vl::ForceLayout layout(g);
    double before = vl::distance(g.node(a).position, g.node(b).position);
    for (int i = 0; i < 50; ++i)
        layout.step().value();
    double after = vl::distance(g.node(a).position, g.node(b).position);
    EXPECT_GT(after, before);
}

TEST(ForceLayout, StabilizeConverges)
{
    viva::support::Rng rng(5);
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    for (int i = 0; i < 30; ++i)
        ids.push_back(g.addNode(
            i, {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}));
    for (int i = 1; i < 30; ++i)
        g.addEdge(ids[i], ids[rng.index(i)]);  // random tree

    vl::ForceLayout layout(g);
    std::size_t iters = layout.stabilize(2000, 1e-4).value();
    EXPECT_LT(iters, 2000u);
    EXPECT_LT(layout.kineticEnergy() / 30.0, 1e-4);
}

TEST(ForceLayout, PinnedNodeStaysPut)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {5, 5});
    auto b = g.addNode(2, {6, 5});
    g.addEdge(a, b);
    g.setPinned(a, true);
    vl::ForceLayout layout(g);
    layout.stabilize(500).value();
    EXPECT_DOUBLE_EQ(g.node(a).position.x, 5.0);
    EXPECT_DOUBLE_EQ(g.node(a).position.y, 5.0);
    EXPECT_NE(g.node(b).position.x, 6.0);  // b moved away
}

TEST(ForceLayout, DragPullsNeighborsAlong)
{
    // A 4-node chain; drag one end far away: its neighbour must follow.
    vl::LayoutGraph g;
    std::vector<vl::NodeId> n;
    for (int i = 0; i < 4; ++i)
        n.push_back(g.addNode(i, {double(i) * 40.0, 0}));
    for (int i = 0; i < 3; ++i)
        g.addEdge(n[i], n[i + 1]);

    vl::ForceLayout layout(g);
    layout.stabilize(500).value();
    double before = g.node(n[1]).position.x;

    layout.dragNode(n[0], {-500.0, 0.0});
    layout.stabilize(800).value();
    layout.releaseNode(n[0]);
    EXPECT_DOUBLE_EQ(g.node(n[0]).position.x, -500.0);  // held while pinned
    EXPECT_LT(g.node(n[1]).position.x, before - 50.0);  // followed left
}

TEST(ForceLayout, ChargeSliderSpreadsLayout)
{
    auto area_with_charge = [](double charge) {
        viva::support::Rng rng(9);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 20; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}));
        for (int i = 1; i < 20; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 2]);  // binary tree
        vl::ForceLayout layout(g);
        layout.params().charge = charge;
        layout.stabilize(1500, 1e-6).value();
        return vl::boundingBoxArea(g);
    };
    // Higher charge, more disperse nodes (Section 4.2).
    EXPECT_GT(area_with_charge(8000.0), area_with_charge(500.0) * 1.5);
}

TEST(ForceLayout, SpringSliderTightensEdges)
{
    auto mean_edge = [](double spring) {
        viva::support::Rng rng(9);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 20; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}));
        for (int i = 1; i < 20; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 2]);
        vl::ForceLayout layout(g);
        layout.params().spring = spring;
        layout.stabilize(1500, 1e-6).value();
        return vl::edgeLengths(g).mean();
    };
    EXPECT_LT(mean_edge(0.5), mean_edge(0.02));
}

TEST(ForceLayout, BarnesHutMatchesExactStepClosely)
{
    auto run = [](bool use_bh) {
        viva::support::Rng rng(13);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 40; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)}));
        for (int i = 1; i < 40; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 3]);
        vl::ForceLayout layout(g);
        layout.params().useBarnesHut = use_bh;
        layout.params().theta = 0.5;
        layout.stabilize(400, 1e-8).value();
        return vl::snapshotPositions(g);
    };
    auto exact = run(false);
    auto approx = run(true);
    // The two layouts need not be identical, but their shape statistics
    // must agree: compare bounding metrics via displacement spread.
    viva::support::RunningStats d = vl::displacement(exact, approx);
    EXPECT_EQ(d.count(), 40u);
    // Converged equilibria are close relative to the layout extent.
    EXPECT_LT(d.mean(), 60.0);
}

TEST(ForceLayout, DynamicInsertKeepsOthersNear)
{
    viva::support::Rng rng(17);
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    for (int i = 0; i < 25; ++i)
        ids.push_back(g.addNode(
            i, {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}));
    for (int i = 1; i < 25; ++i)
        g.addEdge(ids[i], ids[(i - 1) / 2]);
    vl::ForceLayout layout(g);
    layout.stabilize(2000, 1e-6).value();
    auto before = vl::snapshotPositions(g);
    double extent = std::sqrt(vl::boundingBoxArea(g));

    // Insert a node connected to node 0, near it.
    auto fresh = g.addNode(1000, g.node(ids[0]).position + vl::Vec2{5, 5});
    g.addEdge(fresh, ids[0]);
    layout.stabilize(2000, 1e-6).value();

    auto after = vl::snapshotPositions(g);
    viva::support::RunningStats d = vl::displacement(before, after);
    // The smooth-evolution property: mean displacement is a small
    // fraction of the layout extent.
    EXPECT_LT(d.mean(), extent * 0.35);
}

// --- metrics ----------------------------------------------------------------------

TEST(LayoutMetrics, SnapshotAndDisplacement)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    g.addNode(2, {3, 4});
    auto before = vl::snapshotPositions(g);
    g.setPosition(a, {1, 0});
    auto after = vl::snapshotPositions(g);
    auto d = vl::displacement(before, after);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.5);
}

TEST(LayoutMetrics, DisplacementIgnoresUnsharedKeys)
{
    vl::Snapshot a{{1, {0, 0}}, {2, {1, 1}}};
    vl::Snapshot b{{2, {1, 1}}, {3, {9, 9}}};
    auto d = vl::displacement(a, b);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(LayoutMetrics, EdgeCrossingsKnownConfigurations)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {10, 10});
    auto c = g.addNode(3, {0, 10});
    auto d = g.addNode(4, {10, 0});
    g.addEdge(a, b);  // diagonal
    g.addEdge(c, d);  // crossing diagonal
    EXPECT_EQ(vl::edgeCrossings(g), 1u);

    vl::LayoutGraph g2;
    auto a2 = g2.addNode(1, {0, 0});
    auto b2 = g2.addNode(2, {10, 0});
    auto c2 = g2.addNode(3, {5, 10});
    g2.addEdge(a2, b2);
    g2.addEdge(b2, c2);
    g2.addEdge(c2, a2);  // triangle: shared endpoints never cross
    EXPECT_EQ(vl::edgeCrossings(g2), 0u);
}

TEST(LayoutMetrics, BoundingBoxArea)
{
    vl::LayoutGraph g;
    g.addNode(1, {0, 0});
    g.addNode(2, {4, 5});
    EXPECT_DOUBLE_EQ(vl::boundingBoxArea(g), 20.0);
}
