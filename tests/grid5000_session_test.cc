/**
 * @file
 * Layout behaviour of the Grid'5000-mirror session (2170 hosts).
 *
 * Pinned values: a scripted session's state digest and the Barnes-Hut
 * field of a fixed body set, compared bit for bit against constants
 * recorded from the reference implementation. The thread-count suites
 * only compare runs with each other; these constants catch a change to
 * the force-sum order itself (graph storage order, quadtree shape,
 * traversal order) that would move every run the same way.
 *
 * Bounded growth: repeated cut changes that return to the same view
 * must leave the layout graph, and the working set the governor
 * budgets against, where they started.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "app/session.hh"
#include "layout/quadtree.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/random.hh"
#include "trace/trace.hh"

namespace vap = viva::app;
namespace vl = viva::layout;

namespace
{

/** The Grid'5000 mirror at host level, no utilisation data. */
vap::Session
makeGrid5000Session()
{
    viva::trace::Trace t;
    viva::platform::mirrorPlatform(viva::platform::makeGrid5000(), t);
    return vap::Session(std::move(t));
}

/** The scripted gesture mix, every gesture followed by a short settle. */
std::uint64_t
scriptedDigest(std::size_t threads)
{
    vap::Session s = makeGrid5000Session();
    s.setThreads(threads);
    auto settle = [&s](std::size_t iters) {
        EXPECT_TRUE(s.stabilizeLayout(iters).ok());
    };
    settle(100);
    EXPECT_TRUE(s.focus("sagittaire"));
    settle(10);
    s.resetAggregation();
    settle(10);
    EXPECT_TRUE(s.aggregate("lyon"));
    settle(10);
    EXPECT_TRUE(s.disaggregate("lyon"));
    settle(10);
    s.aggregateToDepth(3);
    settle(10);
    s.aggregateToDepth(2);
    settle(10);
    EXPECT_TRUE(s.moveNode("lyon", 120.0, -80.0));
    settle(10);
    EXPECT_TRUE(s.auditInvariants().empty());
    return s.stateDigest();
}

/** A fixed seeded body set inside [0, 500)^2. */
std::vector<vl::QuadTree::Body>
pinnedBodies()
{
    viva::support::Rng rng(4242);
    std::vector<vl::QuadTree::Body> bodies;
    for (int i = 0; i < 400; ++i)
        bodies.push_back({{rng.uniform(0.0, 500.0),
                           rng.uniform(0.0, 500.0)},
                          rng.uniform(0.5, 4.0)});
    return bodies;
}

} // namespace

TEST(PinnedLayout, SessionDigestAtOneAndTwoThreads)
{
    // The digest mixes the thread setting in, so each count has its
    // own constant; the layout state under it is the same.
    EXPECT_EQ(scriptedDigest(1), 0xdadc55c24a3cd2beull);
    EXPECT_EQ(scriptedDigest(2), 0xfb0c8266bf1b11c1ull);
}

TEST(PinnedLayout, ForceAtField)
{
    std::vector<vl::QuadTree::Body> bodies = pinnedBodies();
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);

    // Two body positions (self charge skipped) and two free points.
    const vl::Vec2 queries[] = {bodies[0].position, bodies[123].position,
                                {250.0, 250.0}, {-40.0, 610.0}};
    struct Pinned
    {
        double theta;
        double x[4];
        double y[4];
    };
    const Pinned pinned[] = {
        {0.8,
         {-0x1.a5bbd8d3b340cp-7, 0x1.0291d7ae287b1p-7,
          0x1.e14d5fad9c294p-9, -0x1.7e6300649e4c4p-9},
         {0x1.1e8e256ac1001p-7, -0x1.205ada6d6bc3bp-5,
          0x1.011249a8723f3p-10, 0x1.d1457441cbd56p-9}},
        {0.0,
         {-0x1.97f0637e3dddbp-7, 0x1.f599444a8af92p-8,
          0x1.00ff8764095e5p-8, -0x1.8e8e436a1340cp-9},
         {0x1.2c7b7a803628p-7, -0x1.1dd232d58d8bfp-5,
          0x1.77d2226a3a05fp-10, 0x1.dc7662627418p-9}},
    };
    for (const Pinned &p : pinned) {
        for (int i = 0; i < 4; ++i) {
            vl::Vec2 f = tree.forceAt(queries[i], p.theta);
            EXPECT_EQ(f.x, p.x[i]) << "theta " << p.theta << " query " << i;
            EXPECT_EQ(f.y, p.y[i]) << "theta " << p.theta << " query " << i;
        }
    }
}

TEST(LayoutGrowth, FocusResetCyclesKeepOneSlotPerNode)
{
    vap::Session s = makeGrid5000Session();
    const std::size_t nodes = s.layoutGraph().nodeCount();
    for (int cycle = 0; cycle < 200; ++cycle) {
        ASSERT_TRUE(s.focus("sagittaire"));
        s.resetAggregation();
    }
    EXPECT_EQ(s.layoutGraph().nodeCount(), nodes);
    EXPECT_EQ(s.layoutGraph().rawNodes().size(), nodes);
    EXPECT_TRUE(s.auditInvariants().empty());
}

TEST(LayoutGrowth, ConstantCutUnderBudgetNeverDegrades)
{
    vap::Session s = makeGrid5000Session();
    const std::uint64_t host_level = s.workingSetBytes();
    s.setMemoryBudget(2 * host_level);
    for (int cycle = 0; cycle < 60; ++cycle) {
        ASSERT_TRUE(s.focus("sagittaire"));
        s.resetAggregation();
    }
    EXPECT_EQ(s.degradationCount(), 0u);
    EXPECT_EQ(s.workingSetBytes(), host_level);
}
