/**
 * @file
 * Cross-cutting property tests on randomized inputs: conservation laws
 * of the simulator, determinism, partition invariants of hierarchy
 * cuts, treemap geometry, and routing consistency. These pin down the
 * global invariants that unit tests of single modules cannot.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "cut_oracle.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "trace/io.hh"
#include "viz/treemap.hh"

namespace va = viva::agg;
namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vv = viva::viz;

// --- simulator conservation laws ---------------------------------------------

class EngineConservation : public ::testing::TestWithParam<int>
{
  protected:
    /** Random mix of computes and comms on a synthetic grid. */
    struct Workload
    {
        double totalMflop = 0.0;
        double totalMbit = 0.0;
    };

    static Workload
    inject(vs::SimulationRun &run, viva::support::Rng &rng)
    {
        const vp::Platform &plat = run.engine.platform();
        Workload w;
        int n = 20 + int(rng.index(40));
        for (int i = 0; i < n; ++i) {
            double start = rng.uniform(0.0, 2.0);
            if (rng.uniform() < 0.5) {
                double mflop = rng.uniform(100.0, 5000.0);
                auto host = vp::HostId(rng.index(plat.hostCount()));
                w.totalMflop += mflop;
                run.engine.at(start, [&run, host, mflop] {
                    run.engine.startCompute(host, mflop, [] {});
                });
            } else {
                auto src = vp::HostId(rng.index(plat.hostCount()));
                auto dst = vp::HostId(rng.index(plat.hostCount()));
                if (src == dst)
                    continue;
                double mbits = rng.uniform(1.0, 200.0);
                // Each crossed link carries the full payload.
                w.totalMbit +=
                    mbits * double(plat.route(src, dst).links.size());
                run.engine.at(start, [&run, src, dst, mbits] {
                    run.engine.startComm(src, dst, mbits, [] {});
                });
            }
        }
        return w;
    }
};

TEST_P(EngineConservation, TracedWorkEqualsInjectedWork)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
    vs::SimulationRun run(plat);
    Workload injected = inject(run, rng);
    run.engine.run();
    ASSERT_TRUE(run.engine.idle());
    run.trace.ensureClosure();

    // Integrate the traced utilization over the whole run: it must
    // equal the injected work exactly (the fluid model conserves it).
    va::TimeSlice span = run.trace.span();
    va::Aggregator agg(run.trace);
    double traced_mflop =
        agg.value(run.trace.root(), run.mirror.powerUsed, span,
                  va::SpatialOp::Sum, va::TemporalOp::Integral);
    double traced_mbit =
        agg.value(run.trace.root(), run.mirror.bandwidthUsed, span,
                  va::SpatialOp::Sum, va::TemporalOp::Integral);

    EXPECT_NEAR(traced_mflop, injected.totalMflop,
                1e-6 * std::max(1.0, injected.totalMflop));
    EXPECT_NEAR(traced_mbit, injected.totalMbit,
                1e-6 * std::max(1.0, injected.totalMbit));
}

TEST_P(EngineConservation, DeterministicReplay)
{
    auto run_once = [&](int seed) {
        viva::support::Rng rng(seed);
        vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
        vs::SimulationRun run(plat);
        inject(run, rng);
        run.engine.run();
        std::ostringstream out;
        vt::writeTrace(run.trace, out);
        return out.str();
    };
    EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

TEST_P(EngineConservation, RunInPiecesMatchesRunWhole)
{
    auto run_with_steps = [&](int seed, bool stepped) {
        viva::support::Rng rng(seed);
        vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
        vs::SimulationRun run(plat);
        inject(run, rng);
        if (stepped) {
            for (double t = 0.5; !run.engine.idle() && t < 1000.0;
                 t += 0.7)
                run.engine.run(t);
        }
        run.engine.run();
        run.trace.ensureClosure();
        va::Aggregator agg(run.trace);
        return agg.value(run.trace.root(), run.mirror.powerUsed,
                         run.trace.span(), va::SpatialOp::Sum,
                         va::TemporalOp::Integral);
    };
    double whole = run_with_steps(GetParam(), false);
    double pieces = run_with_steps(GetParam(), true);
    EXPECT_NEAR(whole, pieces, 1e-6 * std::max(1.0, whole));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConservation,
                         ::testing::Range(1, 13));

// --- hierarchy cut partition invariant -------------------------------------------

class CutPartition : public ::testing::TestWithParam<int>
{
};

TEST_P(CutPartition, VisibleNodesPartitionTheLeaves)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(
        1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(5), rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);

    va::HierarchyCut cut(trace);
    // Random sequence of aggregate / disaggregate operations.
    for (int op = 0; op < 30; ++op) {
        auto id = vt::ContainerId(rng.index(trace.containerCount()));
        if (rng.uniform() < 0.6)
            cut.aggregate(id);
        else
            cut.disaggregate(id);
    }

    // Every leaf must be covered by exactly one visible node.
    auto visible = cut.visibleNodes();
    std::vector<int> covered(trace.containerCount(), 0);
    for (auto v : visible) {
        EXPECT_TRUE(cut.isVisible(v));
        for (auto leaf : viva::oracle::leavesUnder(trace, v))
            ++covered[leaf.index()];
    }
    for (auto leaf : viva::oracle::leavesUnder(trace, trace.root()))
        EXPECT_EQ(covered[leaf.index()], 1) << "leaf " << leaf;

    // representative() agrees with the covering node.
    for (auto v : visible)
        for (auto leaf : viva::oracle::leavesUnder(trace, v))
            EXPECT_EQ(cut.representative(leaf), v);
}

TEST_P(CutPartition, ConservationUnderRandomCuts)
{
    viva::support::Rng rng(100 + GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(2, 2, 4, rng);
    vt::Trace trace;
    auto mirror = vp::mirrorPlatform(plat, trace);
    trace.ensureClosure();

    va::HierarchyCut cut(trace);
    for (int op = 0; op < 20; ++op)
        cut.aggregate(vt::ContainerId(rng.index(trace.containerCount())));

    va::Aggregator agg(trace);
    double total = 0.0;
    for (auto v : cut.visibleNodes())
        total += agg.value(v, mirror.power, {0.0, 1.0});
    double expected = 0.0;
    for (vp::HostId h{0}; h.index() < plat.hostCount(); ++h)
        expected += plat.host(h).powerMflops;
    EXPECT_NEAR(total, expected, 1e-9 * expected);
}

TEST_P(CutPartition, FocusShowsTargetAndAggregatesRest)
{
    viva::support::Rng rng(200 + GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(3, 2, 3, rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);

    auto target = trace.findByName("site1-c0");
    ASSERT_NE(target, vt::kNoContainer);
    va::HierarchyCut cut(trace);
    cut.focus({target});

    // Every leaf under the target is visible itself.
    for (auto leaf : viva::oracle::leavesUnder(trace, target))
        EXPECT_TRUE(cut.isVisible(leaf));
    // Other sites are single aggregated nodes.
    auto site2 = trace.findByName("site2");
    ASSERT_NE(site2, vt::kNoContainer);
    EXPECT_TRUE(cut.isCollapsed(site2));
    EXPECT_EQ(
        cut.representative(viva::oracle::leavesUnder(trace, site2)[0]),
        site2);
    // The sibling cluster of the target is aggregated, not expanded.
    auto sibling = trace.findByName("site1-c1");
    EXPECT_TRUE(cut.isCollapsed(sibling));
}

/**
 * The cut keeps its projection across operations: after every kind of
 * operation its visible nodes and edges equal a fresh re-projection by
 * the hash-map reference, order and multiplicities included, on random
 * hierarchies with relations between arbitrary containers.
 */
TEST_P(CutPartition, KeptProjectionMatchesTheOracleAfterEveryOperation)
{
    viva::support::Rng rng(300 + GetParam());
    vt::Trace trace;
    const std::size_t n = 20 + rng.index(60);
    auto any = [&] {
        return vt::ContainerId(rng.index(trace.containerCount()));
    };
    for (std::size_t i = 0; i < n; ++i)
        trace.addContainer("c" + std::to_string(i), vt::ContainerKind::Host,
                           any());
    for (std::size_t i = 0; i < 3 * n; ++i)
        trace.addRelation(any(), any());

    va::HierarchyCut cut(trace);
    auto expectOracle = [&](const char *op) {
        std::vector<vt::ContainerId> nodes =
            viva::oracle::projectNodes(trace, cut);
        std::span<const vt::ContainerId> kept = cut.visibleNodes();
        EXPECT_TRUE(std::equal(kept.begin(), kept.end(), nodes.begin(),
                               nodes.end()))
            << "visible nodes after " << op;
        EXPECT_EQ(cut.visibleCount(), nodes.size()) << op;
        std::vector<va::ViewEdge> edges =
            viva::oracle::projectEdges(trace, cut);
        const std::vector<va::ViewEdge> &kept_edges = cut.visibleEdges();
        ASSERT_EQ(kept_edges.size(), edges.size()) << "edges after " << op;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            EXPECT_EQ(kept_edges[i].a, edges[i].a) << op << " edge " << i;
            EXPECT_EQ(kept_edges[i].b, edges[i].b) << op << " edge " << i;
            EXPECT_EQ(kept_edges[i].multiplicity, edges[i].multiplicity)
                << op << " edge " << i;
        }
        EXPECT_TRUE(cut.auditInvariants().empty()) << op;
    };

    expectOracle("construction");
    for (int step = 0; step < 60; ++step) {
        vt::ContainerId id = any();
        switch (rng.index(7)) {
          case 0:
            cut.aggregate(id);
            expectOracle("aggregate");
            break;
          case 1:
            cut.disaggregate(id);
            expectOracle("disaggregate");
            break;
          case 2:
            cut.aggregateToDepth(std::uint16_t(rng.index(5)));
            expectOracle("aggregateToDepth");
            break;
          case 3:
            cut.focus({id, any()});
            expectOracle("focus");
            break;
          case 4:
            cut.reset();
            expectOracle("reset");
            break;
          case 5: {
            std::vector<std::uint8_t> flags(trace.containerCount(), 0);
            for (std::size_t c = 0; c < flags.size(); ++c)
                flags[c] = !trace.container(vt::ContainerId(c)).leaf() &&
                           rng.uniform() < 0.3;
            ASSERT_TRUE(cut.setCollapsedFlags(flags).ok());
            expectOracle("setCollapsedFlags");
            break;
          }
          default:
            // Nested flags are legal; a collapsed leaf is not.
            if (!trace.container(id).leaf()) {
                cut.debugSetCollapsed(id, rng.uniform() < 0.5);
                expectOracle("debugSetCollapsed");
            }
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutPartition, ::testing::Range(1, 9));

// --- treemap geometry -----------------------------------------------------------

class TreemapGeometry : public ::testing::TestWithParam<int>
{
};

TEST_P(TreemapGeometry, CellsStayInCanvasAndNest)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(
        1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(6), rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);
    trace.ensureClosure();

    vv::TreemapOptions options;
    options.width = 640;
    options.height = 480;
    options.padding = rng.uniform(0.0, 3.0);
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);
    ASSERT_FALSE(map.cells.empty());

    double leaf_area = 0.0;
    for (const auto &cell : map.cells) {
        EXPECT_GE(cell.x, -1e-9);
        EXPECT_GE(cell.y, -1e-9);
        EXPECT_LE(cell.x + cell.width, options.width + 1e-9);
        EXPECT_LE(cell.y + cell.height, options.height + 1e-9);
        EXPECT_GE(cell.width, 0.0);
        EXPECT_GE(cell.height, 0.0);
        if (cell.leaf)
            leaf_area += cell.area();
    }
    // With zero padding the leaves tile the canvas exactly; padding
    // only removes area.
    EXPECT_LE(leaf_area, 640.0 * 480.0 + 1e-6);
    if (options.padding < 1e-9) {
        EXPECT_NEAR(leaf_area, 640.0 * 480.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreemapGeometry, ::testing::Range(1, 9));

// --- routing consistency -----------------------------------------------------------

class RoutingConsistency : public ::testing::TestWithParam<int>
{
};

TEST_P(RoutingConsistency, RoutesAreConnectedPaths)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeGrid5000();

    for (int trial = 0; trial < 20; ++trial) {
        auto a = vp::HostId(rng.index(plat.hostCount()));
        auto b = vp::HostId(rng.index(plat.hostCount()));
        const vp::Route &route = plat.route(a, b);
        if (a == b) {
            EXPECT_TRUE(route.links.empty());
            continue;
        }
        ASSERT_FALSE(route.links.empty());

        // Forward and reverse routes have equal hop count (BFS).
        EXPECT_EQ(route.links.size(), plat.route(b, a).links.size());

        // The latency is the sum of the links' latencies.
        double latency = 0.0;
        for (auto l : route.links)
            latency += plat.link(l).latencyS;
        EXPECT_NEAR(route.latencyS, latency, 1e-12);

        // Consecutive links share a vertex (the path is connected):
        // verified through the adjacency lists.
        for (std::size_t i = 0; i + 1 < route.links.size(); ++i) {
            bool share = false;
            for (vp::VertexId v{0}; v.index() < plat.vertexCount() && !share;
                 ++v) {
                bool has_i = false, has_next = false;
                for (const auto &[other, l] : plat.edges(v)) {
                    has_i |= l == route.links[i];
                    has_next |= l == route.links[i + 1];
                }
                share = has_i && has_next;
            }
            EXPECT_TRUE(share) << "links " << i << " and " << i + 1
                               << " are disconnected";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingConsistency,
                         ::testing::Range(1, 4));
