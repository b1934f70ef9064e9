/**
 * @file
 * Cost of the multi-scale aggregation primitives (Section 3.2): exact
 * temporal integration over traces of growing length, spatial
 * aggregation (buildView) at each scale of a Grid'5000-sized hierarchy,
 * edge contraction, and the fair-share solver that produces the traces
 * in the first place. These are the operations behind every slider
 * move in an interactive session, so they must stay interactive-fast.
 */

#include <benchmark/benchmark.h>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "sim/fairshare.hh"
#include "support/random.hh"
#include "trace/trace.hh"

namespace
{

namespace va = viva::agg;
namespace vt = viva::trace;

/** A variable with n random change points over [0, 1000). */
vt::Variable
makeVariable(std::size_t n)
{
    viva::support::Rng rng(5);
    vt::Variable v;
    double t = 0.0;
    double mean_gap = 1000.0 / double(n);
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.uniform(0.5 * mean_gap, 1.5 * mean_gap);
        v.set(t, rng.uniform(0.0, 100.0));
    }
    return v;
}

void
BM_VariableIntegrate(benchmark::State &state)
{
    vt::Variable v = makeVariable(std::size_t(state.range(0)));
    double span = v.lastTime();
    for (auto _ : state)
        benchmark::DoNotOptimize(v.integrate(span * 0.1, span * 0.9));
    state.SetComplexityN(state.range(0));
}

void
BM_VariableValueAt(benchmark::State &state)
{
    vt::Variable v = makeVariable(std::size_t(state.range(0)));
    double t = v.lastTime() * 0.5;
    for (auto _ : state)
        benchmark::DoNotOptimize(v.valueAt(t));
    state.SetComplexityN(state.range(0));
}

/** The mirrored Grid'5000 trace with one utilization point per host. */
const vt::Trace &
gridTrace()
{
    static vt::Trace trace = [] {
        viva::platform::Platform p = viva::platform::makeGrid5000();
        vt::Trace t;
        auto mirror = viva::platform::mirrorPlatform(p, t);
        viva::support::Rng rng(3);
        for (auto c : mirror.hostContainer) {
            t.variable(c, mirror.powerUsed)
                .set(0.0, rng.uniform(0.0, 5000.0));
        }
        t.ensureClosure();
        return t;
    }();
    return trace;
}

void
BM_BuildViewAtDepth(benchmark::State &state)
{
    const vt::Trace &trace = gridTrace();
    va::HierarchyCut cut(trace);
    int depth = int(state.range(0));
    if (depth >= 0)
        cut.aggregateToDepth(std::uint16_t(depth));
    std::vector<vt::MetricId> metrics{trace.findMetric("power"),
                                      trace.findMetric("power_used")};
    std::size_t nodes = 0;
    for (auto _ : state) {
        va::View v = va::buildView(trace, cut, {0.0, 1.0}, metrics);
        nodes = v.nodes.size();
        benchmark::DoNotOptimize(v);
    }
    state.counters["nodes"] = double(nodes);
}

void
BM_VisibleEdges(benchmark::State &state)
{
    const vt::Trace &trace = gridTrace();
    va::HierarchyCut cut(trace);
    cut.aggregateToDepth(std::uint16_t(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(va::visibleEdges(trace, cut));
}

/**
 * A 10,000-host synthetic grid (10 sites x 10 clusters x 100 hosts)
 * with a short piecewise-constant utilization history per host -- the
 * input for the parallel-aggregation speedup benchmark.
 */
const vt::Trace &
bigTrace()
{
    static vt::Trace trace = [] {
        viva::support::Rng rng(17);
        viva::platform::Platform p =
            viva::platform::makeSyntheticGrid(10, 10, 100, rng);
        vt::Trace t;
        auto mirror = viva::platform::mirrorPlatform(p, t);
        viva::support::Rng vals(19);
        for (auto c : mirror.hostContainer) {
            vt::Variable &v = t.variable(c, mirror.powerUsed);
            double time = 0.0;
            for (int k = 0; k < 8; ++k) {
                v.set(time, vals.uniform(0.0, 5000.0));
                time += vals.uniform(0.5, 2.0);
            }
        }
        t.ensureClosure();
        return t;
    }();
    return trace;
}

void
BM_BuildViewParallel(benchmark::State &state)
{
    // Full-detail view of the 10k-host trace: every leaf is a visible
    // node, aggregated per-node in parallel. Bitwise identical to the
    // serial build (the differential suite enforces it).
    const vt::Trace &trace = bigTrace();
    va::HierarchyCut cut(trace);
    std::vector<vt::MetricId> metrics{trace.findMetric("power"),
                                      trace.findMetric("power_used")};
    std::size_t threads = std::size_t(state.range(0));
    for (auto _ : state) {
        va::View v = va::buildView(trace, cut, {0.0, 4.0}, metrics,
                                   va::SpatialOp::Sum,
                                   /*with_stats=*/true, threads);
        benchmark::DoNotOptimize(v);
    }
    state.counters["threads"] = double(threads);
}

void
BM_FairShareSolve(benchmark::State &state)
{
    // n flows over a 500-resource pool, 4 resources per flow: the
    // steady-state load of the Fig. 8 simulation.
    std::size_t n = std::size_t(state.range(0));
    viva::support::Rng rng(11);
    std::vector<double> capacity(500);
    for (auto &c : capacity)
        c = rng.uniform(100.0, 10000.0);
    std::vector<viva::sim::FlowSpec> flows(n);
    std::vector<const std::vector<std::uint32_t> *> ptrs;
    for (auto &f : flows) {
        for (int k = 0; k < 4; ++k)
            f.resources.push_back(std::uint32_t(rng.index(500)));
        ptrs.push_back(&f.resources);
    }
    viva::sim::FairShareSolver solver;
    std::vector<double> rates;
    for (auto _ : state) {
        solver.solve(capacity, ptrs, rates);
        benchmark::DoNotOptimize(rates);
    }
    state.SetComplexityN(state.range(0));
}

} // namespace

BENCHMARK(BM_VariableIntegrate)
    ->RangeMultiplier(8)
    ->Range(64, 262144)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VariableValueAt)->RangeMultiplier(8)->Range(64, 262144);
// depth: 1 = grid, 2 = sites, 3 = clusters, -1 = hosts (leaves).
BENCHMARK(BM_BuildViewAtDepth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(-1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VisibleEdges)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildViewParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_FairShareSolve)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNLogN);

BENCHMARK_MAIN();
