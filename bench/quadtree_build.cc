/**
 * @file
 * Microbenchmarks of the Barnes-Hut quadtree at the paper's 2170-host
 * scale (Grid'5000) and beyond:
 *
 *  - build() (Morton sort + preorder emission into the packed arena --
 *    the per-iteration path of the force layout), both cold (fresh
 *    tree) and warm (arena reused);
 *  - the stackless forceAt walk.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "layout/quadtree.hh"
#include "support/random.hh"

namespace
{

using viva::layout::QuadTree;
using viva::layout::Vec2;

/** A deterministic body cloud of n points (grid-like density). */
std::vector<QuadTree::Body>
makeBodies(std::size_t n)
{
    viva::support::Rng rng(42);
    std::vector<QuadTree::Body> bodies;
    bodies.reserve(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (std::size_t i = 0; i < n; ++i)
        bodies.push_back({{rng.uniform(0.0, extent),
                           rng.uniform(0.0, extent)},
                          rng.uniform(0.5, 4.0)});
    return bodies;
}

void
BM_QuadTreeBuildArenaCold(benchmark::State &state)
{
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (auto _ : state) {
        QuadTree tree;
        tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
        benchmark::DoNotOptimize(tree.cellCount());
    }
    state.SetComplexityN(state.range(0));
}

void
BM_QuadTreeBuildArenaWarm(benchmark::State &state)
{
    // The steady state of an iterating layout: the same tree object
    // rebuilt every step, arena capacity already grown.
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    QuadTree tree;
    tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
    for (auto _ : state) {
        tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
        benchmark::DoNotOptimize(tree.cellCount());
    }
    state.SetComplexityN(state.range(0));
}

void
BM_QuadTreeForce(benchmark::State &state)
{
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    QuadTree tree;
    tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.forceAt(bodies[i].position, 0.8));
        i = (i + 1) % bodies.size();
    }
}

} // namespace

// 2170 is the paper's Grid'5000 host count.
BENCHMARK(BM_QuadTreeBuildArenaCold)
    ->Arg(512)->Arg(2170)->Arg(8192)->Complexity();
BENCHMARK(BM_QuadTreeBuildArenaWarm)
    ->Arg(512)->Arg(2170)->Arg(8192)->Complexity();
BENCHMARK(BM_QuadTreeForce)->Arg(2170);

BENCHMARK_MAIN();
