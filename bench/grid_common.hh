/**
 * @file
 * Shared harness code for the Fig. 8 / Fig. 9 benches: the Section 5.2
 * scenario -- two non-cooperative master-worker applications with the
 * bandwidth-centric strategy competing on the 2170-host Grid'5000
 * model. Application 1 is CPU-bound, application 2 has a higher
 * communication-to-computation ratio.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "agg/aggregate.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "workload/masterworker.hh"

namespace bench
{

struct GridOutcome
{
    viva::trace::Trace trace;
    double makespan = 0.0;
    std::size_t solves = 0;
    std::vector<std::size_t> tasksApp1;  ///< per worker index
    std::vector<std::size_t> tasksApp2;
    std::vector<viva::platform::HostId> workers;
};

/** Run the two-application scenario. ~5 s of wall clock at 6000 tasks. */
inline GridOutcome
runGridScenario(viva::workload::MwPolicy policy, std::size_t tasks = 6000)
{
    viva::platform::Platform grid = viva::platform::makeGrid5000();
    viva::sim::SimulationRun run(grid, {"cpubound", "netbound"});

    viva::workload::MwParams p1;
    p1.name = "cpubound";
    p1.master = grid.findHost("adonis-1");      // grenoble
    p1.taskInputMbits = 4.0;
    p1.taskMflop = 60000.0;
    p1.totalTasks = tasks;
    p1.policy = policy;

    viva::workload::MwParams p2;
    p2.name = "netbound";
    p2.master = grid.findHost("sagittaire-1");  // lyon
    p2.taskInputMbits = 60.0;                   // higher comm/comp ratio
    p2.taskMflop = 6000.0;
    p2.totalTasks = tasks;
    p2.policy = policy;

    p1.workers = p2.workers = viva::workload::allHostsExcept(
        grid, {p1.master, p2.master});

    viva::workload::MasterWorkerApp a1(run, p1, 1);
    viva::workload::MasterWorkerApp a2(run, p2, 2);
    a1.start();
    a2.start();
    run.engine.run();

    GridOutcome out;
    out.trace = std::move(run.trace);
    out.trace.ensureClosure();
    out.makespan = run.engine.now();
    out.solves = run.engine.fairShareRuns();
    out.tasksApp1 = a1.result().tasksPerWorker;
    out.tasksApp2 = a2.result().tasksPerWorker;
    out.workers = p1.workers;
    return out;
}

/** Sum of a per-app metric over the hosts below a container. */
inline double
appUsage(const viva::trace::Trace &trace, viva::trace::ContainerId node,
         const std::string &metric, const viva::agg::TimeSlice &slice)
{
    viva::agg::Aggregator agg(trace);
    auto m = trace.findMetric(metric);
    return m == viva::trace::kNoMetric ? 0.0
                                       : agg.value(node, m, slice);
}

/** All site container ids of a mirrored grid trace, in id order. */
inline std::vector<viva::trace::ContainerId>
siteContainers(const viva::trace::Trace &trace)
{
    return trace.containersOfKind(viva::trace::ContainerKind::Site);
}

} // namespace bench

