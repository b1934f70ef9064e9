/**
 * @file
 * Workload generation: traces and analyst scripts.
 */

#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "workload/masterworker.hh"

namespace perfbench
{

namespace
{

using viva::support::Rng;
using viva::trace::ContainerId;
using viva::trace::ContainerKind;
using viva::trace::Trace;

/**
 * Seconds one script round takes on the seed tree (4 cores, 2
 * threads); sizingFor divides the requested run length by these.
 */
constexpr double kExploreRoundS = 1.45;
constexpr double kScrubRoundS = 2.2;
constexpr double kReshapeRoundS = 2.15;

/** The Sec. 5.2 platform's synthetic stand-in at 10k hosts. */
viva::platform::Platform
reshapePlatform(const Sizing &size, std::uint64_t seed)
{
    Rng rng(seed);
    return viva::platform::makeSyntheticGrid(
        size.sites, size.clustersPerSite, size.hostsPerCluster, rng);
}

GeneratedTrace
exploreTrace(std::uint64_t seed, const Sizing &size)
{
    // The Sec. 5.2 scenario: a CPU-bound and a network-bound
    // master-worker application competing on Grid'5000. The seed
    // perturbs task sizes by up to 10%, which moves every fair-share
    // event and so every change point.
    viva::platform::Platform grid = viva::platform::makeGrid5000();
    viva::sim::SimulationRun run(grid, {"cpubound", "netbound"});
    Rng rng(seed);

    viva::workload::MwParams p1;
    p1.name = "cpubound";
    p1.master = grid.findHost("adonis-1");
    p1.taskInputMbits = 4.0 * rng.uniform(0.9, 1.1);
    p1.taskMflop = 60000.0 * rng.uniform(0.9, 1.1);
    p1.totalTasks = size.tasks;

    viva::workload::MwParams p2;
    p2.name = "netbound";
    p2.master = grid.findHost("sagittaire-1");
    p2.taskInputMbits = 60.0 * rng.uniform(0.9, 1.1);
    p2.taskMflop = 6000.0 * rng.uniform(0.9, 1.1);
    p2.totalTasks = size.tasks;

    p1.workers = p2.workers =
        viva::workload::allHostsExcept(grid, {p1.master, p2.master});
    viva::workload::MasterWorkerApp a1(run, p1, 1);
    viva::workload::MasterWorkerApp a2(run, p2, 2);
    a1.start();
    a2.start();
    run.engine.run();

    GeneratedTrace out;
    out.fairShareSolves = run.engine.fairShareRuns();
    out.trace = std::move(run.trace);
    return out;
}

/** Strictly increasing piecewise-constant series of n points. */
void
fillSeries(viva::trace::Variable &var, Rng &rng, std::size_t n,
           double horizon, double peak)
{
    double step = horizon / double(n);
    for (std::size_t i = 0; i < n; ++i)
        var.set((double(i) + rng.uniform(0.0, 0.9)) * step,
                rng.uniform(0.0, peak));
}

GeneratedTrace
scrubTrace(std::uint64_t seed, const Sizing &size)
{
    viva::platform::Platform grid = viva::platform::makeGrid5000();
    GeneratedTrace out;
    viva::platform::TraceMirror m =
        viva::platform::mirrorPlatform(grid, out.trace);
    Rng rng(seed);
    constexpr double horizon = 1000.0;
    for (std::size_t h = 0; h < grid.hostCount(); ++h)
        fillSeries(out.trace.variable(m.hostContainer[h], m.powerUsed),
                   rng, size.hostPoints, horizon,
                   grid.host(viva::platform::HostId::fromIndex(h))
                       .powerMflops);
    for (std::size_t l = 0; l < grid.linkCount(); ++l)
        fillSeries(
            out.trace.variable(m.linkContainer[l], m.bandwidthUsed), rng,
            size.linkPoints, horizon,
            grid.link(viva::platform::LinkId::fromIndex(l)).bandwidthMbps);
    return out;
}

GeneratedTrace
reshapeTrace(std::uint64_t seed, const Sizing &size)
{
    viva::platform::Platform grid = reshapePlatform(size, seed);
    GeneratedTrace out;
    viva::platform::TraceMirror m =
        viva::platform::mirrorPlatform(grid, out.trace);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (std::size_t h = 0; h < grid.hostCount(); ++h)
        out.trace.variable(m.hostContainer[h], m.powerUsed)
            .set(rng.uniform(0.0, 100.0),
                 rng.uniform(0.0, grid.host(viva::platform::HostId::fromIndex(h))
                                      .powerMflops));
    return out;
}

/** Names the script generator draws gesture targets from. */
struct Names
{
    std::vector<std::string> sites;
    std::vector<std::string> clusters;
    std::vector<std::vector<std::string>> hostsOf;  ///< per cluster
};

Names
namesOf(const viva::platform::Platform &p)
{
    Trace t;
    viva::platform::mirrorPlatform(p, t);
    Names n;
    for (ContainerId s : t.containersOfKind(ContainerKind::Site))
        n.sites.push_back(t.container(s).name);
    for (ContainerId c : t.containersOfKind(ContainerKind::Cluster)) {
        n.clusters.push_back(t.container(c).name);
        n.hostsOf.emplace_back();
        for (ContainerId h : t.container(c).children)
            if (t.container(h).kind == ContainerKind::Host)
                n.hostsOf.back().push_back(t.container(h).name);
    }
    return n;
}

std::size_t
pick(Rng &rng, std::size_t n)
{
    return std::size_t(rng.uniformInt(0, std::int64_t(n) - 1));
}

/** A drag target position, printed with a fixed precision. */
std::string
dragTo(Rng &rng)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f %.1f", rng.uniform(-400, 400),
                  rng.uniform(-400, 400));
    return buf;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::Explore, Workload::Scrub, Workload::Reshape})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Explore: return "g5k-explore";
      case Workload::Scrub: return "g5k-scrub";
      case Workload::Reshape: return "synth10k-reshape";
    }
    return "?";
}

Sizing
sizingFor(Workload w, bool tiny, double seconds)
{
    Sizing s;
    double round_s = 1.0;
    switch (w) {
      case Workload::Explore:
        s.tasks = tiny ? 40 : 1500;
        s.openIters = tiny ? 5 : 100;
        s.settleIters = tiny ? 2 : 10;
        round_s = kExploreRoundS;
        break;
      case Workload::Scrub:
        s.hostPoints = tiny ? 10 : 400;
        s.linkPoints = tiny ? 2 : 40;
        s.openIters = tiny ? 5 : 60;
        s.settleIters = 2;
        s.cutSettleIters = tiny ? 4 : 20;
        s.sweep = tiny ? 4 : 24;
        round_s = kScrubRoundS;
        break;
      case Workload::Reshape:
        s.sites = tiny ? 3 : 20;
        s.clustersPerSite = tiny ? 2 : 10;
        s.hostsPerCluster = tiny ? 4 : 50;
        s.openIters = tiny ? 5 : 30;
        s.settleIters = tiny ? 2 : 5;
        round_s = kReshapeRoundS;
        break;
    }
    s.rounds = tiny ? 2
                    : std::max<std::size_t>(
                          2, std::size_t(std::lround(seconds / round_s)));
    return s;
}

GeneratedTrace
generateTrace(Workload w, std::uint64_t seed, const Sizing &size)
{
    switch (w) {
      case Workload::Explore: return exploreTrace(seed, size);
      case Workload::Scrub: return scrubTrace(seed, size);
      case Workload::Reshape: return reshapeTrace(seed, size);
    }
    return {};
}

const char *
traceExtension(Workload w)
{
    return w == Workload::Explore ? ".paje" : ".trace";
}

std::string
generateScript(Workload w, std::uint64_t seed, const Sizing &size,
               const std::string &trace_path, const std::string &frame_path)
{
    std::ostringstream head;
    head << "# perfbench " << workloadName(w) << " seed " << seed << "\n"
        << "set threads 2\n"
        << "load " << trace_path << "\n"
        << "stabilize " << size.openIters << "\n"
        << "render " << frame_path << "\n"
        << "# session\n";
    std::ostringstream out;
    auto gesture = [&](const std::string &line, std::size_t settle) {
        out << line << "\n"
            << "render " << frame_path << "\n"
            << "stabilize " << settle << "\n";
    };

    Rng rng(seed * 0x2545F4914F6CDD1Dull + 1);
    Names names = namesOf(w == Workload::Reshape
                              ? reshapePlatform(size, seed)
                              : viva::platform::makeGrid5000());
    const std::size_t kSlices = 20;
    const std::size_t kFrames = 400;
    // Every round has one shape, so a round's total time stays flat
    // over the session unless cost depends on history (drift_ratio).
    // explore and reshape repeat one seeded round verbatim; scrub sweeps
    // a fresh seeded window of slices in each round.
    std::string fixed_round;
    for (std::size_t r = 0; r < size.rounds; ++r) {
        head << "# phase round-" << r + 1 << "\n";
        if (!fixed_round.empty()) {
            head << fixed_round;
            continue;
        }
        out.str("");
        std::size_t s = size.settleIters;
        switch (w) {
          case Workload::Explore: {
            // Every round starts and ends at host level, and most of
            // its gestures leave the full view up -- the analyst's
            // default -- so the median gesture is a host-level one.
            std::size_t c = pick(rng, names.clusters.size());
            std::size_t site = pick(rng, names.sites.size());
            auto slice = [&] {
                return "slice-of " + std::to_string(pick(rng, kSlices)) +
                       " " + std::to_string(kSlices);
            };
            auto host = [&](std::size_t cluster) {
                const std::vector<std::string> &h = names.hostsOf[cluster];
                return h[pick(rng, h.size())];
            };
            gesture(slice(), s);
            gesture("move " + host(pick(rng, names.clusters.size())) + " " +
                        dragTo(rng), s);
            gesture("focus " + names.clusters[c], s);
            gesture("move " + host(c) + " " + dragTo(rng), s);
            gesture("reset", s);
            gesture("aggregate " + names.sites[site], s);
            gesture(slice(), s);
            gesture("disaggregate " + names.sites[site], s);
            gesture("aggregate " +
                        names.clusters[pick(rng, names.clusters.size())], s);
            gesture(slice(), s);
            gesture("depth 3", s);
            gesture("move " + names.clusters[pick(rng, names.clusters.size())] +
                        " " + dragTo(rng), s);
            gesture("depth 2", s);
            gesture("reset", s);
            gesture(slice(), s);
            break;
          }
          case Workload::Scrub: {
            // Site, cluster, then host-level sweeps of consecutive
            // slices; the cut changes only between sweeps. The host
            // sweep is four times longer, so host-level frames are
            // most of the session and set its median.
            for (const char *level : {"depth 2", "depth 3", "reset"}) {
                gesture(level, size.cutSettleIters);
                std::size_t frames = std::string(level) == "reset"
                                         ? size.sweep
                                         : std::max<std::size_t>(
                                               1, size.sweep / 4);
                std::size_t first = pick(rng, kFrames - frames);
                for (std::size_t f = 0; f < frames; ++f)
                    gesture("slice-of " + std::to_string(first + f) + " " +
                                std::to_string(kFrames), s);
            }
            break;
          }
          case Workload::Reshape: {
            std::string site = names.sites[pick(rng, names.sites.size())];
            gesture("aggregate " + site, s);
            gesture("disaggregate " + site, s);
            gesture("depth 2", s);
            gesture("depth 3", s);
            gesture("depth 4", s);
            gesture("focus " +
                        names.clusters[pick(rng, names.clusters.size())], s);
            gesture("reset", s);
            break;
          }
        }
        if (w != Workload::Scrub)
            fixed_round = out.str();
        head << out.str();
    }
    head << "# end\n";
    return head.str();
}

} // namespace perfbench
