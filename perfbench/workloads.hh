/**
 * @file
 * The benchmark's three workloads: how each one's trace is generated
 * from a seed, and the seeded analyst script replayed over it.
 */

#pragma once

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace perfbench
{

enum class Workload
{
    Explore,  ///< g5k-explore: simulated Sec. 5.2 trace, mixed gestures
    Scrub,    ///< g5k-scrub: dense utilisation, slice sweeps
    Reshape,  ///< synth10k-reshape: 10k hosts, structural gestures
};

/** Parse a workload name. @retval false when unknown */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** Input sizes and session shape of one run. */
struct Sizing
{
    std::size_t tasks = 0;            ///< explore: tasks per application
    std::size_t hostPoints = 0;       ///< scrub: change points per host
    std::size_t linkPoints = 0;       ///< scrub: change points per link
    std::size_t sites = 0;            ///< reshape: synthetic grid shape
    std::size_t clustersPerSite = 0;
    std::size_t hostsPerCluster = 0;
    std::size_t openIters = 0;        ///< stabilize cap when opening
    std::size_t settleIters = 0;      ///< stabilize cap after a gesture
    std::size_t cutSettleIters = 0;   ///< scrub: after a cut change
    std::size_t sweep = 0;            ///< scrub: frames per host sweep
    std::size_t rounds = 0;           ///< identical-shape script rounds
};

/**
 * Sizing for a workload. `tiny` is the self-test scale; otherwise the
 * round count is chosen so the seed tree's session lasts about
 * `seconds`.
 */
Sizing sizingFor(Workload w, bool tiny, double seconds);

/** A generated workload trace. */
struct GeneratedTrace
{
    viva::trace::Trace trace;
    std::size_t fairShareSolves = 0;  ///< 0 unless simulated
};

/** Generate the workload's trace (deterministic in the seed). */
GeneratedTrace generateTrace(Workload w, std::uint64_t seed,
                             const Sizing &size);

/** File extension the workload's trace is saved with. */
const char *traceExtension(Workload w);

/**
 * The command script: an open block (threads, load, first settle and
 * frame), a "# session" marker, then one "# phase" marker per round
 * and, per gesture, three lines -- the gesture, "render <frame>" and
 * "stabilize <cap>". All rounds share one shape. Deterministic in
 * (workload, seed, sizing).
 */
std::string generateScript(Workload w, std::uint64_t seed,
                           const Sizing &size,
                           const std::string &trace_path,
                           const std::string &frame_path);

} // namespace perfbench
