/**
 * @file
 * Interactive-session benchmark driver.
 *
 * One process, one analyst, closed loop: the driver generates the
 * workload's trace from the seed, saves it, opens it with
 * Session::load and replays a seeded gesture script through
 * app::CommandInterpreter::execute, each command starting when the
 * previous one returned. Every gesture is followed by a frame
 * (`render`) and a settle (`stabilize <cap>`).
 *
 *   viva_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--work <dir>] [--size tiny|full]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 replays the same
 * script twice untraced (a warm-up, then the baseline) and once with a
 * span around every layer call made from this file, and prints the
 * per-layer metrics. The last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 * The trace and the script are left in the work directory. The driver
 * refuses to measure an unoptimized build.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "agg/aggregate.hh"
#include "app/commands.hh"
#include "app/session.hh"
#include "layout/metrics.hh"
#include "layout/quadtree.hh"
#include "spans.hh"
#include "support/invariant.hh"
#include "support/obs.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "trace/io.hh"
#include "trace/paje.hh"
#include "viz/scene.hh"
#include "viz/svg.hh"
#include "workloads.hh"

namespace
{

using namespace viva;
using perfbench::nowNanos;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kThreads = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string work;
    bool tiny = false;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = std::stoi(val);
        else if (key == "--work")
            o.work = val;
        else if (key == "--size")
            o.tiny = val == "tiny";
        else
            return false;
    }
    if (argc % 2 == 0)
        return false;
    if (o.work.empty())
        o.work = ".bench_build/work/" + o.workload;
    return !o.workload.empty() && o.seconds > 0 &&
           (o.trace == 0 || o.trace == 1);
}

// --- honest build -------------------------------------------------------

struct BuildInfo
{
    std::string type = VIVA_BENCH_BUILD_TYPE;
    bool ndebug = false;
    bool optimized = false;
    bool validate = support::validateEnabled();
};

BuildInfo
buildInfo()
{
    BuildInfo b;
#ifdef NDEBUG
    b.ndebug = true;
#endif
#ifdef __OPTIMIZE__
    b.optimized = true;
#endif
    return b;
}

// --- units ------------------------------------------------------------------

using support::Samples;

double ms(std::uint64_t ns) { return double(ns) * 1e-6; }

std::string
number(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

// --- digests ----------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;
    void
    mix(std::uint64_t v)
    {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void
    mix(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }
};

/** Bitwise digest of an aggregated view. */
std::uint64_t
viewDigest(const agg::View &v)
{
    Fnv f;
    f.mix(v.slice.begin);
    f.mix(v.slice.end);
    for (trace::MetricId m : v.metrics)
        f.mix(std::uint64_t(m.value()));
    for (const agg::ViewNode &n : v.nodes) {
        f.mix(std::uint64_t(n.id.value()));
        f.mix(std::uint64_t(n.aggregated));
        f.mix(std::uint64_t(n.leafCount));
        for (double x : n.values)
            f.mix(x);
    }
    for (const agg::ViewEdge &e : v.edges) {
        f.mix(std::uint64_t(e.a.value()));
        f.mix(std::uint64_t(e.b.value()));
        f.mix(std::uint64_t(e.multiplicity));
    }
    return f.h;
}

// --- the script -------------------------------------------------------------

struct Gesture
{
    std::string command;
    std::string render;
    std::string settle;
    std::size_t round = 0;
};

struct Script
{
    std::vector<std::string> open;
    std::vector<Gesture> gestures;
    std::size_t rounds = 0;
};

bool
parseScript(const std::string &text, Script &out)
{
    std::istringstream in(text);
    std::string line;
    bool session = false;
    std::vector<std::string> pending;
    while (std::getline(in, line)) {
        if (line == "# session") {
            session = true;
            continue;
        }
        if (line.rfind("# phase", 0) == 0) {
            ++out.rounds;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        if (!session) {
            out.open.push_back(line);
            continue;
        }
        pending.push_back(line);
        if (pending.size() == 3) {
            if (pending[1].rfind("render ", 0) != 0 ||
                pending[2].rfind("stabilize ", 0) != 0 || out.rounds == 0)
                return false;
            out.gestures.push_back(
                {pending[0], pending[1], pending[2], out.rounds - 1});
            pending.clear();
        }
    }
    return session && pending.empty() && !out.gestures.empty();
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    out.flush();
    return bool(out);
}

bool
readFile(const std::string &path, std::string &bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
    return true;
}

// --- bookkeeping ------------------------------------------------------------

/** Attempted and failed operations; checks count as operations. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAIL %s\n", what.c_str());
        }
    }
};

bool
execute(app::CommandInterpreter &interp, const std::string &line,
        Tally &tally)
{
    std::ostringstream out;
    bool ok = interp.execute(line, out);
    ++tally.attempted;
    if (!ok) {
        ++tally.failed;
        std::printf("FAIL command '%s': %s", line.c_str(), out.str().c_str());
    }
    return ok;
}

struct Paths
{
    std::string trace, script, frame, spans;
};

Paths
pathsIn(const std::string &dir, perfbench::Workload w)
{
    return {dir + "/trace" + perfbench::traceExtension(w),
            dir + "/script.txt", dir + "/frame.svg", dir + "/spans.jsonl"};
}

/** An opened session ready for the first gesture. */
struct Opened
{
    std::unique_ptr<app::Session> session;
    std::unique_ptr<app::CommandInterpreter> interp;
    Script script;
    double setupS = 0.0;
    double openS = 0.0;
    double simMs = 0.0;
    double writeMs = 0.0;
    std::size_t solves = 0;
    std::string scriptText;
    std::string framePath;
};

/** Run the script's open block on a fresh session. @return open time */
double
openSession(Opened &o, Tally &tally, SpanRecorder *rec)
{
    o.session = std::make_unique<app::Session>(trace::Trace());
    o.interp = std::make_unique<app::CommandInterpreter>(*o.session);
    std::uint64_t open_ns = 0;
    for (const std::string &line : o.script.open) {
        bool timed = line.rfind("set ", 0) != 0;
        ScopedSpan span(timed ? rec : nullptr,
                        "open." + support::splitWhitespace(line)[0], -1);
        execute(*o.interp, line, tally);
        if (timed)
            open_ns += span.stop();
    }
    return double(open_ns) * 1e-9;
}

/**
 * Generate, save and open the workload once: trace generation (the
 * simulation for g5k-explore), the file write, the script, and the
 * open block through the first rendered frame.
 */
Opened
setUp(perfbench::Workload w, const Options &opt,
      const perfbench::Sizing &size, const Paths &paths, Tally &tally,
      SpanRecorder *rec)
{
    Opened o;
    ScopedSpan setup(rec, "setup", -1);
    {
        perfbench::GeneratedTrace gen;
        {
            ScopedSpan sim(rec, "sim.run", -1);
            gen = perfbench::generateTrace(w, opt.seed, size);
            o.simMs = ms(sim.stop());
        }
        o.solves = gen.fairShareSolves;
        // A fresh inode: rewriting a truncated file would make ext4
        // start write-back when it is closed.
        std::filesystem::remove(paths.trace);
        ScopedSpan write(rec, "trace.write", -1);
        support::Expected<void> written =
            w == perfbench::Workload::Explore
                ? trace::writePajeTraceFile(gen.trace, paths.trace)
                : trace::writeTraceFile(gen.trace, paths.trace);
        o.writeMs = ms(write.stop());
        tally.check(written.ok(), "write " + paths.trace);
    }
    o.framePath = paths.frame;
    o.scriptText = perfbench::generateScript(w, opt.seed, size, paths.trace,
                                             paths.frame);
    tally.check(writeFile(paths.script, o.scriptText),
                "write " + paths.script);
    std::string replay;
    tally.check(readFile(paths.script, replay) &&
                    parseScript(replay, o.script),
                "parse " + paths.script);
    o.openS = openSession(o, tally, rec);
    o.setupS = double(setup.stop()) * 1e-9;
    return o;
}

/** Every variable indexed and the closure fresh: no fallback path. */
bool
productionPath(const app::Session &s)
{
    const trace::Trace &t = s.trace();
    for (std::size_t c = 0; c < t.containerCount(); ++c)
        for (std::size_t m = 0; m < t.metricCount(); ++m) {
            const trace::Variable *v = t.findVariable(
                trace::ContainerId::fromIndex(c),
                trace::MetricId::fromIndex(m));
            if (v && !v->indexed())
                return false;
        }
    return t.closureFresh();
}

std::uint64_t
counter(const char *name)
{
    support::obs::Registry &reg = support::obs::Registry::global();
    return reg.counterValue(reg.counter(name));
}

/** Audit the session; a non-empty log is a failed check. */
void
audit(const app::Session &s, Tally &tally, const std::string &when)
{
    support::AuditLog log = s.auditInvariants();
    for (std::size_t i = 0; i < log.size() && i < 5; ++i)
        std::printf("  audit: %s\n", log[i].c_str());
    tally.check(log.empty(), "auditInvariants " + when);
}

/** Checks at session end; prints the digests. */
void
finalChecks(app::Session &s, std::uint64_t warm_misses, Tally &tally,
            const char *label)
{
    audit(s, tally, std::string("at session end (") + label + ")");
    tally.check(productionPath(s),
                std::string("indexed variables and fresh closure at end (") +
                    label + ")");
    std::uint64_t misses = counter("agg.closure.misses");
    tally.check(misses == warm_misses,
                "agg.closure.misses grew after warm-up: " +
                    std::to_string(warm_misses) + " -> " +
                    std::to_string(misses));
    agg::View configured = s.view();
    agg::View serial = agg::buildView(
        s.trace(), s.cut(), s.timeSlice(),
        s.mapping().referencedMetrics(),
        agg::SpatialOp::Sum, false, 1);
    std::uint64_t vd = viewDigest(configured);
    tally.check(vd == viewDigest(serial),
                "view at 1 thread differs from the view at " +
                    std::to_string(s.threads()) + " threads");
    std::printf("digest %s state=%016llx view=%016llx nodes=%zu\n", label,
                static_cast<unsigned long long>(s.stateDigest()),
                static_cast<unsigned long long>(vd), configured.nodes.size());
}

struct SessionTimes
{
    Samples gestureMs;  ///< per gesture, in script order
    Samples settleMs;
    double sessionS = 0.0;
};

/** Total (gesture + settle) time of each round, in ms. */
std::vector<double>
roundTotals(const Script &script, const SessionTimes &t)
{
    std::vector<double> totals(script.rounds, 0.0);
    for (std::size_t i = 0; i < script.gestures.size(); ++i)
        totals[script.gestures[i].round] +=
            t.gestureMs.data()[i] + t.settleMs.data()[i];
    return totals;
}

/**
 * drift_ratio. Every round has the same shape, so its total time stays
 * flat when a gesture's cost depends only on what is visible. A
 * Theil-Sen line (median pairwise slope, median intercept) through the
 * per-round totals is evaluated at the middle of the last tenth of the
 * session and divided by its value at the middle of the first tenth:
 * 1.0 means no drift. Fitting every round keeps one slow round at either
 * end from deciding the ratio, which it did when only the end rounds
 * were compared.
 */
double
driftRatio(const std::vector<double> &totals)
{
    const std::size_t n = totals.size();
    Samples slopes;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            slopes.add((totals[j] - totals[i]) / double(j - i));
    const double slope = slopes.median();
    Samples intercepts;
    for (std::size_t i = 0; i < n; ++i)
        intercepts.add(totals[i] - slope * double(i));
    const double intercept = intercepts.median();
    // Round i spans [i, i + 1); a tenth's middle is 0.05 n from its end.
    auto at = [&](double x) { return intercept + slope * (x - 0.5); };
    return at(0.95 * double(n)) / at(0.05 * double(n));
}

/** Per-round totals, per-kind medians and the layout-graph size. */
void
printBreakdown(const Opened &o, const SessionTimes &t)
{
    std::vector<double> totals = roundTotals(o.script, t);
    std::printf("round totals ms:");
    for (double x : totals)
        std::printf(" %.1f", x);
    std::printf("\ndrift_ratio %.4f\n", driftRatio(totals));
    std::map<std::string, std::pair<Samples, Samples>> by_kind;
    for (std::size_t i = 0; i < o.script.gestures.size(); ++i) {
        auto &[g, st] = by_kind[support::splitWhitespace(
            o.script.gestures[i].command)[0]];
        g.add(t.gestureMs.data()[i]);
        st.add(t.settleMs.data()[i]);
    }
    for (const auto &[kind, gs] : by_kind)
        std::printf("kind %-12s n=%-4zu gesture_p50_ms=%.3f settle_p50_ms=%.3f\n",
                    kind.c_str(), gs.first.count(), gs.first.median(),
                    gs.second.median());
    const layout::LayoutGraph &g = o.session->layoutGraph();
    std::printf("layout graph live_nodes=%zu slots=%zu\n", g.nodeCount(),
                g.rawNodes().size());
}

/** The untraced closed-loop replay. */
SessionTimes
replay(Opened &o, Tally &tally)
{
    SessionTimes t;
    std::uint64_t audit_ns = 0;
    std::uint64_t begin = nowNanos();
    std::size_t round = 0;
    for (const Gesture &g : o.script.gestures) {
        if (g.round != round) {
            std::uint64_t a = nowNanos();
            audit(*o.session, tally,
                  "after round " + std::to_string(round + 1));
            audit_ns += nowNanos() - a;
            round = g.round;
        }
        // Each frame goes to a fresh file: rewriting a truncated file
        // makes ext4 start write-back on close, which would time the
        // disk instead of the renderer.
        std::filesystem::remove(o.framePath);
        std::uint64_t t0 = nowNanos();
        execute(*o.interp, g.command, tally);
        execute(*o.interp, g.render, tally);
        std::uint64_t t1 = nowNanos();
        execute(*o.interp, g.settle, tally);
        std::uint64_t t2 = nowNanos();
        t.gestureMs.add(ms(t1 - t0));
        t.settleMs.add(ms(t2 - t1));
    }
    t.sessionS = double(nowNanos() - begin - audit_ns) * 1e-9;
    printBreakdown(o, t);
    return t;
}

// --- the traced replay ---------------------------------------------------

/** Per-layer samples of the traced replay. */
struct LayerSamples
{
    std::map<std::string, Samples> appMs;  ///< per gesture kind
    Samples cutMs, edgesMs, syncMs;        ///< per gesture
    Samples buildViewMs, sceneMs, svgMs, svgBytes;
    Samples sliceQueryNs;
    Samples stepMs, quadtreeMs, settleIters;
    double sweepSlotGrowth = 0.0;
    double sessionS = 0.0;
};

trace::ContainerId
resolve(const trace::Trace &t, const std::string &ref)
{
    trace::ContainerId id = t.findByPath(ref);
    return id == trace::kNoContainer ? t.findByName(ref) : id;
}

/**
 * Replay the script calling each layer directly, with a span around
 * every call. Probes that re-run work the session does privately (the
 * cut on a copy, visibleEdges, the quadtree build, the slice-query
 * sweep) run outside the gesture spans, are left out of the traced
 * session time and leave the session untouched, so the traced replay
 * follows the same session as the untraced one.
 */
LayerSamples
tracedReplay(Opened &o, Tally &tally, SpanRecorder &rec)
{
    LayerSamples out;
    app::Session &s = *o.session;
    const trace::Trace &t = s.trace();

    std::vector<const trace::Variable *> host_vars;
    for (trace::ContainerId h : t.containersOfKind(trace::ContainerKind::Host))
        for (std::size_t m = 0; m < t.metricCount(); ++m)
            if (const trace::Variable *v =
                    t.findVariable(h, trace::MetricId::fromIndex(m)))
                host_vars.push_back(v);

    std::uint64_t excluded_ns = 0;
    std::uint64_t begin = nowNanos();
    std::size_t round = 0;
    for (std::size_t gi = 0; gi < o.script.gestures.size(); ++gi) {
        const Gesture &g = o.script.gestures[gi];
        const long id = long(gi);
        if (g.round != round) {
            std::uint64_t a = nowNanos();
            audit(s, tally, "after traced round " + std::to_string(round + 1));
            excluded_ns += nowNanos() - a;
            round = g.round;
        }

        // --- the gesture ---------------------------------------------
        std::vector<std::string> a = support::splitWhitespace(g.command);
        const std::string &kind = a[0];
        std::function<void(agg::HierarchyCut &)> on_cut;
        trace::ContainerId target =
            a.size() > 1 ? resolve(t, a[1]) : trace::kNoContainer;
        if (kind == "focus")
            on_cut = [&](agg::HierarchyCut &c) { c.focus({target}); };
        else if (kind == "aggregate")
            on_cut = [&](agg::HierarchyCut &c) { c.aggregate(target); };
        else if (kind == "disaggregate")
            on_cut = [&](agg::HierarchyCut &c) { c.disaggregate(target); };
        else if (kind == "reset")
            on_cut = [](agg::HierarchyCut &c) { c.reset(); };
        else if (kind == "depth")
            on_cut = [&](agg::HierarchyCut &c) {
                c.aggregateToDepth(std::uint16_t(std::stoul(a[1])));
            };

        double cut_ms = 0.0, edges_ms = 0.0;
        if (on_cut) {
            std::uint64_t p = nowNanos();
            agg::HierarchyCut copy = s.cut();
            {
                ScopedSpan span(&rec, "agg.cut", id);
                on_cut(copy);
                cut_ms = ms(span.stop());
            }
            {
                ScopedSpan span(&rec, "agg.visible_edges", id);
                std::vector<agg::ViewEdge> edges = agg::visibleEdges(t, copy);
                edges_ms = ms(span.stop());
                tally.check(!edges.empty() || copy.visibleCount() == 1,
                            "visibleEdges on the gesture's cut");
            }
            excluded_ns += nowNanos() - p;
        }
        std::size_t slots_before = s.layoutGraph().rawNodes().size();
        bool ok = true;
        double gesture_ms = 0.0;
        {
            ScopedSpan span(&rec, "app." + kind, id);
            if (kind == "slice-of")
                s.setSliceOf(agg::SliceIndex::fromIndex(std::stoul(a[1])),
                             std::stoul(a[2]));
            else if (kind == "move")
                ok = s.moveNode(a[1], std::stod(a[2]), std::stod(a[3]));
            else if (kind == "focus")
                ok = s.focus(a[1]);
            else if (kind == "aggregate")
                ok = s.aggregate(a[1]);
            else if (kind == "disaggregate")
                ok = s.disaggregate(a[1]);
            else if (kind == "reset")
                s.resetAggregation();
            else if (kind == "depth")
                s.aggregateToDepth(std::uint16_t(std::stoul(a[1])));
            else
                ok = false;
            gesture_ms = ms(span.stop());
        }
        tally.check(ok, "traced gesture '" + g.command + "'");
        out.appMs[kind].add(gesture_ms);
        out.cutMs.add(cut_ms);
        out.edgesMs.add(edges_ms);
        out.syncMs.add(on_cut ? gesture_ms - cut_ms - edges_ms : 0.0);
        if (kind == "slice-of")
            out.sweepSlotGrowth +=
                double(s.layoutGraph().rawNodes().size() - slots_before);

        // --- the frame -------------------------------------------------
        std::filesystem::remove(o.framePath);
        {
            ScopedSpan frame(&rec, "viz.frame", id);
            agg::View v;
            {
                ScopedSpan span(&rec, "agg.build_view", id);
                v = agg::buildView(t, s.cut(), s.timeSlice(),
                                   s.mapping().referencedMetrics(),
                                   agg::SpatialOp::Sum, false, s.threads());
                out.buildViewMs.add(ms(span.stop()));
            }
            viz::Scene scene;
            {
                ScopedSpan span(&rec, "viz.scene", id);
                layout::Snapshot positions =
                    layout::snapshotPositions(s.layoutGraph());
                scene = viz::composeScene(v, t, positions, s.mapping(),
                                          s.scaling());
                out.sceneMs.add(ms(span.stop()));
            }
            {
                ScopedSpan span(&rec, "viz.svg", id);
                std::string path = support::splitWhitespace(g.render)[1];
                support::Expected<void> written =
                    viz::writeSvgFile(scene, path);
                out.svgMs.add(ms(span.stop()));
                tally.check(written.ok(), "traced frame " + path);
                if (written.ok())
                    out.svgBytes.add(
                        double(std::filesystem::file_size(path)));
            }
        }
        {
            std::uint64_t p = nowNanos();
            ScopedSpan span(&rec, "trace.slice_query", id);
            double sum = 0.0;
            for (const trace::Variable *v : host_vars)
                sum += v->integrate(s.timeSlice());
            std::uint64_t ns = span.stop();
            tally.check(std::isfinite(sum), "slice-query sweep is finite");
            if (!host_vars.empty())
                out.sliceQueryNs.add(double(ns) /
                                           double(host_vars.size()));
            excluded_ns += nowNanos() - p;
        }

        // --- the settle ------------------------------------------------
        {
            std::size_t cap = std::stoul(support::splitWhitespace(g.settle)[1]);
            ScopedSpan span(&rec, "layout.settle", id);
            support::Expected<std::size_t> iters = s.stabilizeLayout(cap);
            const double settle_ms = ms(span.stop());
            tally.check(iters.ok(), "traced settle");
            out.settleIters.add(iters.ok() ? double(*iters) : 0.0);
            // One force step: the settle divided by its iterations. A
            // settle that stopped at once has no step to divide by.
            if (iters.ok() && *iters > 0)
                out.stepMs.add(settle_ms / double(*iters));
        }
        {
            std::uint64_t p = nowNanos();
            std::vector<layout::QuadTree::Body> bodies;
            layout::Vec2 lo{1e300, 1e300}, hi{-1e300, -1e300};
            for (const layout::Node &n : s.layoutGraph().rawNodes()) {
                if (!n.alive)
                    continue;
                bodies.push_back({n.position, n.charge});
                lo.x = std::min(lo.x, n.position.x);
                lo.y = std::min(lo.y, n.position.y);
                hi.x = std::max(hi.x, n.position.x);
                hi.y = std::max(hi.y, n.position.y);
            }
            double pad = std::max({hi.x - lo.x, hi.y - lo.y, 1.0}) * 0.05;
            layout::QuadTree tree;
            {
                ScopedSpan span(&rec, "layout.quadtree_build", id);
                tree.build({lo.x - pad, lo.y - pad}, {hi.x + pad, hi.y + pad},
                           bodies);
                out.quadtreeMs.add(ms(span.stop()));
            }
            tally.check(tree.pointCount() == bodies.size(),
                        "quadtree holds every live node");
            excluded_ns += nowNanos() - p;
        }
    }
    out.sessionS = double(nowNanos() - begin - excluded_ns) * 1e-9;
    return out;
}

// --- output ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %14s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/** Print per-span-name self time (the traced run's layer breakdown). */
void
printSelfTimes(const SpanRecorder &rec)
{
    std::map<std::string, std::pair<std::size_t, double>> by_name;
    std::vector<std::uint64_t> self = rec.selfTimes();
    for (std::size_t i = 0; i < self.size(); ++i) {
        auto &[count, total] = by_name[rec.spans()[i].name];
        ++count;
        total += ms(self[i]);
    }
    std::printf("self time by span (ms):\n");
    for (const auto &[name, ct] : by_name)
        std::printf("  %-24s n=%-6zu self=%.3f\n", name.c_str(), ct.first,
                    ct.second);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    perfbench::Workload w;
    bool parsed = false;
    try {
        parsed = parseOptions(argc, argv, opt);
    } catch (const std::exception &) {
        parsed = false;
    }
    if (!parsed || !parseWorkload(opt.workload, w)) {
        std::fprintf(stderr,
                     "usage: viva_perfbench --workload "
                     "g5k-explore|g5k-scrub|synth10k-reshape --seed N "
                     "--seconds S --trace 0|1 "
                     "[--work DIR] [--size tiny|full]\n");
        return 2;
    }
    perfbench::Sizing size = perfbench::sizingFor(w, opt.tiny, opt.seconds);

    BuildInfo b = buildInfo();
    std::printf("build type=%s ndebug=%d optimized=%d validate=%d "
                "compiler=\"%s\" threads=%zu nproc=%u seed=%llu "
                "workload=%s rounds=%zu\n",
                b.type.c_str(), int(b.ndebug), int(b.optimized),
                int(b.validate), VIVA_BENCH_COMPILER, kThreads,
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(opt.seed),
                perfbench::workloadName(w), size.rounds);
    if (!b.ndebug || !b.optimized || b.validate ||
        (b.type != "Release" && b.type != "RelWithDebInfo")) {
        std::fprintf(stderr, "refusing to measure an unoptimized or "
                             "validate build\n");
        return 3;
    }

    std::filesystem::create_directories(opt.work);
    Paths paths = pathsIn(opt.work, w);
    Tally tally;
    SpanRecorder rec;
    SpanRecorder *tracer = opt.trace ? &rec : nullptr;

    // Set-up runs several times; the last one's session is replayed.
    Opened o;
    Samples setups, opens;
    const std::size_t repeats = opt.trace ? 1 : kSetupRepeats;
    for (std::size_t r = 0; r < repeats; ++r) {
        std::string previous = o.scriptText;
        o = Opened();
        // Flush earlier runs' files so no write-back overlaps a timing.
        ::sync();
        o = setUp(w, opt, size, paths, tally, tracer);
        setups.add(o.setupS);
        opens.add(o.openS);
        std::printf("setup %zu: %.3f s = sim %.1f ms + write %.1f ms + "
                    "open %.1f ms + rest\n",
                    r + 1, o.setupS, o.simMs, o.writeMs, o.openS * 1e3);
        if (r > 0)
            tally.check(o.scriptText == previous,
                        "script is identical across set-ups");
    }
    ::sync();
    tally.check(productionPath(*o.session),
                "indexed variables and fresh closure after open");
    const std::uint64_t warm_misses = counter("agg.closure.misses");

    std::vector<Metric> metrics;
    if (!opt.trace) {
        SessionTimes t = replay(o, tally);
        finalChecks(*o.session, warm_misses, tally, "session");
        std::printf("samples gestures=%zu settles=%zu setups=%zu\n",
                    t.gestureMs.count(), t.settleMs.count(), setups.count());
        metrics = {
            {"setup_s", setups.median(), "s"},
            {"open_s", opens.median(), "s"},
            {"gesture_p50_ms", t.gestureMs.quantile(0.5), "ms"},
            {"gesture_p95_ms", t.gestureMs.quantile(0.95), "ms"},
            {"settle_p50_ms", t.settleMs.quantile(0.5), "ms"},
            {"settle_p95_ms", t.settleMs.quantile(0.95), "ms"},
            {"session_s", t.sessionS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            // Add-one smoothing keeps the ratio above zero; a single
            // failure doubles it, which any bound flags.
            {"fail_ratio",
             double(tally.failed + 1) / double(tally.attempted + 1),
             "ratio"},
        };
        printResult(tally, metrics);
        return 0;
    }

    // --- traced run ----------------------------------------------------------
    double read_ms = 0.0;
    std::size_t points = 0;
    {
        ScopedSpan span(&rec, "trace.read", -1);
        if (w == perfbench::Workload::Explore) {
            support::Expected<trace::PajeImport> in =
                trace::readPajeTraceFile(paths.trace);
            tally.check(in.ok(), "readPajeTraceFile");
            points = in.ok() ? in->trace.pointCount() : 0;
        } else {
            support::Expected<trace::Trace> in =
                trace::readTraceFile(paths.trace);
            tally.check(in.ok(), "readTraceFile");
            points = in.ok() ? in->pointCount() : 0;
        }
        read_ms = ms(span.stop());
    }

    // The traced replay is not the process's first: the first replay
    // grows the heap from nothing and pays page faults that later ones
    // do not. So the untraced baseline is a second replay too, on a
    // re-opened session, after a first one that only warms up.
    replay(o, tally);
    finalChecks(*o.session, warm_misses, tally, "warm-up");
    o.openS = openSession(o, tally, nullptr);
    const std::uint64_t reopened_misses = counter("agg.closure.misses");
    SessionTimes untraced = replay(o, tally);
    finalChecks(*o.session, reopened_misses, tally, "untraced");

    o.openS = openSession(o, tally, &rec);
    const std::uint64_t values0 = counter("agg.values");
    const std::uint64_t hits0 = counter("agg.closure.hits");
    const std::uint64_t misses0 = counter("agg.closure.misses");
    LayerSamples l = tracedReplay(o, tally, rec);
    const double values = double(counter("agg.values") - values0);
    const double hits = double(counter("agg.closure.hits") - hits0);
    const double misses = double(counter("agg.closure.misses") - misses0);
    finalChecks(*o.session, counter("agg.closure.misses"), tally, "traced");
    tally.check(misses == 0.0, "no closure misses in the traced replay");

    const layout::LayoutGraph &graph = o.session->layoutGraph();
    auto gesture_ms = [&](const char *kind) {
        auto it = l.appMs.find(kind);
        return it == l.appMs.end() ? 0.0 : it->second.median();
    };
    metrics = {
        {"sim.run_ms", o.simMs, "ms"},
        {"sim.fairshare_solves", double(o.solves), "count"},
        {"trace.write_ms", o.writeMs, "ms"},
        {"trace.read_ms", read_ms, "ms"},
        {"trace.points", double(points), "count"},
        {"trace.slice_query_ns", l.sliceQueryNs.median(), "ns"},
        {"agg.cut_ms", l.cutMs.mean(), "ms"},
        {"agg.visible_edges_ms", l.edgesMs.mean(), "ms"},
        {"agg.build_view_ms", l.buildViewMs.median(), "ms"},
        {"agg.values", values, "count"},
        {"agg.closure_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "ratio"},
        {"layout.sync_ms", l.syncMs.mean(), "ms"},
        {"layout.graph_slots", double(graph.rawNodes().size()), "count"},
        {"layout.live_slot_ratio",
         double(graph.nodeCount()) / double(graph.rawNodes().size()), "ratio"},
        {"layout.sweep_slot_growth", l.sweepSlotGrowth, "count"},
        {"layout.step_ms", l.stepMs.median(), "ms"},
        {"layout.quadtree_build_ms", l.quadtreeMs.median(), "ms"},
        {"layout.settle_iters", l.settleIters.median(), "count"},
        {"viz.scene_ms", l.sceneMs.median(), "ms"},
        {"viz.svg_ms", l.svgMs.median(), "ms"},
        {"viz.svg_bytes", l.svgBytes.median(), "bytes"},
        {"app.focus_ms", gesture_ms("focus"), "ms"},
        {"app.aggregate_ms", gesture_ms("aggregate"), "ms"},
        {"app.disaggregate_ms", gesture_ms("disaggregate"), "ms"},
        {"app.depth_ms", gesture_ms("depth"), "ms"},
        {"app.reset_ms", gesture_ms("reset"), "ms"},
        {"app.slice_ms", gesture_ms("slice-of"), "ms"},
        {"app.move_ms", gesture_ms("move"), "ms"},
        {"app.working_set_bytes", double(o.session->workingSetBytes()),
         "bytes"},
        // Measured on the untraced replay: the probes perturb timing.
        {"app.drift_ratio", driftRatio(roundTotals(o.script, untraced)),
         "ratio"},
        {"bench.trace_overhead_s", l.sessionS - untraced.sessionS, "s"},
    };
    printSelfTimes(rec);
    std::printf("session untraced=%.3fs traced=%.3fs spans=%zu\n",
                untraced.sessionS, l.sessionS, rec.spans().size());
    tally.check(rec.write(paths.spans), "write " + paths.spans);
    printResult(tally, metrics);
    return 0;
}
