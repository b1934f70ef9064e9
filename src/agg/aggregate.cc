/**
 * @file
 * Implementation of spatial/temporal aggregation.
 */

#include "agg/aggregate.hh"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <span>

#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"

namespace viva::agg
{

namespace obs = support::obs;

using trace::ContainerId;
using trace::MetricId;

namespace
{

/**
 * Carriers per reduction chunk. A subtree's value folds left to right
 * inside each chunk and the chunk partials combine in order: the
 * association every released result (goldens, state digests) was
 * computed with, so changing it would change their last bits. Up to
 * kLeafChunk carriers reduce in one chunk, i.e. plain left to right.
 */
constexpr std::size_t kLeafChunk = 64;

/** The temporal reduction of one variable over a slice. */
double
reduce(const trace::Variable &var, const TimeSlice &slice, TemporalOp top)
{
    switch (top) {
      case TemporalOp::Average:
        return var.average(slice);
      case TemporalOp::Integral:
        return var.integrate(slice);
    }
    return 0.0;
}

/** Partial spatial reduction of one chunk of subtree members. */
struct Partial
{
    bool any = false;
    double acc = 0.0;
    std::size_t count = 0;
};

/** Fold one value into a partial (left-to-right within the chunk). */
void
fold(Partial &p, double v, SpatialOp op)
{
    ++p.count;
    if (!p.any) {
        p.acc = v;
        p.any = true;
        return;
    }
    switch (op) {
      case SpatialOp::Sum:
      case SpatialOp::Average:
        p.acc += v;
        break;
      case SpatialOp::Max:
        p.acc = std::max(p.acc, v);
        break;
      case SpatialOp::Min:
        p.acc = std::min(p.acc, v);
        break;
    }
}

/** Chunk-order partial combiner. */
Partial
combinePartials(Partial a, Partial b, SpatialOp op)
{
    if (!b.any)
        return a;
    if (!a.any)
        return b;
    fold(a, b.acc, op);
    a.count += b.count - 1;  // fold counted b as one value
    return a;
}

/**
 * Equation 1 over a subtree's carriers: temporal reductions folded in
 * kLeafChunk chunks, the partials combined in chunk order.
 */
double
foldCarriers(std::span<const trace::Variable *const> carried,
             const TimeSlice &slice, SpatialOp op, TemporalOp top)
{
    Partial total;
    for (std::size_t lo = 0; lo < carried.size(); lo += kLeafChunk) {
        const std::size_t hi = std::min(carried.size(), lo + kLeafChunk);
        Partial p;
        for (std::size_t i = lo; i < hi; ++i)
            fold(p, reduce(*carried[i], slice, top), op);
        total = combinePartials(total, p, op);
    }
    if (!total.any)
        return 0.0;
    if (op == SpatialOp::Average)
        return total.acc / double(total.count);
    return total.acc;
}

} // namespace

Aggregator::Aggregator(const trace::Trace &trace)
    : tr(&trace),
      valuesCounter(obs::Registry::global().counter("agg.values"))
{
}

double
Aggregator::value(ContainerId node, MetricId m, const TimeSlice &slice,
                  SpatialOp op, TemporalOp top) const
{
    // Counted but deliberately not timed: one Eq.-1 fold can be a few
    // hundred nanoseconds, so a timer here would dominate the quantity
    // being measured. buildView() counts its values in bulk and times
    // the enclosing pass instead.
    obs::Registry &reg = obs::Registry::global();
    if (reg.enabled())
        reg.add(valuesCounter);

    // Every container in the subtree that carries the variable
    // contributes -- not just leaves, since traces may attach
    // measurements at any level (hosts with process children, say).
    return foldCarriers(tr->carriers(node, m), slice, op, top);
}

support::Samples
Aggregator::distribution(ContainerId node, MetricId m,
                         const TimeSlice &slice, TemporalOp top) const
{
    support::Samples samples;
    for (const trace::Variable *var : tr->carriers(node, m))
        samples.add(reduce(*var, slice, top));
    return samples;
}

const std::vector<ViewEdge> &
visibleEdges(const trace::Trace &trace, const HierarchyCut &cut)
{
    VIVA_ASSERT(&trace == &cut.trace(), "cut belongs to another trace");
    return cut.visibleEdges();
}

std::size_t
View::indexOf(ContainerId id) const
{
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].id == id)
            return i;
    return npos;
}

double
View::valueOf(ContainerId id, MetricId m) const
{
    std::size_t node = indexOf(id);
    if (node == npos)
        return 0.0;
    for (std::size_t k = 0; k < metrics.size(); ++k)
        if (metrics[k] == m)
            return nodes[node].values[k];
    return 0.0;
}

support::Expected<View>
buildView(const trace::Trace &trace, const HierarchyCut &cut,
          const TimeSlice &slice,
          const std::vector<MetricRequest> &requests, bool with_stats,
          std::size_t threads, Deadline deadline)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("agg.build_view");
    static const obs::CounterId values = reg.counter("agg.values");
    obs::ScopedPhase timer(phase);
    support::ResourceGovernor &governor = support::ResourceGovernor::global();

    View view;
    view.slice = slice;
    view.requests = requests;
    view.metrics.reserve(requests.size());
    for (const MetricRequest &r : requests)
        view.metrics.push_back(r.metric);

    // One slot per visible node, filled by exactly one worker: the
    // parallel build writes the same bits the serial one would, in the
    // same node order, for every thread count. The fold is serial, so
    // this is the only parallel level. A polling worker latches an
    // expired deadline and skips the rest of its range.
    std::span<const ContainerId> visible = cut.visibleNodes();
    view.nodes.resize(visible.size());
    Aggregator agg(trace);
    std::atomic<bool> aborted{false};
    support::ThreadPool::global().parallelFor(
        0, visible.size(), 1, threads,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                if (deadline == Deadline::Poll &&
                    (aborted.load(std::memory_order_relaxed) ||
                     governor.deadlineExpired())) {
                    aborted.store(true, std::memory_order_relaxed);
                    return;
                }
                ContainerId id = visible[i];
                ViewNode &node = view.nodes[i];
                node.id = id;
                node.aggregated = !trace.container(id).leaf();
                node.leafCount = trace.cachedLeafCount(id);
                node.values.reserve(requests.size());
                for (const MetricRequest &r : requests) {
                    if (with_stats) {
                        support::Samples s = agg.distribution(
                            id, r.metric, slice, r.temporal);
                        double v = 0.0;
                        switch (r.spatial) {
                          case SpatialOp::Sum: v = s.sum(); break;
                          case SpatialOp::Average: v = s.mean(); break;
                          case SpatialOp::Max: v = s.max(); break;
                          case SpatialOp::Min: v = s.min(); break;
                        }
                        node.values.push_back(v);
                        node.stats.push_back({s.variance(), s.median(),
                                              s.min(), s.max()});
                    } else {
                        node.values.push_back(
                            foldCarriers(trace.carriers(id, r.metric),
                                         slice, r.spatial, r.temporal));
                    }
                }
            }
        });

    // A deadline that trips after the last node still aborts: a
    // polling caller wants the budget honoured, not a lucky result.
    if (deadline == Deadline::Poll &&
        (aborted.load(std::memory_order_relaxed) ||
         governor.deadlineExpired())) {
        governor.noteDeadlineAbort();
        return VIVA_ERROR(support::Errc::Deadline, "aggregation over ",
                          visible.size(),
                          " visible nodes ran past its deadline");
    }
    if (!with_stats && reg.enabled())
        reg.add(values, visible.size() * requests.size());
    view.edges = cut.visibleEdges();
    return view;
}

View
buildView(const trace::Trace &trace, const HierarchyCut &cut,
          const TimeSlice &slice,
          const std::vector<trace::MetricId> &metrics, SpatialOp op,
          bool with_stats, std::size_t threads)
{
    return buildView(trace, cut, slice, requestsFor(metrics, op),
                     with_stats, threads)
        .value();
}

std::vector<MetricRequest>
requestsFor(const std::vector<trace::MetricId> &metrics, SpatialOp op)
{
    std::vector<MetricRequest> requests;
    requests.reserve(metrics.size());
    for (trace::MetricId m : metrics)
        requests.emplace_back(m, op);
    return requests;
}

void
writeViewCsv(const View &view, const trace::Trace &trace,
             std::ostream &out)
{
    using support::formatDouble;

    bool with_stats =
        !view.nodes.empty() && !view.nodes[0].stats.empty();

    out << "container,kind,aggregated,leaves,slice_begin,slice_end";
    for (trace::MetricId m : view.metrics) {
        const std::string &name = trace.metric(m).name;
        out << ',' << name;
        if (with_stats)
            out << ',' << name << "_variance," << name << "_median,"
                << name << "_min," << name << "_max";
    }
    out << '\n';

    for (const ViewNode &node : view.nodes) {
        const trace::Container &c = trace.container(node.id);
        out << '"' << trace.fullName(node.id) << "\","
            << containerKindName(c.kind) << ','
            << (node.aggregated ? 1 : 0) << ',' << node.leafCount << ','
            << formatDouble(view.slice.begin) << ','
            << formatDouble(view.slice.end);
        for (std::size_t k = 0; k < node.values.size(); ++k) {
            out << ',' << formatDouble(node.values[k]);
            if (with_stats) {
                const ValueStats &s = node.stats[k];
                out << ',' << formatDouble(s.variance) << ','
                    << formatDouble(s.median) << ','
                    << formatDouble(s.min) << ',' << formatDouble(s.max);
            }
        }
        out << '\n';
    }
}

support::AuditLog
auditView(const trace::Trace &trace, const HierarchyCut &cut,
          const View &view)
{
    using support::auditFail;
    using support::nearlyEqual;

    // Equation-1 conservation tolerance: the serial recomputation must
    // reproduce every aggregated value to full double precision.
    constexpr double kTol = 1e-12;

    support::AuditLog log;
    if (view.metrics.size() != view.requests.size())
        auditFail(log, "view lists ", view.metrics.size(),
                  " metrics for ", view.requests.size(), " requests");
    for (std::size_t k = 0;
         k < std::min(view.metrics.size(), view.requests.size()); ++k)
        if (view.metrics[k] != view.requests[k].metric)
            auditFail(log, "metric column ", k,
                      " disagrees with its request");

    std::span<const ContainerId> visible = cut.visibleNodes();
    if (view.nodes.size() != visible.size()) {
        auditFail(log, "view holds ", view.nodes.size(),
                  " nodes for ", visible.size(), " visible containers");
        return log;
    }

    Aggregator serial(trace);  // the reference fold, off the pool
    for (std::size_t i = 0; i < view.nodes.size(); ++i) {
        const ViewNode &node = view.nodes[i];
        if (node.id != visible[i]) {
            auditFail(log, "node ", i, " is container ", node.id,
                      " instead of ", visible[i]);
            continue;
        }
        bool aggregated = !trace.container(node.id).leaf();
        if (node.aggregated != aggregated)
            auditFail(log, "node ", i, " ('", trace.fullName(node.id),
                      "') has a wrong aggregated flag");
        std::vector<ContainerId> members = trace.subtree(node.id);
        std::size_t leaves = std::size_t(
            std::count_if(members.begin(), members.end(),
                          [&](ContainerId c) {
                              return trace.container(c).leaf();
                          }));
        if (node.leafCount != leaves)
            auditFail(log, "node ", i, " covers ", node.leafCount,
                      " leaves instead of ", leaves);
        if (node.values.size() != view.requests.size()) {
            auditFail(log, "node ", i, " carries ", node.values.size(),
                      " values for ", view.requests.size(), " requests");
            continue;
        }
        if (!node.stats.empty() &&
            node.stats.size() != view.requests.size())
            auditFail(log, "node ", i, " carries ", node.stats.size(),
                      " stat blocks for ", view.requests.size(),
                      " requests");
        for (std::size_t k = 0; k < view.requests.size(); ++k) {
            const MetricRequest &r = view.requests[k];
            if (!std::isfinite(node.values[k])) {
                auditFail(log, "node ", i, " metric ", k,
                          " is non-finite");
                continue;
            }
            double expect = serial.value(node.id, r.metric, view.slice,
                                         r.spatial, r.temporal);
            if (!nearlyEqual(node.values[k], expect, kTol))
                auditFail(log, "node ", i, " ('",
                          trace.fullName(node.id), "') metric ", k,
                          ": value ", node.values[k],
                          " != serial recomputation ", expect,
                          " (Equation-1 conservation)");
        }
    }

    // Edges: exactly the cut's projection (whose own audit checks it
    // against the flags), between nodes of the view.
    if (view.edges != cut.visibleEdges())
        auditFail(log, "view edges differ from the cut's projection");
    for (const ViewEdge &e : view.edges)
        if (view.indexOf(e.a) == View::npos ||
            view.indexOf(e.b) == View::npos)
            auditFail(log, "edge ", e.a, "--", e.b,
                      " touches a container outside the view");
    return log;
}

} // namespace viva::agg
