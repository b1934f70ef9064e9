/**
 * @file
 * Reference implementations for the Equation-1 differential tests,
 * written without the trace's closure cache or the variable's prefix
 * integral:
 *
 *  - scanIntegral() walks the change points inside [a, b);
 *  - subtreeCarriers() walks subtree() with findVariable;
 *  - oracleValue() folds those carriers in 64-carrier chunks, left to
 *    right inside a chunk, and combines the chunk partials in order --
 *    the association Aggregator::value must reproduce bit for bit.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "agg/aggregate.hh"
#include "trace/trace.hh"
#include "trace/variable.hh"

namespace viva::oracle
{

/** Exact integral over [a, b) by a linear walk of the change points. */
inline double
scanIntegral(const trace::Variable &v, double a, double b)
{
    const auto &pts = v.changePoints();
    if (pts.empty() || a == b)
        return 0.0;
    // The value holding at a: the last point at or before a, else 0.
    std::size_t next = 0;
    while (next < pts.size() && pts[next].time <= a)
        ++next;
    double current = next == 0 ? 0.0 : pts[next - 1].value;
    double cursor = a;
    double total = 0.0;
    for (; next < pts.size() && pts[next].time < b; ++next) {
        total += current * (pts[next].time - cursor);
        cursor = pts[next].time;
        current = pts[next].value;
    }
    return total + current * (b - cursor);
}

/** One temporal reduction, through the public Variable queries. */
inline double
temporalReduce(const trace::Variable &v, const agg::TimeSlice &slice,
               agg::TemporalOp top)
{
    switch (top) {
      case agg::TemporalOp::Average:
        return v.average(slice);
      case agg::TemporalOp::Max:
        return v.maxOver(slice.begin, slice.end);
      case agg::TemporalOp::Min:
        return v.minOver(slice.begin, slice.end);
      case agg::TemporalOp::Integral:
        return v.integrate(slice);
    }
    return 0.0;
}

/** The non-empty variables of metric m under node, in preorder. */
inline std::vector<const trace::Variable *>
subtreeCarriers(const trace::Trace &t, trace::ContainerId node,
                trace::MetricId m)
{
    std::vector<const trace::Variable *> out;
    for (trace::ContainerId member : t.subtree(node))
        if (const trace::Variable *v = t.findVariable(member, m);
            v && !v->empty())
            out.push_back(v);
    return out;
}

/** Per-carrier temporal reductions under node, in preorder. */
inline std::vector<double>
oracleDistribution(const trace::Trace &t, trace::ContainerId node,
                   trace::MetricId m, const agg::TimeSlice &slice,
                   agg::TemporalOp top = agg::TemporalOp::Average)
{
    std::vector<double> out;
    for (const trace::Variable *v : subtreeCarriers(t, node, m))
        out.push_back(temporalReduce(*v, slice, top));
    return out;
}

/** Equation 1 for one node, folded in 64-carrier chunks. */
inline double
oracleValue(const trace::Trace &t, trace::ContainerId node,
            trace::MetricId m, const agg::TimeSlice &slice,
            agg::SpatialOp op = agg::SpatialOp::Sum,
            agg::TemporalOp top = agg::TemporalOp::Average)
{
    constexpr std::size_t kChunk = 64;
    auto combine = [op](double acc, double v) {
        switch (op) {
          case agg::SpatialOp::Max:
            return std::max(acc, v);
          case agg::SpatialOp::Min:
            return std::min(acc, v);
          default:
            return acc + v;
        }
    };
    std::vector<double> vals = oracleDistribution(t, node, m, slice, top);
    if (vals.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t lo = 0; lo < vals.size(); lo += kChunk) {
        const std::size_t hi = std::min(vals.size(), lo + kChunk);
        double chunk = vals[lo];
        for (std::size_t i = lo + 1; i < hi; ++i)
            chunk = combine(chunk, vals[i]);
        total = lo == 0 ? chunk : combine(total, chunk);
    }
    return op == agg::SpatialOp::Average ? total / double(vals.size())
                                         : total;
}

} // namespace viva::oracle
