/**
 * @file
 * Piecewise-constant time series. The value set at time t holds until the
 * next change point. This is the exact representation of resource
 * availability/utilization traces in Fig. 1, and supports the exact
 * interval integration required by Equation 1.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "support/interval.hh"

namespace viva::trace
{

/**
 * A piecewise-constant function of time built from timestamped set/add
 * events. Change points are kept sorted, next to their prefix
 * integral; appends at the end are O(1), out-of-order inserts and
 * in-place changes are supported but O(n) (the prefix is recomputed
 * from the touched point on).
 */
class Variable
{
  public:
    /** One change point: the value holds from time until the next point. */
    struct Point
    {
        double time;
        double value;
        bool operator==(const Point &other) const = default;
    };

    /** Set the value from time t on. Replaces an existing point at t. */
    void set(double t, double v);

    /** Add dv to the value from time t on (relative change event). */
    void add(double t, double dv);

    /**
     * The value at time t. Before the first change point the variable is
     * considered 0 (the resource had not been observed yet).
     */
    double valueAt(double t) const;

    /**
     * Exact integral of the function over [a, b): two binary searches
     * and a difference of the prefix integral, which every mutation
     * keeps current.
     */
    double integrate(double a, double b) const;

    /** Exact integral over an interval. */
    double
    integrate(const support::Interval &slice) const
    {
        return integrate(slice.begin, slice.end);
    }

    /**
     * Time-average over [a, b) -- the temporal aggregation F of
     * Equation 1 restricted to the time dimension. Zero-length slices
     * return the instantaneous value at a.
     */
    double average(double a, double b) const;

    /** Time-average over a slice. */
    double
    average(const support::Interval &slice) const
    {
        return average(slice.begin, slice.end);
    }

    /** Time of the first change point; 0 when empty. */
    double firstTime() const;

    /** Time of the last change point; 0 when empty. */
    double lastTime() const;

    /** Number of change points. */
    std::size_t pointCount() const { return points.size(); }

    /** True when no change point has been recorded. */
    bool empty() const { return points.empty(); }

    /** The raw change points, sorted by time. */
    const std::vector<Point> &changePoints() const { return points; }

    /**
     * Remove successive points with equal values (produced e.g. by a
     * tracer re-asserting an unchanged rate). Preserves the function.
     * @return number of points removed
     */
    std::size_t compact();

    /**
     * Always true: the prefix integral is kept current on write. Kept
     * only for the perfbench driver's production-path check, like
     * layout::Node::alive.
     */
    bool indexed() const { return true; }  // viva-graph: allow(dead): read by the perfbench driver, outside the scanned tree

    /**
     * True when the prefix integral is bitwise-identical to a fresh
     * recomputation from the current points (the VALIDATE audit).
     */
    bool indexConsistent() const;

  private:
    /** Index of the last point with time <= t, or npos. */
    std::size_t indexAt(double t) const;

    /** Recompute cum[from..] from the points (cum[0] is always 0). */
    void refreshPrefix(std::size_t from);

    std::vector<Point> points;

    /** cum[i]: exact integral from points[0].time to points[i].time. */
    std::vector<double> cum;
};

} // namespace viva::trace
