/**
 * @file
 * Implementation of the piecewise-constant variable.
 */

#include "trace/variable.hh"

#include <algorithm>

#include "support/logging.hh"

namespace viva::trace
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

} // namespace

std::size_t
Variable::indexAt(double t) const
{
    // upper_bound returns the first point strictly after t.
    auto it = std::upper_bound(points.begin(), points.end(), t,
                               [](double lhs, const Point &p) {
                                   return lhs < p.time;
                               });
    if (it == points.begin())
        return npos;
    return std::size_t(it - points.begin()) - 1;
}

void
Variable::set(double t, double v)
{
    if (points.empty() || points.back().time < t) {
        points.push_back({t, v});
        refreshPrefix(points.size() - 1);
        return;
    }
    if (points.back().time == t) {
        // cum[i] depends on values before i only: nothing to refresh.
        points.back().value = v;
        return;
    }
    // Out-of-order insert or in-place change.
    auto it = std::lower_bound(points.begin(), points.end(), t,
                               [](const Point &p, double rhs) {
                                   return p.time < rhs;
                               });
    std::size_t at = std::size_t(it - points.begin());
    if (it != points.end() && it->time == t) {
        it->value = v;
        refreshPrefix(at + 1);
    } else {
        points.insert(it, {t, v});
        refreshPrefix(at);
    }
}

void
Variable::refreshPrefix(std::size_t from)
{
    const std::size_t n = points.size();
    cum.resize(n);
    if (n == 0)
        return;
    cum[0] = 0.0;
    for (std::size_t i = std::max<std::size_t>(from, 1); i < n; ++i)
        cum[i] = cum[i - 1] +
                 points[i - 1].value * (points[i].time - points[i - 1].time);
}

void
Variable::add(double t, double dv)
{
    set(t, valueAt(t) + dv);
}

double
Variable::valueAt(double t) const
{
    std::size_t i = indexAt(t);
    return i == npos ? 0.0 : points[i].value;
}

double
Variable::integrate(double a, double b) const
{
    VIVA_ASSERT(a <= b, "reversed integration bounds [", a, ", ", b, ")");
    if (points.empty() || a == b)
        return 0.0;

    std::size_t ia = indexAt(a);
    std::size_t ib = indexAt(b);
    // Both bounds inside one segment (or before the first point): a
    // single multiply, with no prefix-difference cancellation.
    if (ia == ib)
        return (ia == npos ? 0.0 : points[ia].value) * (b - a);
    // First partial segment, the whole segments between (a prefix
    // difference), then the last partial segment.
    std::size_t first = (ia == npos) ? 0 : ia + 1;
    double total =
        ia == npos ? 0.0 : points[ia].value * (points[first].time - a);
    total += cum[ib] - cum[first];
    total += points[ib].value * (b - points[ib].time);
    return total;
}

double
Variable::average(double a, double b) const
{
    VIVA_ASSERT(a <= b, "reversed slice [", a, ", ", b, ")");
    if (a == b)
        return valueAt(a);
    return integrate(a, b) / (b - a);
}

bool
Variable::indexConsistent() const
{
    Variable fresh;
    fresh.points = points;
    fresh.refreshPrefix(0);
    return cum == fresh.cum;
}

double
Variable::firstTime() const
{
    return points.empty() ? 0.0 : points.front().time;
}

double
Variable::lastTime() const
{
    return points.empty() ? 0.0 : points.back().time;
}

std::size_t
Variable::compact()
{
    if (points.size() < 2)
        return 0;
    std::size_t before = points.size();
    std::vector<Point> kept;
    kept.reserve(points.size());
    for (const Point &p : points) {
        if (!kept.empty() && kept.back().value == p.value)
            continue;
        kept.push_back(p);
    }
    points = std::move(kept);
    refreshPrefix(0);
    return before - points.size();
}

} // namespace viva::trace
