/**
 * @file
 * Differential tests of the variable's prefix integral (kept current
 * on every write) and of the hierarchy-closure cache behind the
 * Equation-1 fold, against the reference scans of fold_oracle.hh: the
 * integral must agree to 1e-12 relative error, the fold bit for bit,
 * and every mutating Trace call must invalidate the closure so a stale
 * answer is impossible -- aggregating a stale trace panics.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "fold_oracle.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/trace.hh"
#include "trace/variable.hh"

namespace va = viva::agg;
namespace vt = viva::trace;
namespace oracle = viva::oracle;

namespace
{

/** Relative error normalized the way the Equation-1 audit does. */
double
relErr(double a, double b)
{
    return std::fabs(a - b) /
           std::max({1.0, std::fabs(a), std::fabs(b)});
}

constexpr double kTol = 1e-12;

/** A variable with `n` random change points on [0, 100). */
vt::Variable
randomVariable(std::size_t n, std::uint64_t seed)
{
    viva::support::Rng rng(seed);
    vt::Variable v;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.uniform(0.01, 100.0 / double(n ? n : 1));
        v.set(t, rng.uniform(-50.0, 50.0));
    }
    return v;
}

/** The values attained inside [a, b): the one at a, then (a, b). */
std::vector<double>
valuesOver(const vt::Variable &v, double a, double b)
{
    std::vector<double> out{v.valueAt(a)};
    for (const vt::Variable::Point &p : v.changePoints())
        if (p.time > a && p.time < b)
            out.push_back(p.value);
    return out;
}

/** Every reduction against the reference scans, on one slice. */
void
expectAllOpsAgree(const vt::Variable &v, double a, double b)
{
    ASSERT_TRUE(v.indexConsistent());
    EXPECT_LE(relErr(v.integrate(a, b), oracle::scanIntegral(v, a, b)),
              kTol)
        << "integrate over [" << a << ", " << b << ")";
    std::vector<double> seen = valuesOver(v, a, b);
    EXPECT_EQ(v.maxOver(a, b), *std::max_element(seen.begin(), seen.end()))
        << "maxOver over [" << a << ", " << b << ")";
    EXPECT_EQ(v.minOver(a, b), *std::min_element(seen.begin(), seen.end()))
        << "minOver over [" << a << ", " << b << ")";
    // average = integrate / width, so it inherits the integral bound;
    // check it anyway because it is the Equation-1 default.
    double width = b - a;
    if (width > 0.0) {
        EXPECT_LE(relErr(v.average(a, b),
                         oracle::scanIntegral(v, a, b) / width),
                  kTol);
    }
}

} // namespace

// --- prefix integral vs scan, per TemporalOp ------------------------------

TEST(AggIndexDifferential, RandomSlicesAllOpsAgree)
{
    vt::Variable v = randomVariable(500, 1);

    viva::support::Rng rng(2);
    double span = v.lastTime() - v.firstTime();
    for (int i = 0; i < 400; ++i) {
        double a = rng.uniform(v.firstTime() - 0.1 * span,
                               v.lastTime() + 0.1 * span);
        double b = a + rng.uniform(0.0, 0.5 * span);
        expectAllOpsAgree(v, a, b);
    }
}

TEST(AggIndexDifferential, TinySlicesDeepIntoTheTrace)
{
    // The cancellation stress: a slice much narrower than the prefix
    // integral it would naively be computed from.
    vt::Variable v = randomVariable(2000, 3);
    viva::support::Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        double a = rng.uniform(v.firstTime(), v.lastTime());
        double b = a + rng.uniform(0.0, 1e-6);
        expectAllOpsAgree(v, a, b);
    }
}

TEST(AggIndexDifferential, SliceBoundariesOnChangePoints)
{
    vt::Variable v = randomVariable(64, 5);
    const auto &pts = v.changePoints();
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = i; j < pts.size(); j += 7)
            expectAllOpsAgree(v, pts[i].time, pts[j].time);
}

TEST(AggIndexDifferential, EmptyVariable)
{
    vt::Variable v;
    expectAllOpsAgree(v, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(v.average(0.0, 10.0), 0.0);
}

TEST(AggIndexDifferential, SinglePointVariable)
{
    vt::Variable v;
    v.set(5.0, 42.0);
    expectAllOpsAgree(v, 0.0, 4.0);    // entirely before
    expectAllOpsAgree(v, 6.0, 9.0);    // entirely after the point
    expectAllOpsAgree(v, 0.0, 10.0);   // spanning
    EXPECT_DOUBLE_EQ(v.integrate(5.0, 7.0), 84.0);
}

TEST(AggIndexDifferential, DegenerateAndOutOfRangeSlices)
{
    vt::Variable v = randomVariable(100, 6);
    double lo = v.firstTime(), hi = v.lastTime();

    // Degenerate: a == b.
    expectAllOpsAgree(v, lo + 1.0, lo + 1.0);
    EXPECT_DOUBLE_EQ(v.integrate(lo + 1.0, lo + 1.0), 0.0);
    EXPECT_DOUBLE_EQ(v.average(lo + 1.0, lo + 1.0),
                     v.valueAt(lo + 1.0));

    // Entirely before the first point: the variable is 0 there.
    expectAllOpsAgree(v, lo - 20.0, lo - 10.0);
    EXPECT_DOUBLE_EQ(v.integrate(lo - 20.0, lo - 10.0), 0.0);

    // Entirely after the last point: the last value holds.
    expectAllOpsAgree(v, hi + 10.0, hi + 20.0);

    // Spanning far beyond both ends.
    expectAllOpsAgree(v, lo - 100.0, hi + 100.0);
}

// --- the prefix integral under mutation --------------------------------------

namespace
{

/** The prefix integral is consistent and every op agrees with the scan. */
void expectPrefixCurrent(const vt::Variable &v, const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_TRUE(v.indexConsistent());
    const double mid = 0.5 * (v.firstTime() + v.lastTime());
    for (double a : {v.firstTime() - 1.0, v.firstTime(), mid})
        for (double b : {mid, v.lastTime(), v.lastTime() + 10.0})
            if (a <= b)
                expectAllOpsAgree(v, a, b);
}

} // namespace

// Every set() keeps the prefix integral current: there is no index to
// invalidate and rebuild any more, so queries after a write agree with
// the scan straight away.
TEST(AggIndexDifferential, SetInvalidatesTheIndex)
{
    vt::Variable v = randomVariable(50, 7);
    expectPrefixCurrent(v, "built by appends");

    v.set(v.lastTime() + 2.0, 5.0);
    expectPrefixCurrent(v, "append");

    v.set(v.lastTime(), -7.0);
    expectPrefixCurrent(v, "replace the last value");

    v.set(v.firstTime() - 3.0, 11.0);
    expectPrefixCurrent(v, "out-of-order insert at the front");

    const auto &pts = v.changePoints();
    v.set(0.5 * (pts[20].time + pts[21].time), 13.0);
    expectPrefixCurrent(v, "out-of-order insert in the middle");

    v.set(pts[30].time, 17.0);
    expectPrefixCurrent(v, "in-place change in the middle");

    v.set(1e6, 3.0);
    expectPrefixCurrent(v, "append far past the end");
    expectAllOpsAgree(v, 0.0, 2e6);
}

// add() and compact() keep the prefix integral current too.
TEST(AggIndexDifferential, AddAndCompactInvalidate)
{
    vt::Variable v;
    v.set(0.0, 5.0);
    v.set(1.0, 5.0);  // redundant: compact() removes it
    expectPrefixCurrent(v, "built by sets");

    v.add(2.0, 1.0);
    expectPrefixCurrent(v, "add past the end");

    EXPECT_EQ(v.compact(), 1u);
    expectPrefixCurrent(v, "compact");

    vt::Variable r = randomVariable(50, 7);
    r.add(0.5 * (r.firstTime() + r.lastTime()), 4.0);
    expectPrefixCurrent(r, "add in the middle");

    r.set(r.lastTime() + 1.0, r.changePoints().back().value);
    EXPECT_EQ(r.compact(), 1u);
    expectPrefixCurrent(r, "compact a random variable");
}

// --- the hierarchy-closure cache ------------------------------------------

namespace
{

/** Two sites of two hosts each, with power set on every host. */
struct ClosureFixture
{
    vt::Trace trace;
    vt::ContainerId s1, s2, h1, h2, h3, h4;
    vt::MetricId power;
    vt::MetricId idle;  ///< registered but carried by no container

    ClosureFixture()
    {
        vt::TraceBuilder b;
        power = b.powerMetric();
        b.beginGroup("s1", vt::ContainerKind::Site);
        s1 = b.currentGroup();
        h1 = b.host("h1");
        h2 = b.host("h2");
        b.endGroup();
        b.beginGroup("s2", vt::ContainerKind::Site);
        s2 = b.currentGroup();
        h3 = b.host("h3");
        h4 = b.host("h4");
        b.endGroup();

        vt::Trace &t = b.trace();
        idle = t.addMetric("idle", "ratio", vt::MetricNature::Gauge);
        t.variable(h1, power).set(0.0, 10.0);
        t.variable(h2, power).set(0.0, 20.0);
        t.variable(h3, power).set(0.0, 30.0);
        t.variable(h4, power).set(0.0, 40.0);
        t.variable(h1, power).set(10.0, 10.0);

        trace = b.take();  // take() builds the acceleration structures
    }
};

} // namespace

TEST(ClosureCache, BuilderTakeBuildsAcceleration)
{
    ClosureFixture f;
    EXPECT_TRUE(f.trace.closureFresh());
    const vt::Variable *v = f.trace.findVariable(f.h1, f.power);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->indexConsistent());
}

TEST(ClosureCache, CachedSubtreeMatchesRecomputation)
{
    ClosureFixture f;
    for (vt::ContainerId id :
         {f.trace.root(), f.s1, f.s2, f.h1, f.h4}) {
        std::vector<vt::ContainerId> fresh = f.trace.subtree(id);
        std::span<const vt::ContainerId> cached =
            f.trace.cachedSubtree(id);
        ASSERT_EQ(cached.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(cached[i], fresh[i]);
    }
}

TEST(ClosureCache, CarriersMatchFindVariable)
{
    ClosureFixture f;
    for (vt::ContainerId id : {f.trace.root(), f.s1, f.s2, f.h2}) {
        std::vector<const vt::Variable *> fresh;
        for (vt::ContainerId member : f.trace.subtree(id))
            if (const vt::Variable *v =
                    f.trace.findVariable(member, f.power);
                v && !v->empty())
                fresh.push_back(v);
        std::span<const vt::Variable *const> cached =
            f.trace.carriers(id, f.power);
        ASSERT_EQ(cached.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(cached[i], fresh[i]);
        // A metric nobody carries has an empty list everywhere.
        EXPECT_TRUE(f.trace.carriers(id, f.idle).empty());
    }
}

TEST(ClosureCache, MutationInvalidatesAndFallbackStaysCorrect)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};

    ASSERT_TRUE(f.trace.closureFresh());
    double cached_total = agg.value(f.trace.root(), f.power, slice);
    EXPECT_DOUBLE_EQ(cached_total, 100.0);

    std::uint64_t before = f.trace.version();
    f.trace.variable(f.h1, f.power).set(10.0, 50.0);
    EXPECT_GT(f.trace.version(), before);
    EXPECT_FALSE(f.trace.closureFresh());

    // Rebuilding re-arms the cache; the answer matches the reference
    // fold, the same value for an unchanged slice and the new one for a
    // slice that sees the mutation.
    f.trace.ensureClosure();
    EXPECT_TRUE(f.trace.closureFresh());
    EXPECT_EQ(agg.value(f.trace.root(), f.power, slice),
              oracle::oracleValue(f.trace, f.trace.root(), f.power, slice));
    EXPECT_DOUBLE_EQ(agg.value(f.trace.root(), f.power, slice),
                     cached_total);
    va::TimeSlice later{10.0, 20.0};
    EXPECT_DOUBLE_EQ(agg.value(f.trace.root(), f.power, later), 140.0);
    EXPECT_EQ(agg.value(f.trace.root(), f.power, later),
              oracle::oracleValue(f.trace, f.trace.root(), f.power, later));
}

TEST(ClosureCache, EveryMutatorBumpsTheVersion)
{
    ClosureFixture f;
    std::uint64_t v = f.trace.version();

    vt::ContainerId extra = f.trace.addContainer(
        "h5", vt::ContainerKind::Host, f.s2);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.addRelation(f.h1, extra);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.addMetric("load", "ratio", vt::MetricNature::Gauge);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.variable(extra, f.power);
    EXPECT_GT(f.trace.version(), v);
}

TEST(ClosureCache, CachedAndFallbackAggregationsAgreeOnAllOps)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{2.0, 8.0};

    const va::SpatialOp sops[] = {va::SpatialOp::Sum,
                                  va::SpatialOp::Average,
                                  va::SpatialOp::Max, va::SpatialOp::Min};
    const va::TemporalOp tops[] = {
        va::TemporalOp::Average, va::TemporalOp::Max, va::TemporalOp::Min,
        va::TemporalOp::Integral};

    // The closure fold against the test's subtree + findVariable
    // fold. Bitwise equality is the contract: both run the same chunk
    // decomposition over the same variable list.
    for (vt::ContainerId node : {f.trace.root(), f.s1, f.h2}) {
        for (va::SpatialOp s : sops) {
            for (va::TemporalOp t : tops) {
                EXPECT_EQ(agg.value(node, f.power, slice, s, t),
                          oracle::oracleValue(f.trace, node, f.power,
                                              slice, s, t))
                    << "node " << node << " spatial " << int(s)
                    << " temporal " << int(t);
            }
        }
    }
}

TEST(ClosureCache, DistributionAgreesCachedAndStale)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};

    // Same sample sequence as the reference, before and after a
    // mutation that stales the closure and a re-finalize.
    for (int round = 0; round < 2; ++round) {
        viva::support::Samples cached =
            agg.distribution(f.trace.root(), f.power, slice);
        std::vector<double> expect = oracle::oracleDistribution(
            f.trace, f.trace.root(), f.power, slice);
        ASSERT_EQ(cached.count(), expect.size());
        ASSERT_EQ(cached.count(), 4u);
        for (std::size_t i = 0; i < cached.count(); ++i)
            EXPECT_EQ(cached.data()[i], expect[i]);
        f.trace.variable(f.h3, f.power).set(5.0, 1.0);  // stale
        f.trace.ensureClosure();
    }
}

TEST(ClosureCache, ChunkedFoldMatchesTheReferenceOnWideGroups)
{
    // 300 carriers: five 64-carrier chunks. Values spanning twelve
    // orders of magnitude make a sum depend on its association, so a
    // fold that dropped the chunk order would show in the last bits.
    vt::TraceBuilder b;
    vt::MetricId used = b.powerUsedMetric();
    b.beginGroup("wide", vt::ContainerKind::Site);
    vt::ContainerId wide = b.currentGroup();
    viva::support::Rng rng(77);
    for (int i = 0; i < 300; ++i) {
        vt::ContainerId h = b.host("h" + std::to_string(i));
        vt::Variable &v = b.trace().variable(h, used);
        v.set(0.0, rng.uniform(0.0, 1.0) *
                       std::pow(10.0, rng.uniform(-6.0, 6.0)));
        v.set(rng.uniform(1.0, 9.0), rng.uniform(0.0, 1e3));
    }
    b.endGroup();
    vt::Trace trace = b.take();
    va::Aggregator agg(trace);
    va::TimeSlice slice{0.5, 7.5};
    for (va::SpatialOp s : {va::SpatialOp::Sum, va::SpatialOp::Average,
                            va::SpatialOp::Max, va::SpatialOp::Min})
        for (vt::ContainerId node : {trace.root(), wide})
            EXPECT_EQ(agg.value(node, used, slice, s),
                      oracle::oracleValue(trace, node, used, slice, s))
                << "spatial " << int(s);
}

TEST(ClosureCache, AggregatingAStaleTracePanics)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};
    f.trace.variable(f.h2, f.power).set(20.0, 1.0);
    ASSERT_FALSE(f.trace.closureFresh());
    EXPECT_DEATH(agg.value(f.trace.root(), f.power, slice),
                 "closure cache is stale");
    EXPECT_DEATH(agg.distribution(f.s1, f.power, slice),
                 "closure cache is stale");
}

TEST(ClosureCache, CopyOfAFinalizedTraceAggregates)
{
    ClosureFixture f;
    va::TimeSlice slice{0.0, 10.0};
    vt::Trace copy(f.trace);
    ASSERT_TRUE(copy.closureFresh());
    vt::Trace assigned;
    assigned = f.trace;
    ASSERT_TRUE(assigned.closureFresh());
    for (const vt::Trace *t : {&copy, &assigned}) {
        // The copy's carriers point into its own variables.
        EXPECT_EQ(t->carriers(f.s1, f.power)[0],
                  t->findVariable(f.h1, f.power));
        EXPECT_EQ(va::Aggregator(*t).value(t->root(), f.power, slice),
                  va::Aggregator(f.trace).value(f.trace.root(), f.power,
                                                slice));
    }
}
