/**
 * @file
 * Tests for support::StrongId: the negative-compile guarantees are
 * checked with static_asserts over type traits (a NodeId/ContainerId
 * swap must be a type error, not a runtime surprise), and the runtime
 * surface -- ordering, hashing, formatting, index/value round-trips --
 * is exercised on the repository's real id aliases.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "agg/timeslice.hh"
#include "layout/graph.hh"
#include "layout/quadtree.hh"
#include "platform/platform.hh"
#include "support/strong_id.hh"
#include "trace/container.hh"
#include "trace/metric.hh"

namespace vs = viva::support;
namespace vt = viva::trace;
namespace vp = viva::platform;
namespace vl = viva::layout;
namespace va = viva::agg;

// --- compile-time guarantees ----------------------------------------------------
//
// These are the point of the whole exercise: every mixing of id spaces
// that used to compile with raw uint32_t aliases must now be rejected.

// No cross-tag conversion or construction, in either direction.
static_assert(!std::is_convertible_v<vl::NodeId, vt::ContainerId>);
static_assert(!std::is_convertible_v<vt::ContainerId, vl::NodeId>);
static_assert(!std::is_constructible_v<vt::ContainerId, vl::NodeId>);
static_assert(!std::is_constructible_v<vl::NodeId, vt::ContainerId>);
static_assert(!std::is_constructible_v<vp::HostId, vp::LinkId>);
static_assert(!std::is_constructible_v<vp::LinkId, vp::GroupId>);
static_assert(!std::is_constructible_v<va::SliceIndex, vt::MetricId>);

// No implicit construction from raw integers: a loose `42` cannot
// sneak into an id-typed parameter (explicit construction still works).
static_assert(!std::is_convertible_v<std::uint32_t, vt::ContainerId>);
static_assert(!std::is_convertible_v<int, vl::NodeId>);
static_assert(std::is_constructible_v<vt::ContainerId, std::uint32_t>);

// No implicit decay back to integers either: arithmetic or untyped
// storage must spell .value() or .index().
static_assert(!std::is_convertible_v<vt::ContainerId, std::uint32_t>);
static_assert(!std::is_convertible_v<vl::NodeId, std::size_t>);

// Cross-tag comparison does not compile. (SFINAE probe: equality is
// only found for same-tag operands.)
template <typename A, typename B, typename = void>
struct CanEq : std::false_type
{
};
template <typename A, typename B>
struct CanEq<A, B,
             std::void_t<decltype(std::declval<A>() ==
                                  std::declval<B>())>> : std::true_type
{
};

static_assert(CanEq<vl::NodeId, vl::NodeId>::value);
static_assert(!CanEq<vl::NodeId, vt::ContainerId>::value);
static_assert(!CanEq<vp::HostId, vp::LinkId>::value);
static_assert(!CanEq<vl::NodeId, std::uint32_t>::value);

// Zero-cost: the wrapper is exactly its integer, trivially copyable.
static_assert(sizeof(vt::ContainerId) == sizeof(std::uint32_t));
static_assert(sizeof(vt::MetricId) == sizeof(std::uint16_t));
static_assert(sizeof(vl::CellId) == sizeof(std::int32_t));
static_assert(std::is_trivially_copyable_v<vt::ContainerId>);
static_assert(std::is_trivially_destructible_v<vl::NodeId>);

// The trait sees through aliases and nothing else.
static_assert(vs::isStrongId<vt::ContainerId>);
static_assert(vs::isStrongId<va::SliceIndex>);
static_assert(!vs::isStrongId<std::uint32_t>);

// Everything below is constexpr-friendly.
static_assert(vt::ContainerId{7}.value() == 7u);
static_assert(vt::ContainerId::fromIndex(9).index() == 9u);
static_assert(vl::NodeId{3} < vl::NodeId{4});
static_assert(vl::CellId{-1}.value() == -1);

// --- runtime behaviour ----------------------------------------------------------

TEST(StrongId, RoundTripsValueAndIndex)
{
    vt::ContainerId id{41u};
    EXPECT_EQ(id.value(), 41u);
    EXPECT_EQ(id.index(), std::size_t{41});
    EXPECT_EQ(vt::ContainerId::fromIndex(id.index()), id);
    EXPECT_EQ(vt::ContainerId{}.value(), 0u);
}

TEST(StrongId, OrderingMatchesUnderlying)
{
    vp::HostId a{2}, b{5};
    EXPECT_LT(a, b);
    EXPECT_LE(a, a);
    EXPECT_NE(a, b);
    EXPECT_EQ(std::max(a, b), b);
}

TEST(StrongId, IncrementDrivesTypedLoops)
{
    std::size_t seen = 0;
    for (vp::HostId h{0}; h.index() < 4; ++h)
        ++seen;
    EXPECT_EQ(seen, 4u);

    vl::NodeId n{7};
    EXPECT_EQ((n++).value(), 7u);
    EXPECT_EQ(n.value(), 8u);
    EXPECT_EQ((++n).value(), 9u);
}

TEST(StrongId, HashesLikeTheRawInteger)
{
    EXPECT_EQ(std::hash<vt::ContainerId>{}(vt::ContainerId{99}),
              std::hash<std::uint32_t>{}(99u));

    std::unordered_set<vp::HostId> hosts;
    for (std::uint32_t i = 0; i < 100; ++i)
        hosts.insert(vp::HostId{i % 10});
    EXPECT_EQ(hosts.size(), 10u);

    std::unordered_map<vt::ContainerId, int> by_id;
    by_id[vt::ContainerId{3}] = 30;
    by_id[vt::ContainerId{3}] = 31;
    EXPECT_EQ(by_id.size(), 1u);
    EXPECT_EQ(by_id.at(vt::ContainerId{3}), 31);
}

TEST(StrongId, FormatsAsTheRawInteger)
{
    std::ostringstream out;
    out << vt::ContainerId{12} << ' ' << vl::CellId{-1} << ' '
        << vt::MetricId{7};
    EXPECT_EQ(out.str(), "12 -1 7");
}

TEST(StrongId, SignedUnderlyingSupportsSentinels)
{
    vl::CellId cell{-1};
    EXPECT_EQ(cell.value(), -1);
    EXPECT_LT(cell, vl::CellId{0});
    EXPECT_EQ(vl::CellId::fromIndex(5).index(), 5u);
}
