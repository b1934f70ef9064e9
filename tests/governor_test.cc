/**
 * @file
 * Tests for the resource governor: per-operation deadlines that
 * cooperatively cancel layout / render / animate work with session
 * state bitwise unchanged, the deterministic working-set model, the
 * memory-budget degradation ladder (Eq. 1 aggregation as load
 * shedding), and the governor's observability counters and commands.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "app/commands.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/clock.hh"
#include "support/error.hh"
#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "trace/builder.hh"

namespace vap = viva::app;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

std::string
tempDir()
{
    auto dir =
        std::filesystem::temp_directory_path() / "viva_governor_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** A session over the deeper two-cluster platform hierarchy. */
vap::Session
makePlatformSession()
{
    viva::platform::Platform p =
        viva::platform::makeTwoClusterPlatform();
    vt::Trace t;
    viva::platform::mirrorPlatform(p, t);
    return vap::Session(std::move(t));
}

/**
 * A fake clock whose every read advances far enough that the first
 * deadline poll of a governed operation is already past any small
 * deadline.
 */
struct ExpiredClockFixture
{
    vs::FakeClock fake{0, 1'000'000};  // 1 ms per read
    vs::ClockOverride guard{fake};
};

} // namespace

// --- the deadline channel ------------------------------------------------------

TEST(Governor, DisarmedPollIsFalse)
{
    EXPECT_FALSE(vs::ResourceGovernor::global().deadlineExpired());
}

TEST(Governor, StabilizeAbortLeavesStateBitwiseUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);  // 1 ns: expired at the first poll
    const std::uint64_t digest = s.stateDigest();
    const std::uint64_t aborts = s.deadlineAbortCount();

    auto done = s.stabilizeLayout(100);
    ASSERT_FALSE(done.ok());
    EXPECT_EQ(done.error().code(), vs::Errc::Deadline);
    EXPECT_FALSE(done.error().context().empty());
    EXPECT_EQ(s.stateDigest(), digest);
    EXPECT_EQ(s.deadlineAbortCount(), aborts + 1);
}

TEST(Governor, StepAbortLeavesStateBitwiseUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    auto stepped = s.stepLayout(5);
    ASSERT_FALSE(stepped.ok());
    EXPECT_EQ(stepped.error().code(), vs::Errc::Deadline);
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(Governor, RenderAbortLeavesStateAndDiskUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();
    auto path = tempDir() + "/aborted.svg";
    std::filesystem::remove(path);

    auto rendered = s.renderSvg(path);
    ASSERT_FALSE(rendered.ok());
    EXPECT_EQ(rendered.error().code(), vs::Errc::Deadline);
    EXPECT_EQ(s.stateDigest(), digest);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Governor, AnimateAbortRollsTheWholeOperationBack)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    auto frames = s.animate(3, tempDir(), "gov_frame", 10);
    ASSERT_FALSE(frames.ok());
    EXPECT_EQ(frames.error().code(), vs::Errc::Deadline);
    // The rollback covers the slice and the layout: bitwise identical.
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(Governor, GenerousDeadlineCommitsTheIdenticalResult)
{
    // A frozen fake clock never expires any deadline, so a governed
    // operation must commit exactly what an ungoverned one computes.
    vs::FakeClock fake;  // tick 0: time stands still
    vs::ClockOverride guard(fake);

    vap::Session governed(vt::makeFigure1Trace());
    vap::Session plain(vt::makeFigure1Trace());
    governed.setOperationDeadline(3'600'000'000'000ull);

    ASSERT_TRUE(governed.stabilizeLayout(50).ok());
    plain.stabilizeLayout(50).value();
    EXPECT_NE(governed.stateDigest(), plain.stateDigest())
        << "the deadline setting itself is part of the digest";
    governed.setOperationDeadline(0);
    EXPECT_EQ(governed.stateDigest(), plain.stateDigest());

    // Rendering under the deadline writes the same bytes as without.
    governed.setOperationDeadline(3'600'000'000'000ull);
    ASSERT_TRUE(governed.renderSvg(tempDir() + "/gov_ok.svg").ok());
    ASSERT_TRUE(plain.renderSvg(tempDir() + "/plain_ok.svg").ok());
    EXPECT_EQ(readFile(tempDir() + "/gov_ok.svg"),
              readFile(tempDir() + "/plain_ok.svg"));
}

// --- the working-set model and the degradation ladder --------------------------

TEST(Governor, WorkingSetModelIsDeterministicAndMonotonic)
{
    vap::Session s = makePlatformSession();
    const std::uint64_t full = s.workingSetBytes();
    EXPECT_GT(full, 0u);
    EXPECT_EQ(s.workingSetBytes(), full);

    // Coarsening the cut sheds visible nodes, never grows the model.
    s.aggregateToDepth(0);
    EXPECT_LT(s.workingSetBytes(), full);
}

TEST(Governor, MemoryBudgetCoarsensTheCutOneLevelAtATime)
{
    vap::Session s = makePlatformSession();
    const std::size_t full_visible = s.cut().visibleCount();
    const std::uint64_t full_bytes = s.workingSetBytes();

    // A budget below the fully-degraded floor: the ladder walks all
    // the way to the root level and stops there (no infinite loop).
    s.setMemoryBudget(1);
    EXPECT_GT(s.degradationCount(), 1u)
        << "the deep hierarchy must take several ladder steps";
    EXPECT_LT(s.cut().visibleCount(), full_visible);
    EXPECT_LT(s.workingSetBytes(), full_bytes);
    EXPECT_TRUE(s.auditInvariants().empty());

    // A generous budget degrades nothing further.
    const std::uint64_t steps = s.degradationCount();
    s.setMemoryBudget(1ull << 40);
    EXPECT_EQ(s.degradationCount(), steps);
}

TEST(Governor, BudgetAppliesToCutMutationsToo)
{
    vap::Session s = makePlatformSession();
    s.setMemoryBudget(1);
    const std::uint64_t steps = s.degradationCount();

    // Disaggregating regrows the working set past the budget; the
    // governor immediately sheds it again.
    s.resetAggregation();
    EXPECT_GT(s.degradationCount(), steps);
    EXPECT_TRUE(s.auditInvariants().empty());
}

TEST(Governor, ZeroBudgetDisablesDegradation)
{
    vap::Session s = makePlatformSession();
    const std::size_t visible = s.cut().visibleCount();
    s.setMemoryBudget(0);
    EXPECT_EQ(s.cut().visibleCount(), visible);
    EXPECT_EQ(s.degradationCount(), 0u);
}
TEST(Governor, MoveAbortPutsBackTheDragAndTheLayout)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();
    const std::uint64_t aborts = s.deadlineAbortCount();

    std::optional<vs::Error> aborted;
    EXPECT_FALSE(s.moveNode("HostA", 500.0, 500.0, &aborted));
    ASSERT_TRUE(aborted.has_value());
    EXPECT_EQ(aborted->code(), vs::Errc::Deadline);
    EXPECT_EQ(s.stateDigest(), digest);
    EXPECT_EQ(s.deadlineAbortCount(), aborts + 1);

    // Disarmed, the same drag commits and moves the node.
    s.setOperationDeadline(0);
    std::optional<vs::Error> none;
    EXPECT_TRUE(s.moveNode("HostA", 500.0, 500.0, &none));
    EXPECT_FALSE(none.has_value());
    EXPECT_NE(s.stateDigest(), digest);
}


// --- observability -------------------------------------------------------------

TEST(Governor, CountersSurfaceInTheRegistry)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    ASSERT_FALSE(s.stabilizeLayout(10).ok());
    s.setMemoryBudget(1);

    namespace obs = vs::obs;
    obs::StatsSnapshot snap = obs::Registry::global().snapshot();
    std::uint64_t aborts = 0, degradations = 0;
    for (const obs::CounterValue &c : snap.counters) {
        if (c.name == "governor.deadline_aborts")
            aborts = c.value;
        if (c.name == "governor.degradations")
            degradations = c.value;
    }
    EXPECT_GT(aborts, 0u);
    EXPECT_GT(degradations, 0u);
}

// --- commands ------------------------------------------------------------------

TEST(GovernorCommands, SettingsAndStatusRoundTrip)
{
    vap::Session s = makePlatformSession();
    vap::CommandInterpreter cli(s);
    std::ostringstream out;

    ASSERT_TRUE(cli.execute("set deadline-ms 250", out));
    EXPECT_EQ(s.operationDeadline(), 250ull * 1000000ull);
    ASSERT_TRUE(cli.execute("set mem-budget 1", out));
    EXPECT_EQ(s.memoryBudget(), 1u);
    EXPECT_GT(s.degradationCount(), 0u);

    std::ostringstream status;
    ASSERT_TRUE(cli.execute("status", status));
    EXPECT_NE(status.str().find("degradation(s)"), std::string::npos);
    EXPECT_NE(status.str().find("deadline"), std::string::npos);

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("set mem-budget", err));
    EXPECT_FALSE(cli.execute("set deadline-ms nope", err));
}

TEST(GovernorCommands, StabilizeCommandSurfacesTheDeadlineError)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    ASSERT_TRUE(cli.execute("set deadline-ms 0", out));
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("stabilize 50", err));
    EXPECT_NE(err.str().find("deadline"), std::string::npos);
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(GovernorCommands, MoveCommandSurfacesTheDeadlineError)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("move HostA 500 500", err));
    EXPECT_NE(err.str().find("deadline"), std::string::npos) << err.str();
    EXPECT_EQ(err.str().find("not a visible node"), std::string::npos);
    EXPECT_EQ(s.stateDigest(), digest);

    std::ostringstream missing;
    EXPECT_FALSE(cli.execute("move nope 1 1", missing));
    EXPECT_NE(missing.str().find("not a visible node"), std::string::npos);
}
