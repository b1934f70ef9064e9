/**
 * @file
 * One test per reader error path: every rejection branch of
 * trace::readTrace and the structural branches of trace::readPajeTrace
 * must yield a structured support::Error -- correct code, a message
 * naming the offending line, and a non-empty file:line context chain --
 * never a crash or a fatal().
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/error.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"

namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

/** Parse a native-format document and expect a rejection. */
vs::Error
rejectTrace(const std::string &body,
            const vt::ParseBudget &budget = {})
{
    std::istringstream in(body);
    auto result = vt::readTrace(in, budget);
    EXPECT_FALSE(result.ok()) << "input unexpectedly accepted:\n" << body;
    if (result.ok())
        return VIVA_ERROR(vs::Errc::Invalid, "accepted");
    return result.error();
}

/** Parse a Paje document and expect a rejection. */
vs::Error
rejectPaje(const std::string &body,
           const vt::ParseBudget &budget = {})
{
    std::istringstream in(body);
    auto result = vt::readPajeTrace(in, budget);
    EXPECT_FALSE(result.ok()) << "input unexpectedly accepted:\n" << body;
    if (result.ok())
        return VIVA_ERROR(vs::Errc::Invalid, "accepted");
    return result.error();
}

void
expectParse(const vs::Error &e, const std::string &needle)
{
    EXPECT_EQ(e.code(), vs::Errc::Parse) << e.toString();
    EXPECT_NE(e.toString().find(needle), std::string::npos) << e.toString();
    EXPECT_FALSE(e.context().empty());
}

/** A valid prefix: header, two containers, one metric. */
const char *kPrefix =
    "viva-trace 1\n"
    "container 1 - host alpha\n"
    "container 2 - host beta\n"
    "metric 0 gauge - W power\n";

std::string
doc(const std::string &tail)
{
    return std::string(kPrefix) + tail;
}

} // namespace

// --- header and framing --------------------------------------------------------

TEST(ReadTraceErrors, EmptyInput)
{
    expectParse(rejectTrace(""), "empty input");
}

TEST(ReadTraceErrors, MissingHeader)
{
    expectParse(rejectTrace("container 1 - host a\n"),
                "missing 'viva-trace 1' header");
}

TEST(ReadTraceErrors, UnknownVerb)
{
    vs::Error e = rejectTrace(doc("frobnicate 1 2 3\n"));
    expectParse(e, "unknown record 'frobnicate'");
    // The message carries the line number of the offending record.
    EXPECT_NE(e.toString().find("line 5"), std::string::npos) << e.toString();
}

TEST(ReadTraceErrors, CommentsAndBlanksAreAccepted)
{
    std::istringstream in(doc("\n# a comment\n  \n"));
    auto result = vt::readTrace(in);
    ASSERT_TRUE(result.ok()) << result.error().toString();
    EXPECT_EQ(result->containerCount(), 3u);
}

// --- container records ---------------------------------------------------------

TEST(ReadTraceErrors, MalformedContainerRecord)
{
    expectParse(rejectTrace("viva-trace 1\ncontainer 1 -\n"),
                "malformed container record");
}

TEST(ReadTraceErrors, BadContainerId)
{
    expectParse(rejectTrace("viva-trace 1\ncontainer xyz - host a\n"),
                "bad container id");
}

TEST(ReadTraceErrors, BadParentId)
{
    expectParse(rejectTrace("viva-trace 1\ncontainer 1 99 host a\n"),
                "bad parent id");
}

TEST(ReadTraceErrors, ContainerNameWithSlash)
{
    expectParse(rejectTrace("viva-trace 1\ncontainer 1 - host a/b\n"),
                "must not contain '/'");
}

TEST(ReadTraceErrors, DuplicateContainer)
{
    expectParse(rejectTrace("viva-trace 1\n"
                            "container 1 - host a\n"
                            "container 2 - host a\n"),
                "duplicate container 'a'");
}

TEST(ReadTraceErrors, NonDenseContainerIds)
{
    expectParse(rejectTrace("viva-trace 1\ncontainer 7 - host a\n"),
                "container ids must be dense");
}

// --- metric records ------------------------------------------------------------

TEST(ReadTraceErrors, MalformedMetricRecord)
{
    expectParse(rejectTrace("viva-trace 1\nmetric 0 gauge -\n"),
                "malformed metric record");
}

TEST(ReadTraceErrors, BadMetricId)
{
    expectParse(rejectTrace("viva-trace 1\nmetric abc gauge - - m\n"),
                "bad metric id");
}

TEST(ReadTraceErrors, BadCapacityOfId)
{
    expectParse(rejectTrace("viva-trace 1\nmetric 0 gauge 42 - m\n"),
                "bad capacityOf id");
}

TEST(ReadTraceErrors, DuplicateMetric)
{
    expectParse(rejectTrace("viva-trace 1\n"
                            "metric 0 gauge - - m\n"
                            "metric 1 gauge - - m\n"),
                "duplicate metric 'm'");
}

TEST(ReadTraceErrors, NonDenseMetricIds)
{
    expectParse(rejectTrace("viva-trace 1\nmetric 3 gauge - - m\n"),
                "metric ids must be dense");
}

// --- relation records ----------------------------------------------------------

TEST(ReadTraceErrors, MalformedRelRecord)
{
    expectParse(rejectTrace(doc("rel 1\n")), "malformed rel record");
}

TEST(ReadTraceErrors, BadRelEndpoints)
{
    expectParse(rejectTrace(doc("rel 1 99\n")), "bad rel endpoints");
}

// --- point records -------------------------------------------------------------

TEST(ReadTraceErrors, MalformedPointRecord)
{
    expectParse(rejectTrace(doc("p 1 0 2.5\n")), "malformed point record");
}

TEST(ReadTraceErrors, BadPointFields)
{
    expectParse(rejectTrace(doc("p 1 0 xx 1\n")), "bad point fields");
}

TEST(ReadTraceErrors, NonFinitePointFields)
{
    expectParse(rejectTrace(doc("p 1 0 inf 1\n")),
                "non-finite point fields");
    expectParse(rejectTrace(doc("p 1 0 0 nan\n")),
                "non-finite point fields");
    // Out of range parses (as strtod does) to inf, so it is rejected as
    // non-finite, not as unparseable.
    expectParse(rejectTrace(doc("p 1 0 1e400 1\n")),
                "non-finite point fields");
}

TEST(ReadTraceErrors, PointReferencesUnknownIds)
{
    expectParse(rejectTrace(doc("p 9 0 0 1\n")),
                "point references unknown ids");
    expectParse(rejectTrace(doc("p 1 5 0 1\n")),
                "point references unknown ids");
}

// --- state records -------------------------------------------------------------

TEST(ReadTraceErrors, MalformedStateRecord)
{
    expectParse(rejectTrace(doc("state 1 0 1\n")),
                "malformed state record");
}

TEST(ReadTraceErrors, BadStateFields)
{
    expectParse(rejectTrace(doc("state 1 xx 1 running\n")),
                "bad state fields");
    expectParse(rejectTrace(doc("state 9 0 1 running\n")),
                "bad state fields");
}

TEST(ReadTraceErrors, NonFiniteStateInterval)
{
    expectParse(rejectTrace(doc("state 1 0 inf running\n")),
                "non-finite state interval");
}

TEST(ReadTraceErrors, ReversedStateInterval)
{
    expectParse(rejectTrace(doc("state 1 5 1 running\n")),
                "reversed state interval");
}

// --- file-level wrappers -------------------------------------------------------

TEST(ReadTraceErrors, MissingFileYieldsIoError)
{
    auto result = vt::readTraceFile("/no/such/dir/missing.viva");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
    EXPECT_NE(result.error().toString().find("missing.viva"),
              std::string::npos);
}

TEST(ReadTraceErrors, FileErrorsCarryThePathAsContext)
{
    auto dir = std::filesystem::temp_directory_path() / "viva_io_error_test";
    std::filesystem::create_directories(dir);
    std::string path = (dir / "broken.viva").string();
    {
        std::ofstream out(path);
        out << "viva-trace 1\ncontainer xyz - host a\n";
    }
    auto result = vt::readTraceFile(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Parse);
    // Two frames: the parse site, and the readTraceFile wrapper naming
    // the file.
    EXPECT_GE(result.error().context().size(), 2u);
    EXPECT_NE(result.error().toString().find("reading '" + path + "'"),
              std::string::npos)
        << result.error().toString();
}

TEST(ReadTraceErrors, WriteToUnwritablePathYieldsIoError)
{
    auto result = vt::writeTraceFile(vt::makeFigure1Trace(),
                                     "/no/such/dir/out.viva");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

// --- Paje reader ---------------------------------------------------------------

namespace
{

/** A minimal well-formed Paje preamble defining PajeCreateContainer. */
const char *kPajePrefix =
    "%EventDef PajeCreateContainer 1\n"
    "% Time date\n"
    "% Alias string\n"
    "% Type string\n"
    "% Container string\n"
    "% Name string\n"
    "%EndEventDef\n";

/** kPajePrefix plus a variable type, a host "c1" and PajeSetVariable
 * (event 4: Time, Type, Container, Value). */
std::string
pajeVariablePrefix()
{
    return std::string(kPajePrefix) +
           "%EventDef PajeDefineVariableType 2\n"
           "% Alias string\n"
           "% Type string\n"
           "% Name string\n"
           "%EndEventDef\n"
           "%EventDef PajeSetVariable 4\n"
           "% Time date\n"
           "% Type string\n"
           "% Container string\n"
           "% Value double\n"
           "%EndEventDef\n"
           "2 v0 0 \"power\"\n"
           "1 0 c1 host 0 \"h\"\n";
}

} // namespace

TEST(ReadPajeErrors, MalformedEventDef)
{
    expectParse(rejectPaje("%EventDef PajeCreateContainer\n"),
                "malformed %EventDef");
}

TEST(ReadPajeErrors, EndEventDefWithoutDef)
{
    expectParse(rejectPaje("%EndEventDef\n"), "%EndEventDef without def");
}

TEST(ReadPajeErrors, MalformedFieldDefinition)
{
    expectParse(rejectPaje("%EventDef PajeCreateContainer 1\n% Time\n"),
                "malformed field definition");
}

TEST(ReadPajeErrors, UnterminatedEventDef)
{
    expectParse(rejectPaje("%EventDef PajeCreateContainer 1\n% Time date\n"),
                "unterminated %EventDef");
}

TEST(ReadPajeErrors, UnterminatedQuote)
{
    expectParse(rejectPaje(std::string(kPajePrefix) +
                           "1 0.0 a T 0 \"unclosed\n"),
                "unterminated quote");
}

TEST(ReadPajeErrors, UnknownEventId)
{
    expectParse(rejectPaje(std::string(kPajePrefix) + "99 0.0 a b c d\n"),
                "unknown event id '99'");
}

TEST(ReadPajeErrors, TooFewFields)
{
    expectParse(rejectPaje(std::string(kPajePrefix) + "1 0.0 a\n"),
                "too few fields");
}

TEST(ReadPajeErrors, EmptyContainerName)
{
    expectParse(rejectPaje(std::string(kPajePrefix) +
                           "1 0.0 c1 T 0 \"\"\n"),
                "empty container name");
}

TEST(ReadPajeErrors, NonFiniteVariableValue)
{
    // The Paje point record: a value out of range parses to inf and is
    // refused like an unparseable one.
    const std::string prefix = pajeVariablePrefix();
    expectParse(rejectPaje(prefix + "4 1 v0 c1 1e400\n"),
                "PajeSetVariable needs fields");
    expectParse(rejectPaje(prefix + "4 1 v0 c1 -1e400\n"),
                "PajeSetVariable needs fields");
    std::istringstream in(prefix + "4 1 v0 c1 1e-400\n");
    auto accepted = vt::readPajeTrace(in);
    ASSERT_TRUE(accepted.ok()) << accepted.error().toString();
    EXPECT_EQ(accepted.value().eventCount, 3u);
}

TEST(ReadPajeErrors, NonFiniteOrUnparseableTime)
{
    // A Time that is out of range, infinite, NaN or not a number is
    // refused; it would otherwise put a point at t = inf or silently
    // at t = 0.
    const std::string prefix = pajeVariablePrefix();
    for (const char *time : {"1e400", "-1e400", "inf", "-inf", "nan",
                             "x", "1.5s", "0x"}) {
        SCOPED_TRACE(time);
        expectParse(rejectPaje(prefix + "4 " + time + " v0 c1 5\n"),
                    "PajeSetVariable has a bad Time");
    }
    expectParse(rejectPaje(std::string(kPajePrefix) +
                           "1 later c1 host 0 \"h\"\n"),
                "PajeCreateContainer has a bad Time 'later'");

    // An underflowing Time reads as 0 and is kept.
    std::istringstream in(prefix + "4 1e-400 v0 c1 5\n4 2 v0 c1 6\n");
    auto accepted = vt::readPajeTrace(in);
    ASSERT_TRUE(accepted.ok()) << accepted.error().toString();
    EXPECT_EQ(accepted.value().eventCount, 4u);
    EXPECT_EQ(accepted.value().trace.span().begin, 0.0);
    EXPECT_EQ(accepted.value().trace.span().end, 2.0);
}

TEST(ReadPajeErrors, MissingPajeFileYieldsIoError)
{
    auto result = vt::readPajeTraceFile("/no/such/dir/missing.paje");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

TEST(ReadPajeErrors, RoundTripStillWorks)
{
    std::ostringstream out;
    vt::writePajeTrace(vt::makeFigure1Trace(), out);
    std::istringstream in(out.str());
    auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.ok()) << result.error().toString();
    EXPECT_EQ(result->trace.containerCount(),
              vt::makeFigure1Trace().containerCount());
}
