/**
 * @file
 * Implementation of trace serialization.
 */

#include "trace/io.hh"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/fault.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::trace
{

namespace obs = support::obs;

using support::Errc;
using support::formatDouble;
using support::parseDouble;
using support::parseSize;
using support::split;
using support::trim;

void
writeTrace(const Trace &trace, std::ostream &out)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("trace.write");
    static const obs::CounterId records = reg.counter("trace.write.records");
    obs::ScopedPhase timer(phase);
    std::uint64_t written = 0;

    out << "viva-trace 1\n";

    for (ContainerId id{1}; id.index() < trace.containerCount(); ++id) {
        const Container &c = trace.container(id);
        out << "container " << id << ' ';
        if (c.parent == trace.root())
            out << '-';
        else
            out << c.parent;
        out << ' ' << containerKindName(c.kind) << ' ' << c.name << '\n';
    }

    for (MetricId id{0}; id.index() < trace.metricCount(); ++id) {
        const Metric &m = trace.metric(id);
        out << "metric " << id << ' ' << metricNatureName(m.nature) << ' ';
        if (m.capacityOf == kNoMetric)
            out << '-';
        else
            out << m.capacityOf;
        out << ' ' << (m.unit.empty() ? "-" : m.unit) << ' ' << m.name
            << '\n';
    }

    for (const Trace::Relation &r : trace.relations())
        out << "rel " << r.a << ' ' << r.b << '\n';

    for (ContainerId c{0}; c.index() < trace.containerCount(); ++c) {
        for (MetricId m{0}; m.index() < trace.metricCount(); ++m) {
            const Variable *var = trace.findVariable(c, m);
            if (!var)
                continue;
            for (const Variable::Point &p : var->changePoints()) {
                out << "p " << c << ' ' << m << ' ' << formatDouble(p.time)
                    << ' ' << formatDouble(p.value) << '\n';
                ++written;
            }
        }
    }

    for (const Trace::StateRecord &s : trace.states()) {
        out << "state " << s.container << ' ' << formatDouble(s.begin)
            << ' ' << formatDouble(s.end) << ' ' << s.state << '\n';
        ++written;
    }

    written += trace.containerCount() - 1 + trace.metricCount() +
               trace.relations().size();
    reg.add(records, written);
}

support::Expected<void>
writeTraceFile(const Trace &trace, const std::string &path)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::CounterId errors = reg.counter("trace.write.errors");

    std::ofstream out(path);
    if (!out) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "cannot open '", path,
                          "' for writing");
    }
    writeTrace(trace, out);
    out.flush();
    if (!out || support::faultAt("trace.write.stream")) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "write failed for '", path, "'");
    }
    return {};
}

namespace
{

/** Split off the first n whitespace fields; the remainder is the name. */
bool
splitFields(const std::string &line, std::size_t n,
            std::vector<std::string> &fields, std::string &rest)
{
    fields.clear();
    std::size_t i = 0;
    auto skip_ws = [&] {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    for (std::size_t f = 0; f < n; ++f) {
        skip_ws();
        std::size_t start = i;
        while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i == start)
            return false;
        fields.emplace_back(line.substr(start, i - start));
    }
    skip_ws();
    rest = line.substr(i);
    // Trim trailing whitespace (e.g. CR from DOS files).
    rest = trim(rest);
    return true;
}

} // namespace

support::Expected<Trace>
readTrace(std::istream &in, const ParseBudget &budget)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("trace.read");
    static const obs::CounterId record_count =
        reg.counter("trace.read.records");
    static const obs::CounterId errors = reg.counter("trace.read.errors");
    obs::ScopedPhase timer(phase);

    std::size_t line_no = 0;
    auto fail = [&](Errc code,
                    const std::string &msg) -> support::Error {
        reg.add(errors);
        std::ostringstream os;
        os << "line " << line_no << ": " << msg;
        return VIVA_ERROR(code, os.str());
    };

    std::string line;

    if (!std::getline(in, line))
        return fail(Errc::Parse, "empty input");
    ++line_no;
    if (trim(line) != "viva-trace 1")
        return fail(Errc::Parse, "missing 'viva-trace 1' header");

    Trace trace;
    std::vector<std::string> fields;
    std::string rest;
    std::size_t records = 0;

    while (std::getline(in, line)) {
        ++line_no;
        if (support::faultAt("trace.read.stream"))
            return fail(Errc::Io, "injected stream read failure");
        if (line.size() > budget.maxLineLength ||
            support::faultAt("trace.parse.budget"))
            return fail(Errc::Budget,
                        "line exceeds the parse budget (" +
                            std::to_string(budget.maxLineLength) +
                            " bytes)");
        std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;

        std::size_t sp = stripped.find(' ');
        std::string verb = sp == std::string::npos
                               ? stripped
                               : stripped.substr(0, sp);
        std::string body = sp == std::string::npos
                               ? std::string()
                               : stripped.substr(sp + 1);

        if (verb == "container") {
            if (!splitFields(body, 3, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed container record");
            std::size_t id = 0;
            if (!parseSize(fields[0], id))
                return fail(Errc::Parse, "bad container id");
            if (trace.containerCount() >= budget.maxContainers)
                return fail(Errc::Budget,
                            "container count exceeds the parse budget");
            ContainerId parent = trace.root();
            if (fields[1] != "-") {
                std::size_t p = 0;
                if (!parseSize(fields[1], p) || p >= trace.containerCount())
                    return fail(Errc::Parse, "bad parent id");
                parent = ContainerId::fromIndex(p);
            }
            ContainerKind kind = containerKindFromName(fields[2]);
            if (rest.find('/') != std::string::npos)
                return fail(Errc::Parse,
                            "container name '" + rest +
                                "' must not contain '/'");
            if (trace.findChild(parent, rest) != kNoContainer)
                return fail(Errc::Parse,
                            "duplicate container '" + rest + "'");
            ContainerId got = trace.addContainer(rest, kind, parent);
            if (got.index() != id)
                return fail(Errc::Parse, "container ids must be dense");
        } else if (verb == "metric") {
            if (!splitFields(body, 4, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed metric record");
            std::size_t id = 0;
            if (!parseSize(fields[0], id))
                return fail(Errc::Parse, "bad metric id");
            if (trace.metricCount() >= budget.maxMetrics)
                return fail(Errc::Budget,
                            "metric count exceeds the parse budget");
            MetricNature nature = metricNatureFromName(fields[1]);
            MetricId cap = kNoMetric;
            if (fields[2] != "-") {
                std::size_t c = 0;
                if (!parseSize(fields[2], c) || c >= trace.metricCount())
                    return fail(Errc::Parse, "bad capacityOf id");
                cap = MetricId::fromIndex(c);
            }
            std::string unit = fields[3] == "-" ? "" : fields[3];
            if (trace.findMetric(rest) != kNoMetric)
                return fail(Errc::Parse,
                            "duplicate metric '" + rest + "'");
            MetricId got = trace.addMetric(rest, unit, nature, cap);
            if (got.index() != id)
                return fail(Errc::Parse, "metric ids must be dense");
        } else if (verb == "rel") {
            if (!splitFields(body, 2, fields, rest) || !rest.empty())
                return fail(Errc::Parse, "malformed rel record");
            std::size_t a = 0, b = 0;
            if (!parseSize(fields[0], a) || !parseSize(fields[1], b) ||
                a >= trace.containerCount() || b >= trace.containerCount())
                return fail(Errc::Parse, "bad rel endpoints");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            trace.addRelation(ContainerId::fromIndex(a), ContainerId::fromIndex(b));
        } else if (verb == "p") {
            if (!splitFields(body, 4, fields, rest) || !rest.empty())
                return fail(Errc::Parse, "malformed point record");
            std::size_t c = 0, m = 0;
            double t = 0, v = 0;
            if (!parseSize(fields[0], c) || !parseSize(fields[1], m) ||
                !parseDouble(fields[2], t) || !parseDouble(fields[3], v))
                return fail(Errc::Parse, "bad point fields");
            if (!std::isfinite(t) || !std::isfinite(v))
                return fail(Errc::Parse, "non-finite point fields");
            if (c >= trace.containerCount() || m >= trace.metricCount())
                return fail(Errc::Parse, "point references unknown ids");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            trace.variable(ContainerId::fromIndex(c), MetricId::fromIndex(m)).set(t, v);
        } else if (verb == "state") {
            if (!splitFields(body, 3, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed state record");
            std::size_t c = 0;
            double b = 0, e = 0;
            if (!parseSize(fields[0], c) || !parseDouble(fields[1], b) ||
                !parseDouble(fields[2], e) || c >= trace.containerCount())
                return fail(Errc::Parse, "bad state fields");
            if (!std::isfinite(b) || !std::isfinite(e))
                return fail(Errc::Parse, "non-finite state interval");
            if (b > e)
                return fail(Errc::Parse, "reversed state interval");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            trace.addState(ContainerId::fromIndex(c), b, e, rest);
        } else {
            return fail(Errc::Parse, "unknown record '" + verb + "'");
        }
    }

    if (in.bad())
        return fail(Errc::Io, "stream read failure");
    reg.add(record_count, records + trace.containerCount() - 1 +
                              trace.metricCount());
    // Finalize at load time, so every later Eq.-1 query (interactive
    // or batch) finds the closure fresh.
    trace.ensureClosure();
    return trace;
}

support::Expected<Trace>
readTraceFile(const std::string &path, const ParseBudget &budget)
{
    std::ifstream in(path);
    if (!in)
        return VIVA_ERROR(Errc::Io, "cannot open '", path, "'");
    support::Expected<Trace> result = readTrace(in, budget);
    if (!result)
        return VIVA_ERROR_CONTEXT(result.error(), "reading '", path,
                                  "'");
    return result;
}

} // namespace viva::trace
