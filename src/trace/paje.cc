/**
 * @file
 * Implementation of the Paje subset reader/writer.
 *
 * Round-trip notes: writePajeTrace() emits states as PushState/PopState
 * pairs, which readPajeTrace() reconstructs exactly for the common case
 * of non-overlapping per-container states; overlapping intervals are
 * attributed by stack order (a limitation of the Paje state model
 * itself). Everything else (hierarchy, kinds, metrics, change points,
 * relations) round-trips exactly.
 */

#include "trace/paje.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

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
using support::toLower;
using support::trim;

namespace
{

/** One field of an event definition. */
struct FieldDef
{
    std::string name;   // as declared (Time, Container, ...)
    std::string type;   // date, double, int, string
};

/** One %EventDef block. */
struct EventDef
{
    std::string name;   // PajeCreateContainer, ...
    std::vector<FieldDef> fields;
};

/** Tokenize a data line: whitespace-separated, double-quoted strings. */
bool
tokenize(const std::string &line, std::vector<std::string> &out)
{
    out.clear();
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= line.size())
            break;
        if (line[i] == '"') {
            std::size_t close = line.find('"', i + 1);
            if (close == std::string::npos)
                return false;  // unterminated quote
            out.push_back(line.substr(i + 1, close - i - 1));
            i = close + 1;
        } else {
            std::size_t start = i;
            while (i < line.size() &&
                   !std::isspace(static_cast<unsigned char>(line[i])))
                ++i;
            out.push_back(line.substr(start, i - start));
        }
    }
    return true;
}

/** Infer our container kind from a Paje container-type name. */
ContainerKind
kindFromTypeName(const std::string &name)
{
    std::string n = toLower(name);
    auto has = [&](const char *s) {
        return n.find(s) != std::string::npos;
    };
    if (has("host") || has("machine") || has("node"))
        return ContainerKind::Host;
    if (has("link"))
        return ContainerKind::Link;
    if (has("cluster"))
        return ContainerKind::Cluster;
    if (has("site"))
        return ContainerKind::Site;
    if (has("router") || has("switch"))
        return ContainerKind::Router;
    if (has("process") || has("thread") || has("mpi") || has("rank"))
        return ContainerKind::Process;
    if (has("grid") || has("platform"))
        return ContainerKind::Grid;
    if (has("root"))
        return ContainerKind::Root;
    return ContainerKind::Custom;
}

/** Infer a metric nature from a Paje variable-type name. */
MetricNature
natureFromName(const std::string &name)
{
    std::string n = toLower(name);
    if (n.find("used") != std::string::npos ||
        n.find("utilization") != std::string::npos ||
        n.find("load") != std::string::npos)
        return MetricNature::Utilization;
    if (n.find("power") != std::string::npos ||
        n.find("bandwidth") != std::string::npos ||
        n.find("capacity") != std::string::npos)
        return MetricNature::Capacity;
    return MetricNature::Gauge;
}

/** An open state on a container's stack. */
struct OpenState
{
    double begin;
    std::string value;
};

} // namespace

support::Expected<PajeImport>
readPajeTrace(std::istream &in, const ParseBudget &budget)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("paje.read");
    static const obs::CounterId errors = reg.counter("paje.read.errors");
    obs::ScopedPhase timer(phase);

    std::size_t line_no = 0;
    auto fail = [&](Errc code,
                    const std::string &msg) -> support::Error {
        reg.add(errors);
        std::ostringstream os;
        os << "line " << line_no << ": " << msg;
        return VIVA_ERROR(code, os.str());
    };

    PajeImport result;
    Trace &trace = result.trace;

    std::unordered_map<std::string, EventDef> defs;  // by event id
    std::unordered_map<std::string, ContainerKind> typeKind;
    std::unordered_map<std::string, MetricId> metricByAlias;
    std::unordered_map<std::string, ContainerId> containerByAlias;
    // (container, state-type) -> stack of open states
    std::map<std::pair<ContainerId, std::string>,
             std::vector<OpenState>>
        stateStack;
    // pending StartLink halves, by key
    std::unordered_map<std::string, std::string> linkSource;
    double last_time = 0.0;

    auto resolveContainer =
        [&](const std::string &ref) -> ContainerId {
        auto it = containerByAlias.find(ref);
        if (it != containerByAlias.end())
            return it->second;
        // Also accept container names and the conventional root "0".
        if (ref == "0" || ref.empty())
            return trace.root();
        ContainerId by_name = trace.findByName(ref);
        return by_name;  // may be kNoContainer
    };

    std::string line;
    std::optional<EventDef> building;
    std::string building_id;

    std::vector<std::string> tokens;
    while (std::getline(in, line)) {
        ++line_no;
        if (support::faultAt("paje.read.stream"))
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

        // --- header ------------------------------------------------------
        if (stripped[0] == '%') {
            std::vector<std::string> parts =
                support::splitWhitespace(stripped.substr(1));
            if (parts.empty())
                continue;
            if (parts[0] == "EventDef") {
                if (parts.size() < 3)
                    return fail(Errc::Parse, "malformed %EventDef");
                building = EventDef{parts[1], {}};
                building_id = parts[2];
            } else if (parts[0] == "EndEventDef") {
                if (!building)
                    return fail(Errc::Parse, "%EndEventDef without def");
                defs[building_id] = *building;
                building.reset();
            } else if (building) {
                if (parts.size() < 2)
                    return fail(Errc::Parse, "malformed field definition");
                building->fields.push_back({parts[0], parts[1]});
            }
            continue;
        }

        // --- data -----------------------------------------------------------
        if (!tokenize(stripped, tokens))
            return fail(Errc::Parse, "unterminated quote");
        if (tokens.empty())
            continue;
        auto def_it = defs.find(tokens[0]);
        if (def_it == defs.end())
            return fail(Errc::Parse, "unknown event id '" + tokens[0] + "'");
        const EventDef &def = def_it->second;
        if (tokens.size() - 1 < def.fields.size())
            return fail(Errc::Parse, "too few fields for " + def.name);

        // Field lookup by name.
        auto field = [&](const char *name) -> const std::string * {
            for (std::size_t f = 0; f < def.fields.size(); ++f)
                if (def.fields[f].name == name)
                    return &tokens[f + 1];
            return nullptr;
        };
        auto numField = [&](const char *name, double &v) {
            const std::string *s = field(name);
            // Reject inf/nan: strtod accepts them, but a non-finite
            // time or value would poison downstream aggregation.
            return s && parseDouble(*s, v) && std::isfinite(v);
        };

        if (result.eventCount >= budget.maxRecords)
            return fail(Errc::Budget,
                        "event count exceeds the parse budget");

        double time = 0.0;
        if (numField("Time", time))
            last_time = std::max(last_time, time);

        if (def.name == "PajeDefineContainerType") {
            const std::string *alias = field("Alias");
            const std::string *name = field("Name");
            if (!alias || !name)
                return fail(Errc::Parse, def.name + " needs Alias/Name");
            typeKind[*alias] = kindFromTypeName(*name);
            // Names can also be used as type references.
            typeKind.emplace(*name, kindFromTypeName(*name));
        } else if (def.name == "PajeDefineVariableType") {
            const std::string *alias = field("Alias");
            const std::string *name = field("Name");
            if (!alias || !name)
                return fail(Errc::Parse, def.name + " needs Alias/Name");
            if (trace.metricCount() >= budget.maxMetrics)
                return fail(Errc::Budget,
                            "metric count exceeds the parse budget");
            MetricId m =
                trace.addMetric(*name, "", natureFromName(*name));
            metricByAlias[*alias] = m;
            metricByAlias.emplace(*name, m);
        } else if (def.name == "PajeDefineStateType" ||
                   def.name == "PajeDefineEntityValue" ||
                   def.name == "PajeDefineEventType" ||
                   def.name == "PajeDefineLinkType") {
            // State/link types carry no data we must keep.
        } else if (def.name == "PajeCreateContainer") {
            const std::string *alias = field("Alias");
            const std::string *type = field("Type");
            const std::string *parent = field("Container");
            const std::string *name = field("Name");
            if (!alias || !name || !parent)
                return fail(Errc::Parse, def.name + " needs fields");
            // Guard Trace::addContainer()'s preconditions: corrupt
            // input must yield an Error, not an assertion failure.
            if (name->empty())
                return fail(Errc::Parse, "empty container name");
            if (name->find('/') != std::string::npos)
                return fail(Errc::Parse,
                            "container name '" + *name +
                                "' must not contain '/'");
            if (trace.containerCount() >= budget.maxContainers)
                return fail(Errc::Budget,
                            "container count exceeds the parse budget");
            ContainerId parent_id = resolveContainer(*parent);
            if (parent_id == kNoContainer) {
                result.warnings.push_back(
                    "unknown parent '" + *parent + "', attaching '" +
                    *name + "' to root");
                parent_id = trace.root();
            }
            ContainerKind kind = ContainerKind::Custom;
            if (type) {
                auto k = typeKind.find(*type);
                if (k != typeKind.end())
                    kind = k->second;
            }
            if (trace.findChild(parent_id, *name) != kNoContainer)
                return fail(Errc::Parse,
                            "duplicate container '" + *name + "'");
            ContainerId id = trace.addContainer(*name, kind, parent_id);
            containerByAlias[*alias] = id;
        } else if (def.name == "PajeDestroyContainer") {
            // Destruction only ends observation; nothing to remove.
        } else if (def.name == "PajeSetVariable" ||
                   def.name == "PajeAddVariable" ||
                   def.name == "PajeSubVariable") {
            const std::string *type = field("Type");
            const std::string *container = field("Container");
            double value = 0.0;
            if (!type || !container || !numField("Value", value))
                return fail(Errc::Parse, def.name + " needs fields");
            ContainerId c = resolveContainer(*container);
            if (c == kNoContainer) {
                result.warnings.push_back("variable on unknown '" +
                                          *container + "' skipped");
                continue;
            }
            auto m = metricByAlias.find(*type);
            if (m == metricByAlias.end()) {
                result.warnings.push_back("unknown variable type '" +
                                          *type + "' skipped");
                continue;
            }
            Variable &var = trace.variable(c, m->second);
            if (def.name == "PajeSetVariable")
                var.set(time, value);
            else if (def.name == "PajeAddVariable")
                var.add(time, value);
            else
                var.add(time, -value);
        } else if (def.name == "PajeSetState" ||
                   def.name == "PajePushState") {
            const std::string *type = field("Type");
            const std::string *container = field("Container");
            const std::string *value = field("Value");
            if (!type || !container || !value)
                return fail(Errc::Parse, def.name + " needs fields");
            ContainerId c = resolveContainer(*container);
            if (c == kNoContainer) {
                result.warnings.push_back("state on unknown '" +
                                          *container + "' skipped");
                continue;
            }
            auto &stack = stateStack[{c, *type}];
            if (def.name == "PajeSetState") {
                // Close whatever is open, then open the new state.
                for (OpenState &open : stack)
                    if (time > open.begin)
                        trace.addState(c, open.begin, time, open.value);
                stack.clear();
                stack.push_back({time, *value});
            } else {
                // Pause the current top, open the pushed state.
                if (!stack.empty() && time > stack.back().begin) {
                    trace.addState(c, stack.back().begin, time,
                                   stack.back().value);
                }
                stack.push_back({time, *value});
            }
        } else if (def.name == "PajePopState") {
            const std::string *type = field("Type");
            const std::string *container = field("Container");
            if (!type || !container)
                return fail(Errc::Parse, def.name + " needs fields");
            ContainerId c = resolveContainer(*container);
            if (c == kNoContainer)
                continue;
            auto &stack = stateStack[{c, *type}];
            if (stack.empty()) {
                result.warnings.push_back(
                    "PopState with empty stack ignored");
                continue;
            }
            if (time > stack.back().begin)
                trace.addState(c, stack.back().begin, time,
                               stack.back().value);
            stack.pop_back();
            if (!stack.empty())
                stack.back().begin = time;  // the paused state resumes
        } else if (def.name == "PajeStartLink") {
            const std::string *key = field("Key");
            const std::string *src = field("StartContainer");
            if (!src)
                src = field("SourceContainer");
            if (!key || !src)
                return fail(Errc::Parse, def.name + " needs fields");
            linkSource[*key] = *src;
        } else if (def.name == "PajeEndLink") {
            const std::string *key = field("Key");
            const std::string *dst = field("EndContainer");
            if (!dst)
                dst = field("DestContainer");
            if (!key || !dst)
                return fail(Errc::Parse, def.name + " needs fields");
            auto src = linkSource.find(*key);
            if (src == linkSource.end()) {
                result.warnings.push_back("EndLink without StartLink ('" +
                                          *key + "')");
                continue;
            }
            ContainerId a = resolveContainer(src->second);
            ContainerId b = resolveContainer(*dst);
            linkSource.erase(src);
            if (a == kNoContainer || b == kNoContainer) {
                result.warnings.push_back(
                    "link between unknown containers skipped");
                continue;
            }
            trace.addRelation(a, b);
        } else {
            result.warnings.push_back("event '" + def.name +
                                      "' not supported, skipped");
            continue;
        }
        ++result.eventCount;
    }

    if (building)
        return fail(Errc::Parse, "unterminated %EventDef");
    if (in.bad())
        return fail(Errc::Io, "stream read failure");

    // Close states left open at the end of observation.
    for (auto &[key, stack] : stateStack) {
        for (OpenState &open : stack) {
            if (last_time > open.begin)
                trace.addState(key.first, open.begin, last_time,
                               open.value);
        }
    }

    // Finalize at load time, like the native reader.
    trace.ensureClosure();
    return result;
}

support::Expected<PajeImport>
readPajeTraceFile(const std::string &path, const ParseBudget &budget)
{
    std::ifstream in(path);
    if (!in)
        return VIVA_ERROR(Errc::Io, "cannot open '", path, "'");
    support::Expected<PajeImport> result = readPajeTrace(in, budget);
    if (!result)
        return VIVA_ERROR_CONTEXT(result.error(), "reading '", path,
                                  "'");
    return result;
}

namespace
{

/** Quote a Paje string field. */
std::string
quoted(const std::string &s)
{
    return '"' + s + '"';
}

} // namespace

void
writePajeTrace(const Trace &trace, std::ostream &out)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("paje.write");
    obs::ScopedPhase timer(phase);

    // --- the canonical header -----------------------------------------------
    out << "%EventDef PajeDefineContainerType 0\n"
           "%  Alias string\n%  Type string\n%  Name string\n"
           "%EndEventDef\n"
           "%EventDef PajeDefineVariableType 1\n"
           "%  Alias string\n%  Type string\n%  Name string\n"
           "%EndEventDef\n"
           "%EventDef PajeDefineStateType 2\n"
           "%  Alias string\n%  Type string\n%  Name string\n"
           "%EndEventDef\n"
           "%EventDef PajeCreateContainer 3\n"
           "%  Time date\n%  Alias string\n%  Type string\n"
           "%  Container string\n%  Name string\n"
           "%EndEventDef\n"
           "%EventDef PajeSetVariable 4\n"
           "%  Time date\n%  Type string\n%  Container string\n"
           "%  Value double\n"
           "%EndEventDef\n"
           "%EventDef PajePushState 5\n"
           "%  Time date\n%  Type string\n%  Container string\n"
           "%  Value string\n"
           "%EndEventDef\n"
           "%EventDef PajePopState 6\n"
           "%  Time date\n%  Type string\n%  Container string\n"
           "%EndEventDef\n"
           "%EventDef PajeStartLink 7\n"
           "%  Time date\n%  Type string\n%  Container string\n"
           "%  Value string\n%  StartContainer string\n%  Key string\n"
           "%EndEventDef\n"
           "%EventDef PajeEndLink 8\n"
           "%  Time date\n%  Type string\n%  Container string\n"
           "%  Value string\n%  EndContainer string\n%  Key string\n"
           "%EndEventDef\n";

    // --- type definitions ----------------------------------------------------
    // One container type per kind actually present.
    bool kind_present[9] = {};
    for (ContainerId id{1}; id.index() < trace.containerCount(); ++id)
        kind_present[std::size_t(trace.container(id).kind)] = true;
    for (std::size_t k = 0; k < 9; ++k) {
        if (!kind_present[k])
            continue;
        const char *name = containerKindName(ContainerKind(k));
        out << "0 " << name << " 0 " << quoted(name) << '\n';
    }
    for (MetricId m{0}; m.index() < trace.metricCount(); ++m) {
        out << "1 v" << m << " 0 " << quoted(trace.metric(m).name)
            << '\n';
    }
    out << "2 S 0 " << quoted("state") << '\n';

    // --- containers -------------------------------------------------------------
    for (ContainerId id{1}; id.index() < trace.containerCount(); ++id) {
        const Container &c = trace.container(id);
        out << "3 0 c" << id << ' ' << containerKindName(c.kind) << ' ';
        if (c.parent == trace.root())
            out << '0';
        else
            out << 'c' << c.parent;
        out << ' ' << quoted(c.name) << '\n';
    }

    // --- variables --------------------------------------------------------------
    for (ContainerId c{0}; c.index() < trace.containerCount(); ++c) {
        for (MetricId m{0}; m.index() < trace.metricCount(); ++m) {
            const Variable *var = trace.findVariable(c, m);
            if (!var)
                continue;
            for (const Variable::Point &p : var->changePoints()) {
                out << "4 " << formatDouble(p.time) << " v" << m << " c"
                    << c << ' ' << formatDouble(p.value) << '\n';
            }
        }
    }

    // --- states (Push/Pop pairs reconstruct the exact intervals).
    // Events must leave in chronological order for the reader's stack
    // semantics; pops sort before pushes at equal timestamps so
    // back-to-back states chain correctly.
    struct StateEvent
    {
        double time;
        int kind;  // 0 = pop, 1 = push
        ContainerId container;
        const std::string *value;
    };
    std::vector<StateEvent> events;
    events.reserve(trace.states().size() * 2);
    for (const Trace::StateRecord &s : trace.states()) {
        if (s.begin >= s.end)
            continue;  // zero-length states are unrepresentable
        events.push_back({s.begin, 1, s.container, &s.state});
        events.push_back({s.end, 0, s.container, nullptr});
    }
    std::sort(events.begin(), events.end(),
              [](const StateEvent &a, const StateEvent &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  return a.kind < b.kind;
              });
    for (const StateEvent &e : events) {
        if (e.kind == 1) {
            out << "5 " << formatDouble(e.time) << " S c" << e.container
                << ' ' << quoted(*e.value) << '\n';
        } else {
            out << "6 " << formatDouble(e.time) << " S c" << e.container
                << '\n';
        }
    }

    // --- relations as zero-duration links ---------------------------------------
    std::size_t key = 0;
    for (const Trace::Relation &r : trace.relations()) {
        out << "7 0 L 0 " << quoted("rel") << " c" << r.a << " k" << key
            << '\n';
        out << "8 0 L 0 " << quoted("rel") << " c" << r.b << " k" << key
            << '\n';
        ++key;
    }
}

support::Expected<void>
writePajeTraceFile(const Trace &trace, const std::string &path)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::CounterId errors = reg.counter("trace.write.errors");

    std::ofstream out(path);
    if (!out) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "cannot open '", path,
                          "' for writing");
    }
    writePajeTrace(trace, out);
    out.flush();
    if (!out || support::faultAt("trace.write.stream")) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "write failed for '", path, "'");
    }
    return {};
}

} // namespace viva::trace
