/**
 * @file
 * Implementation of the Trace.
 */

#include "trace/trace.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::trace
{

const char *
containerKindName(ContainerKind kind)
{
    switch (kind) {
      case ContainerKind::Root: return "root";
      case ContainerKind::Grid: return "grid";
      case ContainerKind::Site: return "site";
      case ContainerKind::Cluster: return "cluster";
      case ContainerKind::Host: return "host";
      case ContainerKind::Link: return "link";
      case ContainerKind::Router: return "router";
      case ContainerKind::Process: return "process";
      case ContainerKind::Custom: return "custom";
    }
    return "custom";
}

ContainerKind
containerKindFromName(const std::string &name)
{
    static const std::pair<const char *, ContainerKind> table[] = {
        {"root", ContainerKind::Root},       {"grid", ContainerKind::Grid},
        {"site", ContainerKind::Site},       {"cluster", ContainerKind::Cluster},
        {"host", ContainerKind::Host},       {"link", ContainerKind::Link},
        {"router", ContainerKind::Router},   {"process", ContainerKind::Process},
        {"custom", ContainerKind::Custom},
    };
    for (const auto &[key, kind] : table)
        if (name == key)
            return kind;
    return ContainerKind::Custom;
}

const char *
metricNatureName(MetricNature nature)
{
    switch (nature) {
      case MetricNature::Capacity: return "capacity";
      case MetricNature::Utilization: return "utilization";
      case MetricNature::Gauge: return "gauge";
      case MetricNature::Counter: return "counter";
    }
    return "gauge";
}

MetricNature
metricNatureFromName(const std::string &name)
{
    if (name == "capacity")
        return MetricNature::Capacity;
    if (name == "utilization")
        return MetricNature::Utilization;
    if (name == "counter")
        return MetricNature::Counter;
    return MetricNature::Gauge;
}

Trace::Trace()
{
    Container root_node;
    root_node.id = ContainerId{0};
    root_node.name = "root";
    root_node.kind = ContainerKind::Root;
    root_node.parent = kNoContainer;
    root_node.depth = 0;
    nodes.push_back(std::move(root_node));
}

Trace::Trace(const Trace &other)
    : nodes(other.nodes), metricTable(other.metricTable),
      metricByName(other.metricByName), vars(other.vars),
      rels(other.rels), relSet(other.relSet),
      stateLog(other.stateLog), mutations(other.mutations)
{
    // `closure` would point into `other`'s variables: rebuild it.
    if (other.closureFresh())
        ensureClosure();
}

Trace &
Trace::operator=(const Trace &other)
{
    if (this != &other)
        *this = Trace(other);
    return *this;
}

ContainerId
Trace::addContainer(const std::string &name, ContainerKind kind,
                    ContainerId parent)
{
    ++mutations;
    VIVA_ASSERT(parent.index() < nodes.size(), "bad parent container id ", parent);
    VIVA_ASSERT(!name.empty(), "container name must not be empty");
    VIVA_ASSERT(name.find('/') == std::string::npos,
                "container name '", name, "' must not contain '/'");
    // A precondition, not an input error: readers validate duplicates
    // before calling (and report a recoverable support::Error), so a
    // duplicate here is a library bug.
    VIVA_ASSERT(findChild(parent, name) == kNoContainer,
                "duplicate container '", name, "' under '",
                fullName(parent), "'");

    Container node;
    node.id = ContainerId::fromIndex(nodes.size());
    node.name = name;
    node.kind = kind;
    node.parent = parent;
    node.depth = std::uint16_t(nodes[parent.index()].depth + 1);
    nodes.push_back(std::move(node));
    nodes[parent.index()].children.push_back(ContainerId::fromIndex(nodes.size() - 1));
    return ContainerId::fromIndex(nodes.size() - 1);
}

const Container &
Trace::container(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return nodes[id.index()];
}

ContainerId
Trace::findChild(ContainerId parent, const std::string &name) const
{
    VIVA_ASSERT(parent.index() < nodes.size(), "bad parent container id ", parent);
    for (ContainerId child : nodes[parent.index()].children)
        if (nodes[child.index()].name == name)
            return child;
    return kNoContainer;
}

ContainerId
Trace::findByPath(const std::string &path) const
{
    ContainerId cur = root();
    if (path.empty())
        return cur;
    for (const std::string &part : support::split(path, '/')) {
        cur = findChild(cur, part);
        if (cur == kNoContainer)
            return kNoContainer;
    }
    return cur;
}

ContainerId
Trace::findByName(const std::string &name) const
{
    ContainerId found = kNoContainer;
    for (const Container &node : nodes) {
        if (node.name == name) {
            if (found != kNoContainer)
                return kNoContainer;  // ambiguous
            found = node.id;
        }
    }
    return found;
}

std::string
Trace::fullName(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    if (id == root())
        return "";
    std::vector<const std::string *> parts;
    for (ContainerId cur = id; cur != root(); cur = nodes[cur.index()].parent)
        parts.push_back(&nodes[cur.index()].name);
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '/';
        out += **it;
    }
    return out;
}

std::vector<ContainerId>
Trace::containersOfKind(ContainerKind kind) const
{
    std::vector<ContainerId> out;
    for (const Container &node : nodes)
        if (node.kind == kind)
            out.push_back(node.id);
    return out;
}

std::vector<ContainerId>
Trace::leavesUnder(ContainerId id) const
{
    std::vector<ContainerId> out;
    for (ContainerId c : subtree(id))
        if (nodes[c.index()].leaf())
            out.push_back(c);
    return out;
}

std::vector<ContainerId>
Trace::subtree(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    std::vector<ContainerId> out;
    std::vector<ContainerId> stack{id};
    while (!stack.empty()) {
        ContainerId cur = stack.back();
        stack.pop_back();
        out.push_back(cur);
        const auto &children = nodes[cur.index()].children;
        for (auto it = children.rbegin(); it != children.rend(); ++it)
            stack.push_back(*it);
    }
    return out;
}

bool
Trace::isAncestorOrSelf(ContainerId anc, ContainerId id) const
{
    VIVA_ASSERT(anc.index() < nodes.size() && id.index() < nodes.size(),
                "bad container id ", anc, " or ", id);
    ContainerId cur = id;
    while (true) {
        if (cur == anc)
            return true;
        if (cur == root())
            return false;
        cur = nodes[cur.index()].parent;
    }
}

ContainerId
Trace::ancestorAtDepth(ContainerId id, std::uint16_t depth) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    ContainerId cur = id;
    while (nodes[cur.index()].depth > depth)
        cur = nodes[cur.index()].parent;
    return cur;
}

MetricId
Trace::addMetric(const std::string &name, const std::string &unit,
                 MetricNature nature, MetricId capacity_of)
{
    auto it = metricByName.find(name);
    if (it != metricByName.end())
        return it->second;
    VIVA_ASSERT(capacity_of == kNoMetric || capacity_of.index() < metricTable.size(),
                "bad capacity metric id ", capacity_of);
    ++mutations;
    Metric m;
    m.id = MetricId::fromIndex(metricTable.size());
    m.name = name;
    m.unit = unit;
    m.nature = nature;
    m.capacityOf = capacity_of;
    metricTable.push_back(m);
    metricByName.emplace(name, m.id);
    return m.id;
}

MetricId
Trace::findMetric(const std::string &name) const
{
    auto it = metricByName.find(name);
    return it == metricByName.end() ? kNoMetric : it->second;
}

const Metric &
Trace::metric(MetricId id) const
{
    VIVA_ASSERT(id.index() < metricTable.size(), "bad metric id ", id);
    return metricTable[id.index()];
}

Variable &
Trace::variable(ContainerId c, MetricId m)
{
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    VIVA_ASSERT(m.index() < metricTable.size(), "bad metric id ", m);
    // The caller gets a mutable reference, so assume it mutates.
    ++mutations;
    return vars[varKey(c, m)];
}

const Variable *
Trace::findVariable(ContainerId c, MetricId m) const
{
    auto it = vars.find(varKey(c, m));
    return it == vars.end() ? nullptr : &it->second;
}

bool
Trace::hasVariable(ContainerId c, MetricId m) const
{
    const Variable *v = findVariable(c, m);
    return v && !v->empty();
}

std::size_t
Trace::pointCount() const
{
    std::size_t n = 0;
    // Integer sum: exactly order-independent.
    for (const auto &[key, var] : vars)  // viva-lint: allow(unordered-iter)
        n += var.pointCount();
    return n;
}

void
Trace::addRelation(ContainerId a, ContainerId b)
{
    VIVA_ASSERT(a.index() < nodes.size() && b.index() < nodes.size(),
                "bad relation endpoints ", a, ", ", b);
    if (a == b)
        return;
    if (!relSet.insert(relKey(a, b)).second)
        return;
    ++mutations;
    rels.push_back({a, b});
}

std::vector<ContainerId>
Trace::neighbors(ContainerId id) const
{
    std::vector<ContainerId> out;
    for (const Relation &r : rels) {
        if (r.a == id)
            out.push_back(r.b);
        else if (r.b == id)
            out.push_back(r.a);
    }
    return out;
}

void
Trace::addState(ContainerId c, double begin, double end,
                const std::string &state)
{
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    VIVA_ASSERT(begin <= end, "reversed state interval");
    ++mutations;
    stateLog.push_back({c, begin, end, state});
}

support::Interval
Trace::span() const
{
    bool any = false;
    double lo = 0.0;
    double hi = 0.0;
    auto fold = [&](double b, double e) {
        if (!any) {
            lo = b;
            hi = e;
            any = true;
        } else {
            lo = std::min(lo, b);
            hi = std::max(hi, e);
        }
    };
    // min/max hull: exactly commutative, any visit order yields the
    // same bits.
    for (const auto &[key, var] : vars)  // viva-lint: allow(unordered-iter)
        if (!var.empty())
            fold(var.firstTime(), var.lastTime());
    for (const StateRecord &s : stateLog)
        fold(s.begin, s.end);
    return support::Interval(lo, hi);
}

void
Trace::ensureClosure()
{
    if (closureFresh())
        return;

    namespace obs = support::obs;
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("trace.closure.build");
    obs::ScopedPhase timer(phase);

    // Preorder of the whole tree; every subtree is one contiguous slab
    // of it. Sizes are filled right-to-left so children are done
    // before their parent.
    closure.preorder = subtree(root());
    closure.preIndex.assign(nodes.size(), 0);
    closure.subtreeSize.assign(nodes.size(), 0);
    for (std::size_t slot = 0; slot < closure.preorder.size(); ++slot)
        closure.preIndex[closure.preorder[slot].index()] =
            std::uint32_t(slot);
    for (std::size_t slot = closure.preorder.size(); slot-- > 0;) {
        ContainerId id = closure.preorder[slot];
        std::uint32_t size = 1;
        for (ContainerId child : nodes[id.index()].children)
            size += closure.subtreeSize[child.index()];
        closure.subtreeSize[id.index()] = size;
    }

    // Per (container, metric): the non-empty carrying variables of the
    // subtree, in preorder-member order -- exactly the sequence the
    // Eq.-1 fold visits, so the cached fold reduces the same values in
    // the same order as the uncached one.
    const std::size_t metrics = metricTable.size();
    closure.carrierVars.clear();
    closure.carrierOff.assign(nodes.size() * metrics + 1, 0);
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const std::uint32_t base = closure.preIndex[ni];
        const std::uint32_t size = closure.subtreeSize[ni];
        for (std::size_t mi = 0; mi < metrics; ++mi) {
            closure.carrierOff[ni * metrics + mi] =
                std::uint32_t(closure.carrierVars.size());
            for (std::uint32_t k = 0; k < size; ++k) {
                ContainerId member = closure.preorder[base + k];
                const Variable *var =
                    findVariable(member, MetricId::fromIndex(mi));
                if (var && !var->empty())
                    closure.carrierVars.push_back(var);
            }
        }
    }
    closure.carrierOff.back() =
        std::uint32_t(closure.carrierVars.size());
    closure.builtVersion = mutations;
}

std::span<const ContainerId>
Trace::cachedSubtree(ContainerId id) const
{
    VIVA_ASSERT(closureFresh(), "closure cache is stale");
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return {closure.preorder.data() + closure.preIndex[id.index()],
            closure.subtreeSize[id.index()]};
}

std::span<const Variable *const>
Trace::carriers(ContainerId c, MetricId m) const
{
    VIVA_ASSERT(closureFresh(), "closure cache is stale");
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    // An unknown metric carries nothing -- same answer findVariable
    // gives (nullptr), so lookups with a failed findMetric stay benign.
    if (m.index() >= metricTable.size())
        return {};
    const std::size_t slot = c.index() * metricTable.size() + m.index();
    return {closure.carrierVars.data() + closure.carrierOff[slot],
            closure.carrierOff[slot + 1] - closure.carrierOff[slot]};
}

support::AuditLog
Trace::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    if (nodes.empty()) {
        auditFail(log, "trace has no root container");
        return log;
    }
    if (nodes[0].id != ContainerId{0} || nodes[0].parent != kNoContainer ||
        nodes[0].depth != 0)
        auditFail(log, "container 0 is not a well-formed root");

    // Hierarchy: slot/id agreement, parent/child symmetry, depth chain,
    // unique sibling names.
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        const Container &c = nodes[i];
        if (c.id != ContainerId::fromIndex(i))
            auditFail(log, "container in slot ", i, " carries id ", c.id);
        if (c.parent.index() >= nodes.size()) {
            auditFail(log, "container ", i, " ('", c.name,
                      "') has bad parent ", c.parent);
            continue;
        }
        const Container &p = nodes[c.parent.index()];
        if (c.depth != p.depth + 1)
            auditFail(log, "container ", i, " ('", c.name, "') at depth ",
                      c.depth, " under parent at depth ", p.depth);
        if (std::count(p.children.begin(), p.children.end(),
                       ContainerId::fromIndex(i)) != 1)
            auditFail(log, "container ", i, " ('", c.name,
                      "') is not listed once by parent ", c.parent);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Container &c = nodes[i];
        for (std::size_t a = 0; a < c.children.size(); ++a) {
            ContainerId child = c.children[a];
            if (child.index() >= nodes.size() || child == ContainerId{0}) {
                auditFail(log, "container ", i, " lists bad child ",
                          child);
                continue;
            }
            if (nodes[child.index()].parent != ContainerId::fromIndex(i))
                auditFail(log, "child ", child, " of container ", i,
                          " points back at ", nodes[child.index()].parent);
            for (std::size_t b = a + 1; b < c.children.size(); ++b)
                if (c.children[b].index() < nodes.size() &&
                    nodes[child.index()].name == nodes[c.children[b].index()].name)
                    auditFail(log, "containers ", child, " and ",
                              c.children[b], " under ", i,
                              " share the name '", nodes[child.index()].name, "'");
        }
    }

    // Metrics and their name index.
    for (std::size_t i = 0; i < metricTable.size(); ++i) {
        const Metric &m = metricTable[i];
        if (m.id != MetricId::fromIndex(i))
            auditFail(log, "metric in slot ", i, " carries id ", m.id);
        if (m.capacityOf != kNoMetric && m.capacityOf.index() >= metricTable.size())
            auditFail(log, "metric '", m.name, "' caps bad metric ",
                      m.capacityOf);
        auto it = metricByName.find(m.name);
        if (it == metricByName.end() || it->second != m.id)
            auditFail(log, "metric '", m.name,
                      "' is missing from the name index");
    }
    if (metricByName.size() != metricTable.size())
        auditFail(log, "metric name index holds ", metricByName.size(),
                  " entries for ", metricTable.size(), " metrics");

    // Variables: valid (container, metric) key, time-sorted points.
    // Keys are sorted first so the log order is deterministic.
    std::vector<std::uint64_t> var_keys;
    var_keys.reserve(vars.size());
    for (const auto &entry : vars)  // viva-lint: allow(unordered-iter)
        var_keys.push_back(entry.first);
    std::sort(var_keys.begin(), var_keys.end());
    for (std::uint64_t key : var_keys) {
        ContainerId c = ContainerId::fromIndex(key >> 16);
        MetricId m = MetricId::fromIndex(key & 0xFFFF);
        if (c.index() >= nodes.size())
            auditFail(log, "variable key references bad container ", c);
        if (m.index() >= metricTable.size())
            auditFail(log, "variable key references bad metric ", m);
        const Variable &var = vars.at(key);
        const auto &points = var.changePoints();
        for (std::size_t i = 1; i < points.size(); ++i)
            if (points[i - 1].time >= points[i].time)
                auditFail(log, "variable (", c, ", ", m,
                          ") has unsorted change points at index ", i);
        if (!var.indexConsistent())
            auditFail(log, "variable (", c, ", ", m,
                      ") carries a prefix integral inconsistent with its "
                      "points");
    }

    // Relations: valid distinct endpoints, deduplicated.
    for (std::size_t i = 0; i < rels.size(); ++i) {
        const Relation &r = rels[i];
        if (r.a.index() >= nodes.size() || r.b.index() >= nodes.size())
            auditFail(log, "relation ", i, " has bad endpoints ", r.a,
                      ", ", r.b);
        if (r.a == r.b)
            auditFail(log, "relation ", i, " is a self-loop on ", r.a);
        if (relSet.find(relKey(r.a, r.b)) == relSet.end())
            auditFail(log, "relation ", i,
                      " is missing from the dedup set");
    }
    if (relSet.size() != rels.size())
        auditFail(log, "dedup set holds ", relSet.size(),
                  " keys for ", rels.size(), " relations");

    // States: valid containers, ordered intervals.
    for (std::size_t i = 0; i < stateLog.size(); ++i) {
        const StateRecord &s = stateLog[i];
        if (s.container.index() >= nodes.size())
            auditFail(log, "state ", i, " references bad container ",
                      s.container);
        if (s.begin > s.end)
            auditFail(log, "state ", i, " has a reversed interval");
    }

    // Closure cache: when fresh, every cached subtree and carrier list
    // must equal an independent recomputation from the hierarchy. A
    // stale cache is vacuously fine -- queries refuse to read it.
    if (closureFresh()) {
        if (closure.preIndex.size() != nodes.size() ||
            closure.subtreeSize.size() != nodes.size() ||
            closure.preorder.size() != nodes.size() ||
            closure.carrierOff.size() !=
                nodes.size() * metricTable.size() + 1) {
            auditFail(log, "closure cache arrays are missized");
            return log;
        }
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            ContainerId id = ContainerId::fromIndex(ni);
            std::vector<ContainerId> expect = subtree(id);
            std::span<const ContainerId> cached = cachedSubtree(id);
            if (cached.size() != expect.size() ||
                !std::equal(cached.begin(), cached.end(),
                            expect.begin())) {
                auditFail(log, "cached subtree of container ", ni,
                          " disagrees with the hierarchy");
                continue;
            }
            for (std::size_t mi = 0; mi < metricTable.size(); ++mi) {
                MetricId m = MetricId::fromIndex(mi);
                std::vector<const Variable *> expect_vars;
                for (ContainerId member : expect) {
                    const Variable *var = findVariable(member, m);
                    if (var && !var->empty())
                        expect_vars.push_back(var);
                }
                std::span<const Variable *const> cached_vars =
                    carriers(id, m);
                if (cached_vars.size() != expect_vars.size() ||
                    !std::equal(cached_vars.begin(), cached_vars.end(),
                                expect_vars.begin()))
                    auditFail(log, "cached carriers of (", ni, ", ", mi,
                              ") disagree with the variables");
            }
        }
    }
    return log;
}

Container &
Trace::debugMutableContainer(ContainerId id)
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    ++mutations;
    return nodes[id.index()];
}

} // namespace viva::trace
