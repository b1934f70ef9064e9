/**
 * @file
 * Implementation of the hierarchy cut.
 */

#include "agg/hierarchy_cut.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "support/obs.hh"

namespace viva::agg
{

namespace obs = support::obs;

using trace::ContainerId;

namespace
{

/**
 * The projection a flag vector induces: the visible nodes in preorder
 * and the relations rewired onto them.
 */
void
project(const trace::Trace &t, const std::vector<std::uint8_t> &collapsed,
        std::vector<ContainerId> &visible, std::vector<ViewEdge> &edges)
{
    // One preorder walk of the whole tree. The first node on a root
    // path that is collapsed (or a leaf) is visible and represents
    // everything below it; a node with no such ancestor represents
    // itself.
    struct Frame
    {
        ContainerId id;
        ContainerId cover;  ///< visible ancestor-or-self, if any
    };
    std::vector<ContainerId> rep(t.containerCount());
    std::vector<Frame> stack{{t.root(), trace::kNoContainer}};
    visible.clear();
    while (!stack.empty()) {
        auto [cur, cover] = stack.back();
        stack.pop_back();
        const trace::Container &c = t.container(cur);
        if (cover == trace::kNoContainer &&
            (collapsed[cur.index()] || (c.leaf() && cur != t.root()))) {
            visible.push_back(cur);
            cover = cur;
        }
        rep[cur.index()] = cover == trace::kNoContainer ? cur : cover;
        for (auto it = c.children.rbegin(); it != c.children.rend(); ++it)
            stack.push_back({*it, cover});
    }

    // Project the relations: sort the (lo, hi) pairs with their
    // relation index, count each run, then order the runs by their
    // first relation -- the first-occurrence order the layout's spring
    // sums are computed in.
    const std::vector<trace::Trace::Relation> &rels = t.relations();
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    keyed.reserve(rels.size());
    for (std::size_t i = 0; i < rels.size(); ++i) {
        ContainerId a = rep[rels[i].a.index()];
        ContainerId b = rep[rels[i].b.index()];
        if (a == b)
            continue;  // contracted inside one aggregated node
        ContainerId lo = std::min(a, b);
        ContainerId hi = std::max(a, b);
        keyed.emplace_back((std::uint64_t(lo.value()) << 32) | hi.value(),
                           i);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::pair<std::size_t, ViewEdge>> runs;
    for (std::size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
        const auto [key, first] = keyed[begin];
        while (end < keyed.size() && keyed[end].first == key)
            ++end;
        runs.push_back({first,
                        {ContainerId(std::uint32_t(key >> 32)),
                         ContainerId(std::uint32_t(key)), end - begin}});
    }
    std::sort(runs.begin(), runs.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });
    edges.clear();
    edges.reserve(runs.size());
    for (const auto &run : runs)
        edges.push_back(run.second);
}

} // namespace

HierarchyCut::HierarchyCut(const trace::Trace &trace)
    : HierarchyCut(trace,
                   std::vector<std::uint8_t>(trace.containerCount(), 0))
{
}

HierarchyCut::HierarchyCut(const trace::Trace &trace,
                           std::vector<std::uint8_t> flags)
    : tr(&trace), collapsed(std::move(flags))
{
    recompute();
}

void
HierarchyCut::aggregate(ContainerId group)
{
    VIVA_ASSERT(group.index() < tr->containerCount(), "bad container ", group);
    if (tr->container(group).leaf() || collapsed[group.index()])
        return;
    collapsed[group.index()] = 1;
    recompute();
}

void
HierarchyCut::disaggregate(ContainerId group)
{
    VIVA_ASSERT(group.index() < tr->containerCount(), "bad container ", group);
    if (!collapsed[group.index()])
        return;
    collapsed[group.index()] = 0;
    for (ContainerId child : tr->container(group).children) {
        if (!tr->container(child).leaf())
            collapsed[child.index()] = 1;
    }
    recompute();
}

void
HierarchyCut::aggregateToDepth(std::uint16_t depth)
{
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        const trace::Container &c = tr->container(id);
        collapsed[id.index()] = (!c.leaf() && c.depth == depth) ? 1 : 0;
    }
    recompute();
}

void
HierarchyCut::focus(const std::vector<ContainerId> &targets)
{
    // expanded = on a root->target path, or inside a target's subtree.
    std::vector<std::uint8_t> expanded(tr->containerCount(), 0);
    for (ContainerId target : targets) {
        VIVA_ASSERT(target.index() < tr->containerCount(), "bad container ",
                    target);
        ContainerId cur = target;
        while (true) {
            expanded[cur.index()] = 1;
            if (cur == tr->root())
                break;
            cur = tr->container(cur).parent;
        }
        for (ContainerId inside : tr->subtree(target))
            expanded[inside.index()] = 1;
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        collapsed[id.index()] =
            (!tr->container(id).leaf() && !expanded[id.index()]) ? 1 : 0;
    }
    recompute();
}

void
HierarchyCut::reset()
{
    std::fill(collapsed.begin(), collapsed.end(), 0);
    recompute();
}

bool
HierarchyCut::isCollapsed(ContainerId id) const
{
    VIVA_ASSERT(id.index() < collapsed.size(), "bad container ", id);
    return collapsed[id.index()] != 0;
}

bool
HierarchyCut::isVisible(ContainerId id) const
{
    VIVA_ASSERT(id.index() < tr->containerCount(), "bad container ", id);
    if (!collapsed[id.index()] && !tr->container(id).leaf())
        return false;
    // Visible unless a strict ancestor is collapsed.
    ContainerId cur = id;
    while (cur != tr->root()) {
        cur = tr->container(cur).parent;
        if (collapsed[cur.index()])
            return false;
    }
    return true;
}

ContainerId
HierarchyCut::representative(ContainerId id) const
{
    VIVA_ASSERT(id.index() < tr->containerCount(), "bad container ", id);
    ContainerId top = id;
    ContainerId cur = id;
    if (collapsed[cur.index()])
        top = cur;
    while (cur != tr->root()) {
        cur = tr->container(cur).parent;
        if (collapsed[cur.index()])
            top = cur;
    }
    return top;
}

void
HierarchyCut::recompute()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("cut.recompute");
    static const obs::CounterId recomputations =
        reg.counter("cut.recomputations");
    obs::ScopedPhase timer(phase);
    reg.add(recomputations);

    VIVA_ASSERT(collapsed.size() == tr->containerCount(),
                "cut flags cover ", collapsed.size(), " of ",
                tr->containerCount(), " containers");
    project(*tr, collapsed, visible, edges);
    projectedRelations = tr->relations().size();
}

void
HierarchyCut::requireFresh() const
{
    VIVA_ASSERT(collapsed.size() == tr->containerCount() &&
                    projectedRelations == tr->relations().size(),
                "cut projection is stale: the trace gained containers "
                "or relations after the cut's last operation");
}

std::span<const ContainerId>
HierarchyCut::visibleNodes() const
{
    requireFresh();
    return visible;
}

const std::vector<ViewEdge> &
HierarchyCut::visibleEdges() const
{
    requireFresh();
    return edges;
}

support::Expected<void>
HierarchyCut::setCollapsedFlags(const std::vector<std::uint8_t> &flags)
{
    if (flags.size() != tr->containerCount()) {
        return VIVA_ERROR(support::Errc::Invalid, "cut flag vector has ",
                          flags.size(), " entries for ",
                          tr->containerCount(), " containers");
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        if (flags[id.index()] > 1) {
            return VIVA_ERROR(support::Errc::Invalid,
                              "cut flag for container ", id, " is ",
                              unsigned(flags[id.index()]), ", not 0/1");
        }
        if (flags[id.index()] && tr->container(id).leaf()) {
            return VIVA_ERROR(support::Errc::Invalid, "leaf container ",
                              id, " ('", tr->fullName(id),
                              "') marked collapsed");
        }
    }
    // Stage-then-swap: prove the candidate describes a well-formed cut
    // on a scratch copy before touching this one, then take the
    // copy's projection with its flags.
    HierarchyCut staged(*tr, flags);
    support::AuditLog audit = staged.auditInvariants();
    if (!audit.empty()) {
        return VIVA_ERROR(support::Errc::Invalid,
                          "cut flags violate the cut property: ",
                          audit.front());
    }
    *this = std::move(staged);
    return {};
}

support::AuditLog
HierarchyCut::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    if (collapsed.size() != tr->containerCount()) {
        auditFail(log, "flag vector holds ", collapsed.size(),
                  " entries for ", tr->containerCount(), " containers");
        return log;
    }
    if (projectedRelations != tr->relations().size()) {
        auditFail(log, "edges project ", projectedRelations, " of ",
                  tr->relations().size(), " relations");
        return log;
    }

    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        if (collapsed[id.index()] && tr->container(id).leaf())
            auditFail(log, "leaf container ", id, " ('",
                      tr->fullName(id), "') is marked collapsed");
    }

    // The cut property: the visible nodes are an antichain covering
    // every leaf exactly once. Walking each leaf's ancestor chain and
    // counting visible nodes on it checks both at once -- a count of
    // zero is a coverage hole, more than one is a nested pair.
    std::vector<std::uint8_t> shown(tr->containerCount(), 0);
    for (ContainerId id : visible) {
        if (!isVisible(id))
            auditFail(log, "visibleNodes() lists ", id, " ('",
                      tr->fullName(id), "') but isVisible denies it");
        shown[id.index()] = 1;
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        // The root only represents itself when collapsed, so a childless
        // trace legitimately has no visible nodes.
        if (!tr->container(id).leaf() || id == tr->root())
            continue;
        std::size_t covers = 0;
        for (ContainerId cur = id;; cur = tr->container(cur).parent) {
            covers += shown[cur.index()];
            if (cur == tr->root())
                break;
        }
        if (covers != 1)
            auditFail(log, "leaf ", id, " ('", tr->fullName(id),
                      "') is covered by ", covers,
                      " visible nodes instead of 1");
    }

    // The kept projection must be the one the flags induce now.
    std::vector<ContainerId> fresh_visible;
    std::vector<ViewEdge> fresh_edges;
    project(*tr, collapsed, fresh_visible, fresh_edges);
    if (visible != fresh_visible || edges != fresh_edges)
        auditFail(log, "kept projection disagrees with the flags");
    return log;
}

void
HierarchyCut::debugSetCollapsed(ContainerId id, bool value)
{
    VIVA_ASSERT(id.index() < collapsed.size(), "bad container ", id);
    collapsed[id.index()] = value ? 1 : 0;
    recompute();
}

} // namespace viva::agg
