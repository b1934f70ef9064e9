/**
 * @file
 * Reference implementations for the hierarchy-cut tests, written
 * without the cut's kept projection or the trace's closure cache:
 *
 *  - leavesUnder() filters subtree() for leaves;
 *  - projectNodes() walks the tree from the root, stopping at the
 *    first collapsed node (or leaf) on every path;
 *  - projectEdges() rewires every relation through representative()
 *    and merges parallel edges in a hash map, in first-occurrence
 *    order.
 *
 * HierarchyCut must reproduce the last two exactly, order included.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agg/hierarchy_cut.hh"
#include "trace/trace.hh"

namespace viva::oracle
{

/** The leaves of a subtree, in preorder (the node itself if a leaf). */
inline std::vector<trace::ContainerId>
leavesUnder(const trace::Trace &t, trace::ContainerId id)
{
    std::vector<trace::ContainerId> out;
    for (trace::ContainerId c : t.subtree(id))
        if (t.container(c).leaf())
            out.push_back(c);
    return out;
}

/** The visible nodes of a cut, in preorder. */
inline std::vector<trace::ContainerId>
projectNodes(const trace::Trace &t, const agg::HierarchyCut &cut)
{
    std::vector<trace::ContainerId> out;
    std::vector<trace::ContainerId> stack{t.root()};
    while (!stack.empty()) {
        trace::ContainerId cur = stack.back();
        stack.pop_back();
        const trace::Container &c = t.container(cur);
        if (cut.isCollapsed(cur) || (c.leaf() && cur != t.root())) {
            out.push_back(cur);
            continue;
        }
        for (auto it = c.children.rbegin(); it != c.children.rend(); ++it)
            stack.push_back(*it);
    }
    return out;
}

/** The relations projected onto a cut, in first-occurrence order. */
inline std::vector<agg::ViewEdge>
projectEdges(const trace::Trace &t, const agg::HierarchyCut &cut)
{
    std::vector<agg::ViewEdge> edges;
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (const trace::Trace::Relation &r : t.relations()) {
        trace::ContainerId a = cut.representative(r.a);
        trace::ContainerId b = cut.representative(r.b);
        if (a == b)
            continue;
        trace::ContainerId lo = std::min(a, b);
        trace::ContainerId hi = std::max(a, b);
        std::uint64_t key = (std::uint64_t(lo.value()) << 32) | hi.value();
        auto it = index.find(key);
        if (it == index.end()) {
            index.emplace(key, edges.size());
            edges.push_back({lo, hi, 1});
        } else {
            ++edges[it->second].multiplicity;
        }
    }
    return edges;
}

} // namespace viva::oracle
