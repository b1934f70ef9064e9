/**
 * @file
 * Implementation of the layout graph.
 */

#include "layout/graph.hh"

#include "support/logging.hh"

namespace viva::layout
{

NodeId
LayoutGraph::addNode(std::uint64_t key, Vec2 position, double charge)
{
    VIVA_ASSERT(charge > 0, "node charge must be positive, got ", charge);
    VIVA_ASSERT(keyIndex.find(key) == keyIndex.end(),
                "duplicate layout key ", key);
    Node n;
    n.id = NodeId::fromIndex(nodes.size());
    n.key = key;
    n.position = position;
    n.charge = charge;
    nodes.push_back(n);
    keyIndex.emplace(key, n.id);
    return n.id;
}

void
LayoutGraph::removeNodes(const std::vector<NodeId> &ids)
{
    if (ids.empty())
        return;
    // Each slot's id after compaction; kNoNode marks the removed ones.
    std::vector<NodeId> remap(nodes.size());
    for (NodeId id : ids) {
        VIVA_ASSERT(contains(id), "removing unknown node ", id);
        VIVA_ASSERT(remap[id.index()] != kNoNode, "removing node ", id,
                    " twice");
        remap[id.index()] = kNoNode;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (remap[i] == kNoNode) {
            keyIndex.erase(nodes[i].key);
            continue;
        }
        remap[i] = NodeId::fromIndex(kept);
        if (kept != i) {
            nodes[kept] = nodes[i];
            nodes[kept].id = remap[i];
            keyIndex[nodes[kept].key] = remap[i];
        }
        ++kept;
    }
    nodes.resize(kept);

    std::size_t kept_edges = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        NodeId a = remap[edges[i].a.index()];
        NodeId b = remap[edges[i].b.index()];
        if (a != kNoNode && b != kNoNode)
            edges[kept_edges++] = {a, b, edges[i].strength};
    }
    edges.resize(kept_edges);
}

void
LayoutGraph::addEdge(NodeId a, NodeId b, double strength)
{
    VIVA_ASSERT(contains(a) && contains(b), "edge endpoints must exist");
    VIVA_ASSERT(a != b, "self-loop on node ", a);
    edges.push_back({a, b, strength});
}

void
LayoutGraph::clearEdges()
{
    edges.clear();
}

const Node &
LayoutGraph::node(NodeId id) const
{
    VIVA_ASSERT(contains(id), "bad node ", id);
    return nodes[id.index()];
}

NodeId
LayoutGraph::findKey(std::uint64_t key) const
{
    auto it = keyIndex.find(key);
    return it == keyIndex.end() ? kNoNode : it->second;
}

void
LayoutGraph::setPosition(NodeId id, Vec2 position)
{
    VIVA_ASSERT(contains(id), "bad node ", id);
    nodes[id.index()].position = position;
    nodes[id.index()].velocity = {0.0, 0.0};
}

void
LayoutGraph::setPinned(NodeId id, bool pinned)
{
    VIVA_ASSERT(contains(id), "bad node ", id);
    nodes[id.index()].pinned = pinned;
    if (pinned)
        nodes[id.index()].velocity = {0.0, 0.0};
}

void
LayoutGraph::setCharge(NodeId id, double charge)
{
    VIVA_ASSERT(contains(id), "bad node ", id);
    VIVA_ASSERT(charge > 0, "node charge must be positive");
    nodes[id.index()].charge = charge;
}

std::vector<NodeId>
LayoutGraph::neighbors(NodeId id) const
{
    VIVA_ASSERT(contains(id), "bad node ", id);
    std::vector<NodeId> out;
    for (const Edge &e : edges) {
        if (e.a == id)
            out.push_back(e.b);
        else if (e.b == id)
            out.push_back(e.a);
    }
    return out;
}

Vec2
LayoutGraph::centroid() const
{
    if (nodes.empty())
        return {0.0, 0.0};
    Vec2 sum;
    for (const Node &n : nodes)
        sum += n.position;
    return sum / double(nodes.size());
}

support::AuditLog
LayoutGraph::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        if (n.id != NodeId::fromIndex(i))
            auditFail(log, "node in slot ", i, " carries id ", n.id);
        if (n.charge <= 0.0)
            auditFail(log, "node ", i, " has non-positive charge ",
                      n.charge);
        auto it = keyIndex.find(n.key);
        if (it == keyIndex.end())
            auditFail(log, "node ", i, " (key ", n.key,
                      ") missing from the key index");
        else if (it->second != n.id)
            auditFail(log, "key ", n.key, " indexes node ", it->second,
                      " instead of ", n.id);
    }
    if (keyIndex.size() != nodes.size())
        auditFail(log, "key index holds ", keyIndex.size(),
                  " entries for ", nodes.size(), " nodes");

    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Edge &e = edges[i];
        if (e.a == e.b)
            auditFail(log, "edge ", i, " is a self-loop on node ", e.a);
        for (NodeId end : {e.a, e.b})
            if (!contains(end))
                auditFail(log, "edge ", i, " references node ", end,
                          " out of range");
    }
    return log;
}

support::AuditLog
auditFinitePositions(const LayoutGraph &graph)
{
    support::AuditLog log;
    for (const Node &n : graph.rawNodes()) {
        if (!std::isfinite(n.position.x) || !std::isfinite(n.position.y))
            support::auditFail(log, "node ", n.id, " (key ", n.key,
                               ") has a non-finite position");
        if (!std::isfinite(n.velocity.x) || !std::isfinite(n.velocity.y))
            support::auditFail(log, "node ", n.id, " (key ", n.key,
                               ") has a non-finite velocity");
    }
    return log;
}

} // namespace viva::layout
