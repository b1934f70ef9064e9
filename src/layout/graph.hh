/**
 * @file
 * The layout graph: the nodes and edges whose positions the
 * force-directed algorithm evolves. Supports the dynamic operations the
 * paper's interactivity needs -- adding and removing nodes while others
 * keep their positions (aggregation/disaggregation), pinning (the
 * analyst dragging a node), and per-node charge (an aggregated node
 * carries the summed charge of everything it groups, Section 4.2).
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "layout/vec2.hh"
#include "support/invariant.hh"
#include "support/strong_id.hh"

namespace viva::layout
{

/** Tag type of the layout-node id space (one space per LayoutGraph). */
struct NodeTag
{
};

using NodeId = support::StrongId<NodeTag, std::uint32_t>;
inline constexpr NodeId kNoNode{0xFFFFFFFFu};

/** One layout node. */
struct Node
{
    NodeId id = kNoNode;     ///< its slot in LayoutGraph::rawNodes()
    std::uint64_t key = 0;   ///< caller's identifier (e.g. ContainerId)
    Vec2 position;
    Vec2 velocity;
    double charge = 1.0;     ///< Coulomb repulsion strength
    bool pinned = false;     ///< dragged / fixed by the analyst
    /** Always true: the graph holds no dead nodes. Kept only for the
     * benchmark driver, which still filters on it. */
    bool alive = true;
};

/** One spring between two nodes. */
struct Edge
{
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    double strength = 1.0;   ///< Hooke stiffness multiplier
};

/**
 * Mutable dense graph: the nodes live in one array in insertion order,
 * with no tombstones, and a NodeId is a node's slot in it. A NodeId is
 * therefore valid only until the next removeNodes(), which shifts the
 * survivors down; the caller's key is the stable handle (findKey()).
 */
class LayoutGraph
{
  public:
    /** Add a node at a position. @return its id */
    NodeId addNode(std::uint64_t key, Vec2 position, double charge = 1.0);

    /**
     * Remove the given nodes (each at most once) and every edge
     * touching them, in one stable O(nodes + edges) compaction pass:
     * survivors keep their relative order, so the force sums over them
     * keep theirs. Invalidates every NodeId held by the caller.
     */
    void removeNodes(const std::vector<NodeId> &ids);

    /** Add a spring between two nodes. */
    void addEdge(NodeId a, NodeId b, double strength = 1.0);

    /** Drop every edge (positions are untouched); used when a cut
     * change re-derives the visible edges from scratch. */
    void clearEdges();

    /** Access a node. */
    const Node &node(NodeId id) const;

    /** Node id carrying the caller key, or kNoNode. */
    NodeId findKey(std::uint64_t key) const;

    /** Mutate a node's position (velocity reset). */
    void setPosition(NodeId id, Vec2 position);

    /** Pin (true) or release (false) a node. */
    void setPinned(NodeId id, bool pinned);

    /** Update a node's charge (e.g. after re-aggregation). */
    void setCharge(NodeId id, double charge);

    /** Node count. */
    std::size_t nodeCount() const { return nodes.size(); }

    /** Edge count. */
    std::size_t edgeCount() const { return edges.size(); }

    /** The dense node array, indexed by NodeId, and the edge list. */
    const std::vector<Node> &rawNodes() const { return nodes; }
    const std::vector<Edge> &rawEdges() const { return edges; }

    /** Ids of the neighbours of a node. */
    std::vector<NodeId> neighbors(NodeId id) const;

    /** Centroid of the nodes (origin when empty). */
    Vec2 centroid() const;

    // Internal mutable access for the force stepper.
    std::vector<Node> &mutableNodes() { return nodes; }

    /**
     * Deep structural audit: node ids match their slots, the key index
     * maps exactly the nodes, no edge is a self-loop or references a
     * node out of range, and no node carries a non-positive charge.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: point `key`'s key-index entry at
     * no node, desynchronising the index from the node array. Never
     * call outside tests.
     */
    void debugCorruptKeyIndex(std::uint64_t key) { keyIndex[key] = kNoNode; }

  private:
    /** True when the id names a slot of the node array. */
    bool contains(NodeId id) const { return id.index() < nodes.size(); }

    std::vector<Node> nodes;
    std::vector<Edge> edges;
    std::unordered_map<std::uint64_t, NodeId> keyIndex;
};

/**
 * Audit that every node's position and velocity are finite -- the
 * first thing a divergent or mis-parallelised force step destroys.
 * @return the violated invariants; empty when well-formed
 */
support::AuditLog auditFinitePositions(const LayoutGraph &graph);

} // namespace viva::layout

