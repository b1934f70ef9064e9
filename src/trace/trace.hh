/**
 * @file
 * The Trace: a container hierarchy, a metric registry, one
 * piecewise-constant Variable per (container, metric), an optional state
 * log, and the relations (edges) that connect monitored entities in the
 * topology-based representation (Section 3.1).
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/interval.hh"
#include "support/invariant.hh"
#include "trace/container.hh"
#include "trace/metric.hh"
#include "trace/variable.hh"

namespace viva::trace
{

/**
 * Everything observed about one execution: what was monitored (the
 * container hierarchy), how entities relate (relations/edges), what was
 * measured (metrics) and the measurements themselves (variables).
 */
class Trace
{
  public:
    /** An undirected edge between two monitored entities. */
    struct Relation
    {
        ContainerId a;
        ContainerId b;
        bool operator==(const Relation &other) const = default;
    };

    /** A process state over [begin, end), e.g. "compute" or "wait". */
    struct StateRecord
    {
        ContainerId container;
        double begin;
        double end;
        std::string state;
    };

    /** Creates the implicit root container (id 0). */
    Trace();

    /**
     * Copies rebuild the closure cache when the source's was fresh:
     * the cache holds Variable pointers into a trace's own storage, so
     * it cannot be shared. Moves keep it (unordered_map nodes keep
     * their addresses across a move).
     */
    Trace(const Trace &other);
    Trace &operator=(const Trace &other);
    Trace(Trace &&) = default;
    Trace &operator=(Trace &&) = default;
    ~Trace() = default;

    // --- containers --------------------------------------------------

    /** The root container id (always 0). */
    ContainerId root() const { return ContainerId{0}; }

    /**
     * Create a container under a parent.
     * @param name unique among the parent's children (enforced)
     * @param kind semantic kind
     * @param parent the enclosing container
     * @return the new container's id
     */
    ContainerId addContainer(const std::string &name, ContainerKind kind,
                             ContainerId parent);

    /** Access a container by id (panics on a bad id). */
    const Container &container(ContainerId id) const;

    /** Total number of containers, root included. */
    std::size_t containerCount() const { return nodes.size(); }

    /** The direct child of parent with this name, or kNoContainer. */
    ContainerId findChild(ContainerId parent, const std::string &name) const;

    /**
     * Look up a container by slash-separated path from the root, e.g.
     * "grid5000/lyon/sagittaire/sagittaire-3". An empty path is the root.
     * @return kNoContainer when any component is missing
     */
    ContainerId findByPath(const std::string &path) const;

    /**
     * Find the unique container with this simple name anywhere in the
     * tree; kNoContainer when absent or ambiguous.
     */
    ContainerId findByName(const std::string &name) const;

    /** Slash-separated path of a container from (but excluding) root. */
    std::string fullName(ContainerId id) const;

    /** All containers of one kind, in id order. */
    std::vector<ContainerId> containersOfKind(ContainerKind kind) const;

    /** All leaf containers in the subtree rooted at id (id included if leaf). */
    std::vector<ContainerId> leavesUnder(ContainerId id) const;

    /** All containers in the subtree rooted at id, id included, preorder. */
    std::vector<ContainerId> subtree(ContainerId id) const;

    /** True when anc is id or one of its ancestors. */
    bool isAncestorOrSelf(ContainerId anc, ContainerId id) const;

    /**
     * The ancestor of id at the given depth (root is depth 0). If the
     * container is shallower than depth, returns id itself.
     */
    ContainerId ancestorAtDepth(ContainerId id, std::uint16_t depth) const;

    // --- metrics ------------------------------------------------------

    /**
     * Register a metric, or return the existing id when a metric of this
     * name already exists (the descriptor is not modified then).
     */
    MetricId addMetric(const std::string &name, const std::string &unit,
                       MetricNature nature, MetricId capacity_of = kNoMetric);

    /** Metric id by name, or kNoMetric. */
    MetricId findMetric(const std::string &name) const;

    /** Access a metric by id (panics on a bad id). */
    const Metric &metric(MetricId id) const;

    /** Number of registered metrics. */
    std::size_t metricCount() const { return metricTable.size(); }

    // --- variables ----------------------------------------------------

    /** The variable for (container, metric), created on first access. */
    Variable &variable(ContainerId c, MetricId m);

    /** The variable for (container, metric), or nullptr if never set. */
    const Variable *findVariable(ContainerId c, MetricId m) const;

    /** True when at least one point was recorded for (container, metric). */
    bool hasVariable(ContainerId c, MetricId m) const;

    /** Number of (container, metric) variables materialized. */
    std::size_t variableCount() const { return vars.size(); }

    /** Total number of change points across all variables. */
    std::size_t pointCount() const;

    // --- relations ------------------------------------------------------

    /** Record an undirected relation (deduplicated; self-loops dropped). */
    void addRelation(ContainerId a, ContainerId b);

    /** All relations, in insertion order. */
    const std::vector<Relation> &relations() const { return rels; }

    /** Containers directly related to id. */
    std::vector<ContainerId> neighbors(ContainerId id) const;

    // --- states ---------------------------------------------------------

    /** Record a state interval for a container. */
    void addState(ContainerId c, double begin, double end,
                  const std::string &state);

    /** The full state log, in insertion order. */
    const std::vector<StateRecord> &states() const { return stateLog; }

    // --- global properties ------------------------------------------------

    /** The observation period T: hull of all variable points and states. */
    support::Interval span() const;

    // --- the hierarchy closure ---------------------------------------------

    /**
     * Monotone mutation version, bumped by every mutating call
     * (containers, metrics, variables, relations, states). The closure
     * cache records the version it was built against, so a stale cache
     * can never be served after a mutation.
     */
    std::uint64_t version() const { return mutations; }

    /**
     * Finalize the trace for queries: build (or refresh) the
     * hierarchy-closure cache, i.e. the preorder subtree member list
     * of every container plus, per (container, metric), the list of
     * non-empty carrying variables — the exact sequence the Eq.-1 fold
     * visits. No-op when already fresh. The readers,
     * TraceBuilder::take() and every Session entry point call it;
     * hand-built traces must call it before aggregating.
     */
    void ensureClosure();

    /** True when the closure cache matches the current version. */
    bool closureFresh() const
    {
        return closure.builtVersion == mutations;
    }

    /**
     * The cached preorder subtree of a container (id included).
     * Requires a fresh closure; identical to subtree(id) without the
     * allocation.
     */
    std::span<const ContainerId> cachedSubtree(ContainerId id) const;

    /**
     * The cached non-empty variables carrying metric m inside the
     * subtree of c, in preorder-member order. Requires a fresh closure.
     * An out-of-range metric (e.g. a failed findMetric) yields an
     * empty span, matching findVariable's nullptr.
     */
    std::span<const Variable *const> carriers(ContainerId c,
                                              MetricId m) const;

    // --- auditing ---------------------------------------------------------

    /**
     * Deep structural audit: the hierarchy is a tree rooted at 0 with
     * consistent parent/child/depth records and unique sibling names,
     * metrics and their name index agree, every variable belongs to a
     * real (container, metric) pair with time-sorted points, and the
     * relations are deduplicated with valid endpoints.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: mutable access to a container so
     * a test can corrupt its linkage. Never call outside tests.
     */
    Container &debugMutableContainer(ContainerId id);

  private:
    static std::uint64_t
    varKey(ContainerId c, MetricId m)
    {
        return (std::uint64_t(c.value()) << 16) | m.value();
    }

    static std::uint64_t
    relKey(ContainerId a, ContainerId b)
    {
        if (a > b)
            std::swap(a, b);
        return (std::uint64_t(a.value()) << 32) | b.value();
    }

    /**
     * The hierarchy-closure cache. `preorder` is the root-first DFS
     * order of the whole tree; a container's subtree is the contiguous
     * slab preorder[preIndex[c] .. preIndex[c] + subtreeSize[c]).
     * `carrierVars` holds, per (container, metric) in
     * container-major order, the non-empty variables of that subtree
     * (offsets in `carrierOff`). Pointers reference `vars` storage, so
     * copies rebuild the cache; mutations invalidate it via
     * `mutations` != `builtVersion`.
     */
    struct Closure
    {
        std::uint64_t builtVersion = 0;  ///< 0: never built
        std::vector<ContainerId> preorder;
        std::vector<std::uint32_t> preIndex;
        std::vector<std::uint32_t> subtreeSize;
        std::vector<const Variable *> carrierVars;
        std::vector<std::uint32_t> carrierOff;
    };

    std::vector<Container> nodes;
    std::vector<Metric> metricTable;
    std::unordered_map<std::string, MetricId> metricByName;
    std::unordered_map<std::uint64_t, Variable> vars;
    std::vector<Relation> rels;
    std::unordered_set<std::uint64_t> relSet;
    std::vector<StateRecord> stateLog;
    /** Starts at 1 so builtVersion == 0 always reads as stale. */
    std::uint64_t mutations = 1;
    Closure closure;
};

} // namespace viva::trace

