/**
 * @file
 * The viva-graph engine: a whole-program symbol and call-graph
 * analyzer on top of the tools/check_lexer.hh token stream. Where
 * viva-lint matches lines and viva-check follows values inside one
 * translation unit, viva-graph follows *calls across the whole tree*,
 * so contracts like "no fatal below the app layer" hold transitively
 * through helper chains, not merely at the textual call site.
 *
 * Pipeline:
 *  1. per-file fact extraction (parallel, cached): a scope-tracking
 *     walk over the token stream indexes every function/method
 *     definition and declaration into qualified names
 *     (`viva::layout::ForceLayout::step`, anonymous namespaces
 *     qualified per file), and records the outgoing edges of every
 *     body -- calls, member calls, and bare name references;
 *  2. symbol-table construction: facts from all files merge into one
 *     node per qualified name (overload sets collapse onto one node),
 *     tagged with the defining file and its tools/layering.rules layer;
 *  3. edge resolution: qualified calls resolve through the enclosing
 *     scope chain, member calls fall back to a terminal-name overload
 *     fan-out, call sites whose callee is not a plain name (function
 *     pointers, immediately-invoked lambdas, call results) are counted
 *     as unresolved; well-known external sinks (raw std::chrono clock
 *     reads, console/file streams, fatal/panic) map to pseudo-nodes;
 *  4. transitive rules (reverse reachability from the sink set, with
 *     waived symbols absorbing -- a justified sink does not taint its
 *     callers):
 *
 *  - fatal-reachable: no symbol defined under src/ outside src/app/
 *    may transitively reach support::fatal()/panic();
 *  - clock-reachable: no symbol defined under src/ outside the clock
 *    shim (src/support/clock.cc) may transitively reach a raw
 *    std::chrono clock read;
 *  - io-in-hot-path: symbols reachable from a ThreadPool
 *    parallelFor chunk lambda must not reach stream I/O
 *    or warnLimited() (the crash path through fatal/panic is exempt:
 *    a process that is already dying may write to stderr);
 *  - dead-symbol: functions defined under src/ that are unreachable
 *    from every root (main() definitions, gtest TEST bodies, global
 *    initializers) are dead weight.
 *
 * Waivers: an `allow(<rule>): <why>` comment tagged with the tool's
 * name on (or alone directly above) the symbol's definition line, or
 * the offending call line for io-in-hot-path; `allow-file` waives a
 * whole file. `dead` is accepted as shorthand for `dead-symbol`. A waiver
 * without a rationale is itself a finding. Waived symbols absorb:
 * reachability does not propagate through them.
 *
 * Incremental mode: per-file facts are keyed by an FNV-1a content
 * hash and serialized to a text cache (build/viva-graph.cache); a
 * warm re-run re-lexes only files whose hash changed and reports the
 * hit/miss counts in `--json`.
 *
 * Exit-code contract (tools/cli_common.hh, shared with viva-lint,
 * viva-check and viva-deps): 0 clean, 1 findings, 2 usage/I-O error.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace viva::graph
{

/** One source file handed to the engine. */
struct FileInput
{
    /** Repo-relative path with '/' separators (drives rule scoping). */
    std::string path;

    /** Full file content. */
    std::string content;
};

/** One rule violation. */
struct Finding
{
    std::string file;
    std::size_t line = 0;  ///< 1-based
    std::string rule;
    std::string message;
};

/** How a body mentions another symbol. */
enum class EdgeKind
{
    Call,    ///< `name(...)`, possibly `A::B::name(...)`
    Method,  ///< `obj.name(...)` / `ptr->name(...)`
    Ref,     ///< bare name mention (address-taken, passed, stored)
};

/** One outgoing edge of a symbol body, as written. */
struct EdgeFact
{
    std::string name;  ///< written spelling, '::'-joined when qualified
    EdgeKind kind = EdgeKind::Call;
    bool hot = false;  ///< inside a ThreadPool chunk-lambda argument
    std::size_t line = 0;
};

/** One function/method definition or declaration in one file. */
struct SymbolFact
{
    std::string qname;  ///< fully qualified, anon namespaces per-file
    std::size_t line = 0;
    bool defined = false;  ///< carries a body (or `= default`) here
    std::set<std::string> waivers;  ///< rules waived at the definition
    std::vector<EdgeFact> edges;    ///< outgoing edges of the body
};

/** Everything viva-graph knows about one file (the cache unit). */
struct FileFacts
{
    std::string path;
    std::uint64_t hash = 0;  ///< FNV-1a of the content
    std::vector<SymbolFact> symbols;

    /** Call sites whose callee is not a plain name (fn pointers,
     *  immediately-invoked lambdas, calls on call results). */
    std::size_t unresolvedSites = 0;

    /** Rules waived for the whole file. */
    std::set<std::string> fileWaivers;

    /** Line -> rules waived on that line (same line or alone above). */
    std::map<std::size_t, std::set<std::string>> lineWaivers;

    /** Waiver-without-rationale findings, reproduced from cache. */
    std::vector<Finding> waiverFindings;
};

/** Engine configuration. */
struct Options
{
    /** tools/layering.rules text (layer tags for the DOT export). */
    std::string rulesText;

    /** Previous cache content ("" = cold run). */
    std::string cacheText;

    /** Concurrent per-file scanners (1 = serial; 0 = serial). */
    std::size_t jobs = 1;
};

/** The analysis result. */
struct Result
{
    std::vector<Finding> findings;

    std::size_t files = 0;
    std::size_t symbols = 0;       ///< distinct graph nodes
    std::size_t definedSymbols = 0;
    std::size_t edges = 0;         ///< resolved node-to-node edges
    std::size_t externalCalls = 0; ///< named callees outside the tree
    std::size_t unresolvedSites = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;

    /** (from-layer, to-layer) -> call-edge count, cross-layer only. */
    std::map<std::pair<std::string, std::string>, std::size_t>
        layerEdges;

    /** layer -> defined symbols it owns (DOT node labels). */
    std::map<std::string, std::size_t> layerSymbols;

    /** Serialized facts for persisting (viva-graph-cache-1). */
    std::string newCacheText;
};

/** FNV-1a 64-bit content hash (the cache key). */
std::uint64_t fnv1a(const std::string &content);

/**
 * Extract the symbol/edge facts of one file (lex + scope walk).
 * Exposed for the unit tests; runGraph() calls it per file, skipping
 * files whose hash matches the cache.
 */
FileFacts extractFacts(const FileInput &file);

/** Serialize facts as a viva-graph-cache-1 document (byte-stable). */
std::string serializeFacts(const std::vector<FileFacts> &facts);

/**
 * Parse a cache document into path-keyed facts. Returns false (and
 * leaves `out` empty) on a version mismatch or malformed line -- the
 * caller falls back to a cold run.
 */
bool parseFactsCache(const std::string &text,
                     std::map<std::string, FileFacts> &out);

/**
 * Run the whole pipeline: extract (or reuse cached) facts, build the
 * symbol table and call graph, run the four transitive rules. The
 * findings are ordered by file, line, rule, message.
 */
Result runGraph(const std::vector<FileInput> &files,
                const Options &options);

/** Format a finding as "path:line: [rule] message". */
std::string formatFinding(const Finding &finding);

/**
 * The `--json` rendering: a stable viva-graph-1 document (sorted
 * findings, fixed key order, no timestamps) that is byte-identical
 * across runs on identical input and cache state.
 */
std::string formatJson(const Result &result);

/**
 * The `--dot` rendering: the call graph collapsed to layers (one node
 * per tools/layering.rules layer that owns symbols, one edge per
 * cross-layer call pair, labeled with the call count). Byte-stable.
 */
std::string formatDot(const Result &result);

} // namespace viva::graph
