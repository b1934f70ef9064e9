/**
 * @file
 * viva-graph fact extraction: the per-file half of the engine. One
 * scope-tracking walk over the check_lexer token stream finds every
 * function/method definition and declaration, qualifies its name
 * through the enclosing namespace/class scopes, and records the
 * outgoing call/member-call/reference edges of each body. The
 * resulting FileFacts are the unit of the incremental cache
 * (viva-graph-cache-1, keyed by FNV-1a content hash), so this file
 * also owns the serializer and the strict cache parser.
 *
 * The walk is a best-effort lexical parse, not a compiler frontend:
 * anything it cannot classify as a declarator falls through to a
 * generic edge scan attached to the file-scope pseudo-symbol, so no
 * token sequence can derail the pass -- at worst a construct degrades
 * into conservative reference edges.
 */

#include "tools/graph.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "tools/check_lexer.hh"

namespace viva::graph
{

namespace
{

using viva::check::Tok;
using viva::check::Token;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** C++ keywords and contextual keywords the edge scanner must never
 *  mistake for a callable or referenced symbol. */
bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "alignas",      "alignof",      "and",
        "asm",          "auto",         "bool",
        "break",        "case",         "catch",
        "char",         "class",        "co_await",
        "co_return",    "co_yield",     "concept",
        "const",        "const_cast",   "consteval",
        "constexpr",    "constinit",    "continue",
        "decltype",     "default",      "delete",
        "do",           "double",       "dynamic_cast",
        "else",         "enum",         "explicit",
        "extern",       "false",        "final",
        "float",        "for",          "friend",
        "goto",         "if",           "inline",
        "int",          "long",         "mutable",
        "namespace",    "new",          "noexcept",
        "not",          "nullptr",      "operator",
        "or",           "override",     "private",
        "protected",    "public",       "register",
        "reinterpret_cast", "requires", "return",
        "short",        "signed",       "sizeof",
        "static",       "static_assert", "static_cast",
        "struct",       "switch",       "template",
        "this",         "thread_local", "throw",
        "true",         "try",          "typedef",
        "typeid",       "typename",     "union",
        "unsigned",     "using",        "virtual",
        "void",         "volatile",     "while",
    };
    return kw.count(t) != 0;
}

bool
isIdent(const Token &t)
{
    return t.kind == Tok::Identifier;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

/** Index of the ')' matching code[open] (an '('), or kNpos. */
std::size_t
matchParen(const std::vector<Token> &code, std::size_t open)
{
    std::size_t depth = 0;
    for (std::size_t j = open; j < code.size(); ++j) {
        if (isPunct(code[j], "("))
            ++depth;
        else if (isPunct(code[j], ")")) {
            if (--depth == 0)
                return j;
        }
    }
    return kNpos;
}

/** Index of the '}' matching code[open] (a '{'), or kNpos. */
std::size_t
matchBrace(const std::vector<Token> &code, std::size_t open)
{
    std::size_t depth = 0;
    for (std::size_t j = open; j < code.size(); ++j) {
        if (isPunct(code[j], "{"))
            ++depth;
        else if (isPunct(code[j], "}")) {
            if (--depth == 0)
                return j;
        }
    }
    return kNpos;
}

/**
 * Best-effort balanced-angle skip starting at code[open] == '<'.
 * Returns the index of the closing '>' (or the '>>' that closes the
 * last two levels), or kNpos when the '<' is more plausibly a
 * comparison: an expression-only token at angle depth, a statement
 * boundary, or no close within a bounded window.
 */
std::size_t
skipAngles(const std::vector<Token> &code, std::size_t open)
{
    int depth = 0;
    std::size_t pdepth = 0;
    const std::size_t limit = std::min(code.size(), open + 160);
    for (std::size_t j = open; j < limit; ++j) {
        const Token &t = code[j];
        if (t.kind != Tok::Punct) {
            if (t.kind == Tok::String || t.kind == Tok::RawString)
                return kNpos;
            continue;
        }
        if (t.text == "(" || t.text == "[") {
            ++pdepth;
            continue;
        }
        if (t.text == ")" || t.text == "]") {
            if (pdepth == 0)
                return kNpos;
            --pdepth;
            continue;
        }
        if (pdepth != 0)
            continue;
        if (t.text == "<")
            ++depth;
        else if (t.text == ">") {
            if (--depth == 0)
                return j;
        } else if (t.text == ">>") {
            depth -= 2;
            if (depth <= 0)
                return j;
        } else if (t.text == ";" || t.text == "{" || t.text == "}" ||
                   t.text == "&&" || t.text == "||" || t.text == "<<" ||
                   t.text == "<=" || t.text == ">=" || t.text == "?")
            return kNpos;
    }
    return kNpos;
}

/** The rules a waiver may name ("dead" is normalized to dead-symbol). */
std::string
normalizeRule(const std::string &rule)
{
    if (rule == "dead")
        return "dead-symbol";
    return rule;
}

bool
isKnownRule(const std::string &rule)
{
    return rule == "fatal-reachable" || rule == "clock-reachable" ||
           rule == "io-in-hot-path" || rule == "dead-symbol";
}

std::string
trimWs(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Parse every waiver comment -- the tool's name, then `allow` or
 * `allow-file` with a rule list and rationale -- in the raw token
 * stream into facts.fileWaivers / facts.lineWaivers.
 * A comment alone on its line covers the next line that carries code.
 * A waiver without a rationale, or naming an unknown rule, is itself
 * a finding (rule "waiver").
 */
void
parseWaivers(const std::vector<Token> &tokens, FileFacts &facts)
{
    std::set<std::size_t> codeLines;
    for (const Token &t : tokens)
        if (t.kind != Tok::Comment)
            codeLines.insert(t.line);

    for (const Token &t : tokens) {
        if (t.kind != Tok::Comment)
            continue;
        const std::string &text = t.text;
        std::size_t at = text.find("viva-graph:");
        if (at == std::string::npos)
            continue;
        at += std::string("viva-graph:").size();
        while (at < text.size() && (text[at] == ' ' || text[at] == '\t'))
            ++at;
        if (text.compare(at, 5, "allow") != 0)
            continue;
        at += 5;
        bool wholeFile = false;
        if (text.compare(at, 5, "-file") == 0) {
            wholeFile = true;
            at += 5;
        }
        if (at >= text.size() || text[at] != '(')
            continue;
        const std::size_t close = text.find(')', at);
        if (close == std::string::npos)
            continue;
        std::string rules = text.substr(at + 1, close - at - 1);

        /* Which line does the waiver cover? Same line if it carries
         * code, else the next code line below the comment. */
        std::size_t target = 0;
        if (!wholeFile) {
            if (codeLines.count(t.line) != 0) {
                target = t.line;
            } else {
                auto it = codeLines.upper_bound(t.line);
                if (it != codeLines.end())
                    target = *it;
            }
        }

        /* The rationale after "): " is mandatory. */
        std::size_t after = close + 1;
        while (after < text.size() &&
               (text[after] == ' ' || text[after] == '\t'))
            ++after;
        bool hasRationale = false;
        if (after < text.size() && text[after] == ':') {
            ++after;
            while (after < text.size() &&
                   (text[after] == ' ' || text[after] == '\t'))
                ++after;
            hasRationale = after < text.size();
        }
        if (!hasRationale)
            facts.waiverFindings.push_back(
                {facts.path, t.line, "waiver",
                 "waiver without a rationale; use "
                 "// viva-graph: allow(<rule>): <why>"});

        std::size_t pos = 0;
        while (pos <= rules.size()) {
            std::size_t comma = rules.find(',', pos);
            if (comma == std::string::npos)
                comma = rules.size();
            const std::string rule =
                normalizeRule(trimWs(rules.substr(pos, comma - pos)));
            pos = comma + 1;
            if (rule.empty())
                continue;
            if (!isKnownRule(rule)) {
                facts.waiverFindings.push_back(
                    {facts.path, t.line, "waiver",
                     "unknown rule '" + rule + "' in waiver"});
                continue;
            }
            if (wholeFile)
                facts.fileWaivers.insert(rule);
            else if (target != 0)
                facts.lineWaivers[target].insert(rule);
        }
    }
}

/**
 * The edge scanner: record every call, member call and bare name
 * reference in code[lo, hi) onto `sym`, flag edges inside a
 * parallelFor chunk lambda as hot, and count call sites
 * whose callee is not a plain name. Used for function bodies and,
 * over the gaps between declarators, for the file-scope symbol.
 */
void
scanEdges(const std::vector<Token> &code, std::size_t lo, std::size_t hi,
          SymbolFact &sym, std::size_t &unresolvedSites)
{
    struct HotRange
    {
        std::size_t close = 0;   ///< index of the call's ')'
        long depthAtOpen = 0;    ///< brace depth at the call's '('
    };
    std::vector<HotRange> hot;
    long braceDepth = 0;

    std::map<std::pair<int, std::string>, EdgeFact> dedup;
    auto record = [&](const std::string &name, EdgeKind kind, bool isHot,
                      std::size_t line) {
        auto key = std::make_pair(static_cast<int>(kind), name);
        auto it = dedup.find(key);
        if (it == dedup.end())
            dedup.emplace(key, EdgeFact{name, kind, isHot, line});
        else
            it->second.hot = it->second.hot || isHot;
    };

    std::size_t i = lo;
    while (i < hi && i < code.size()) {
        const Token &t = code[i];
        if (t.kind == Tok::Punct) {
            if (t.text == "{")
                ++braceDepth;
            else if (t.text == "}")
                --braceDepth;
            else if (t.text == "(" && i > lo &&
                     (isPunct(code[i - 1], ")") ||
                      isPunct(code[i - 1], "]")))
                ++unresolvedSites;
            ++i;
            continue;
        }
        if (t.kind != Tok::Identifier || isKeyword(t.text)) {
            ++i;
            continue;
        }

        /* Forward chain: ident (:: ident)*, optional template args. */
        std::vector<std::string> parts = {t.text};
        std::size_t j = i + 1;
        while (j + 1 < code.size() && isPunct(code[j], "::") &&
               isIdent(code[j + 1]) && !isKeyword(code[j + 1].text)) {
            parts.push_back(code[j + 1].text);
            j += 2;
        }
        std::size_t callParen = kNpos;
        if (j < code.size() && isPunct(code[j], "(")) {
            callParen = j;
        } else if (j < code.size() && isPunct(code[j], "<")) {
            const std::size_t closeAngle = skipAngles(code, j);
            if (closeAngle != kNpos && closeAngle + 1 < code.size() &&
                isPunct(code[closeAngle + 1], "(")) {
                callParen = closeAngle + 1;
                /* the scan jumps past the template arguments, so keep
                 * the types they name alive: make_unique<Foo>(...) is
                 * the only mention of Foo's constructor */
                for (std::size_t k = j + 1; k < closeAngle; ++k)
                    if (isIdent(code[k]) && !isKeyword(code[k].text))
                        record(code[k].text, EdgeKind::Ref, false,
                               code[k].line);
            }
        }

        std::string name;
        for (std::size_t p = 0; p < parts.size(); ++p)
            name += (p == 0 ? "" : "::") + parts[p];
        if (i > lo && isPunct(code[i - 1], "~"))
            name = "~" + name;

        const bool member =
            i > lo && (isPunct(code[i - 1], ".") ||
                       isPunct(code[i - 1], "->"));
        const bool inHot = [&] {
            for (const HotRange &h : hot)
                if (i < h.close && braceDepth > h.depthAtOpen)
                    return true;
            return false;
        }();

        if (callParen != kNpos) {
            record(name, member ? EdgeKind::Method : EdgeKind::Call,
                   inHot, t.line);
            const std::string &terminal = parts.back();
            if (terminal == "parallelFor" || terminal == "parallel_for") {
                const std::size_t close = matchParen(code, callParen);
                if (close != kNpos)
                    hot.push_back({close, braceDepth});
            }
            i = callParen + 1;
        } else {
            if (!member)
                record(name, EdgeKind::Ref, inHot, t.line);
            i = j;
        }
    }

    for (auto &entry : dedup)
        sym.edges.push_back(entry.second);
}

/** A declarator name chain walked back from its '(' token. */
struct Chain
{
    std::vector<std::string> parts;  ///< qualified components
    std::size_t start = kNpos;       ///< first token of the chain
    bool ok = false;
};

/**
 * Walk the name chain ending just before code[paren] == '(' --
 * `ns::Class::name`, `~Dtor`, `operator==`, `operator[]`, conversion
 * `operator bool` -- and apply the previous-token guard that rejects
 * expression contexts (`=`, `,`, `(`, `.`, `->`, comparison and
 * logical operators): those are calls or initializers, never
 * declarators.
 */
Chain
backWalkChain(const std::vector<Token> &code, std::size_t paren)
{
    Chain c;
    if (paren == 0)
        return c;
    long k = static_cast<long>(paren) - 1;
    auto at = [&](long idx) -> const Token & { return code[static_cast<std::size_t>(idx)]; };

    if (at(k).kind == Tok::Punct) {
        /* operator==(, operator[](, operator()( (the last one is
         * renamed in classification when a second '(' follows). */
        if (k >= 2 && isPunct(at(k), "]") && isPunct(at(k - 1), "[") &&
            isIdent(at(k - 2)) && at(k - 2).text == "operator") {
            c.parts = {"operator[]"};
            c.start = static_cast<std::size_t>(k - 2);
            k -= 3;
        } else if (k >= 1 && isIdent(at(k - 1)) &&
                   at(k - 1).text == "operator") {
            c.parts = {"operator" + at(k).text};
            c.start = static_cast<std::size_t>(k - 1);
            k -= 2;
        } else {
            return c;
        }
    } else if (isIdent(at(k)) && !isKeyword(at(k).text)) {
        c.parts = {at(k).text};
        c.start = static_cast<std::size_t>(k);
        --k;
        if (k >= 0 && isPunct(at(k), "~")) {
            c.parts[0] = "~" + c.parts[0];
            c.start = static_cast<std::size_t>(k);
            --k;
        } else if (k >= 0 && isIdent(at(k)) &&
                   at(k).text == "operator") {
            /* conversion operator: `operator bool(` */
            c.parts[0] = "operator " + c.parts[0];
            c.start = static_cast<std::size_t>(k);
            --k;
        }
    } else if (isIdent(at(k)) && at(k).text == "operator") {
        /* `operator()(` -- first paren directly follows the keyword */
        c.parts = {"operator"};
        c.start = static_cast<std::size_t>(k);
        --k;
    } else {
        return c;
    }

    while (k >= 1 && isPunct(at(k), "::") && isIdent(at(k - 1)) &&
           !isKeyword(at(k - 1).text)) {
        c.parts.insert(c.parts.begin(), at(k - 1).text);
        c.start = static_cast<std::size_t>(k - 1);
        k -= 2;
    }
    if (k >= 0 && isPunct(at(k), "::"))
        --k;  /* global qualification `::name(` */

    if (k >= 0) {
        const Token &prev = at(k);
        if (prev.kind == Tok::Punct) {
            static const std::set<std::string> reject = {
                ".",  "->", "=",  ",",  "(",  "<",  "<<", ">>", "&&",
                "||", "!",  "?",  "+",  "-",  "/",  "%",  "==", "!=",
                "<=", ">=", "|",  "^",  "[",  "~",
            };
            if (reject.count(prev.text) != 0)
                return c;
        } else if (prev.kind == Tok::Identifier) {
            static const std::set<std::string> reject = {
                "return",  "throw",     "new",      "delete",
                "case",    "goto",      "co_return", "co_await",
                "co_yield", "sizeof",   "else",     "do",
            };
            if (reject.count(prev.text) != 0)
                return c;
        } else {
            return c;  /* number/string before a declarator: expression */
        }
    }
    c.ok = true;
    return c;
}

/** Outcome of classifying the tokens after a declarator's ')'. */
struct Classified
{
    enum Kind
    {
        Reject,
        Decl,
        Def,
    } kind = Reject;
    std::size_t end = 0;       ///< last token of the construct
    std::size_t bodyOpen = kNpos;
    std::size_t bodyClose = kNpos;
    bool renamedCallOperator = false;
};

/** Consume a constructor initializer list starting at ':' and return
 *  the index of the body '{', or kNpos when it is not one. */
std::size_t
consumeCtorInit(const std::vector<Token> &code, std::size_t j)
{
    ++j;
    for (int guard = 0; guard < 400 && j < code.size(); ++guard) {
        /* member or base name, possibly qualified/templated */
        bool sawName = false;
        while (j < code.size() &&
               ((isIdent(code[j]) && !isKeyword(code[j].text)) ||
                isPunct(code[j], "::"))) {
            sawName = true;
            ++j;
            if (j < code.size() && isPunct(code[j], "<")) {
                const std::size_t ca = skipAngles(code, j);
                if (ca != kNpos)
                    j = ca + 1;
            }
        }
        if (!sawName || j >= code.size())
            return kNpos;
        if (isPunct(code[j], "(")) {
            const std::size_t m = matchParen(code, j);
            if (m == kNpos)
                return kNpos;
            j = m + 1;
        } else if (isPunct(code[j], "{")) {
            const std::size_t m = matchBrace(code, j);
            if (m == kNpos)
                return kNpos;
            j = m + 1;
        } else {
            return kNpos;
        }
        if (j < code.size() && isPunct(code[j], "..."))
            ++j;
        if (j < code.size() && isPunct(code[j], ",")) {
            ++j;
            continue;
        }
        if (j < code.size() && isPunct(code[j], "{"))
            return j;
        return kNpos;
    }
    return kNpos;
}

/**
 * Decide whether the declarator whose parameter list closed at
 * code[closeParen] is a definition (body, `= default`), a declaration
 * (`;`, `= delete`, `= 0`), or not a function at all. Handles
 * cv/ref-qualifiers, noexcept(...), trailing return types, attribute
 * and specifier macros, constructor initializer lists, and the
 * `operator()` double-paren form.
 */
Classified
classifyDeclarator(const std::vector<Token> &code, std::size_t closeParen,
                   Chain &chain)
{
    Classified out;
    std::size_t close = closeParen;

    if (!chain.parts.empty() && chain.parts.back() == "operator" &&
        close + 1 < code.size() && isPunct(code[close + 1], "(")) {
        const std::size_t m = matchParen(code, close + 1);
        if (m == kNpos)
            return out;
        chain.parts.back() = "operator()";
        out.renamedCallOperator = true;
        close = m;
    }

    std::size_t j = close + 1;
    for (int guard = 0; guard < 64 && j < code.size(); ++guard) {
        const Token &t = code[j];
        if (t.kind == Tok::Identifier) {
            if (t.text == "noexcept") {
                ++j;
                if (j < code.size() && isPunct(code[j], "(")) {
                    const std::size_t m = matchParen(code, j);
                    if (m == kNpos)
                        return out;
                    j = m + 1;
                }
                continue;
            }
            if (t.text == "const" || t.text == "override" ||
                t.text == "final" || t.text == "mutable" ||
                t.text == "volatile" || t.text == "try") {
                ++j;
                continue;
            }
            /* unknown identifier: a specifier macro (thread-safety
             * annotation, export macro); skip it and its arguments */
            ++j;
            if (j < code.size() && isPunct(code[j], "(")) {
                const std::size_t m = matchParen(code, j);
                if (m == kNpos)
                    return out;
                j = m + 1;
            }
            continue;
        }
        if (t.kind != Tok::Punct)
            return out;
        if (t.text == "&" || t.text == "&&") {
            ++j;
            continue;
        }
        if (t.text == "[[" || t.text == "[") {
            long sq = 0;
            while (j < code.size()) {
                if (isPunct(code[j], "[["))
                    sq += 2;
                else if (isPunct(code[j], "["))
                    ++sq;
                else if (isPunct(code[j], "]]"))
                    sq -= 2;
                else if (isPunct(code[j], "]"))
                    --sq;
                ++j;
                if (sq <= 0)
                    break;
            }
            continue;
        }
        if (t.text == "->") {
            /* trailing return type: skip to '{', ';' or '=' at the
             * top nesting level */
            ++j;
            long pd = 0;
            int cap = 0;
            while (j < code.size() && ++cap < 120) {
                const Token &u = code[j];
                if (isPunct(u, "(") || isPunct(u, "["))
                    ++pd;
                else if (isPunct(u, ")") || isPunct(u, "]"))
                    --pd;
                else if (isPunct(u, "<")) {
                    const std::size_t ca = skipAngles(code, j);
                    if (ca != kNpos) {
                        j = ca + 1;
                        continue;
                    }
                } else if (pd == 0 &&
                           (isPunct(u, "{") || isPunct(u, ";") ||
                            isPunct(u, "=")))
                    break;
                ++j;
            }
            continue;
        }
        if (t.text == ":") {
            const std::size_t body = consumeCtorInit(code, j);
            if (body == kNpos)
                return out;
            j = body;
            continue;
        }
        if (t.text == "{") {
            const std::size_t bc = matchBrace(code, j);
            if (bc == kNpos)
                return out;
            out.kind = Classified::Def;
            out.bodyOpen = j;
            out.bodyClose = bc;
            out.end = bc;
            return out;
        }
        if (t.text == ";") {
            out.kind = Classified::Decl;
            out.end = j;
            return out;
        }
        if (t.text == "=") {
            std::size_t k = j + 1;
            if (k >= code.size())
                return out;
            std::string what =
                isIdent(code[k]) ? code[k].text
                                 : (code[k].kind == Tok::Number
                                        ? code[k].text
                                        : std::string());
            while (k < code.size() && !isPunct(code[k], ";") &&
                   !isPunct(code[k], "}"))
                ++k;
            if (k >= code.size() || !isPunct(code[k], ";"))
                return out;
            if (what == "default") {
                out.kind = Classified::Def;
                out.end = k;
            } else if (what == "delete" || what == "0") {
                out.kind = Classified::Decl;
                out.end = k;
            }
            return out;
        }
        return out;
    }
    return out;
}

/** One entry of the scope stack during the extraction walk. */
struct ScopeEntry
{
    enum Kind
    {
        Ns,
        Class,
        Block,
    } kind = Block;
    std::string name;
    long entryDepth = 0;  ///< brace depth when the scope was opened
};

/**
 * The extraction walk (pass A): find every declarator at
 * namespace/class scope, record definitions and declarations with
 * qualified names, mark their token ranges consumed, and scan
 * definition bodies for edges. Everything left unconsumed is scanned
 * afterwards onto the file-scope pseudo-symbol (pass B).
 */
void
walkFile(const std::vector<Token> &code, FileFacts &facts)
{
    std::vector<ScopeEntry> scopes;
    std::vector<char> consumed(code.size(), 0);
    long depth = 0;
    const std::size_t n = code.size();

    auto detecting = [&] {
        return scopes.empty() || scopes.back().kind != ScopeEntry::Block;
    };
    auto scopePrefix = [&] {
        std::string prefix;
        for (const ScopeEntry &s : scopes)
            if (s.kind != ScopeEntry::Block)
                prefix += (prefix.empty() ? "" : "::") + s.name;
        return prefix;
    };
    auto markConsumed = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k <= hi && k < n; ++k)
            consumed[k] = 1;
    };

    std::size_t i = 0;
    while (i < n) {
        const Token &t = code[i];

        if (isIdent(t) && t.text == "template" && i + 1 < n &&
            isPunct(code[i + 1], "<")) {
            const std::size_t ca = skipAngles(code, i + 1);
            i = ca == kNpos ? i + 1 : ca + 1;
            continue;
        }

        if (isIdent(t) && t.text == "namespace" && detecting()) {
            std::size_t j = i + 1;
            if (j + 1 < n && isIdent(code[j]) &&
                isPunct(code[j + 1], "=")) {
                /* namespace alias: consume to ';' */
                while (j < n && !isPunct(code[j], ";"))
                    ++j;
                markConsumed(i, j);
                i = j + 1;
                continue;
            }
            std::string nm;
            while (j < n && isIdent(code[j]) &&
                   !isKeyword(code[j].text)) {
                nm += (nm.empty() ? "" : "::") + code[j].text;
                ++j;
                if (j < n && isPunct(code[j], "::"))
                    ++j;
                else
                    break;
            }
            if (j < n && isPunct(code[j], "{")) {
                scopes.push_back(
                    {ScopeEntry::Ns,
                     nm.empty() ? "(anon@" + facts.path + ")" : nm,
                     depth});
                ++depth;
                markConsumed(i, j);
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }

        if (isIdent(t) &&
            (t.text == "class" || t.text == "struct" ||
             t.text == "union") &&
            detecting() &&
            !(i > 0 && isIdent(code[i - 1]) &&
              code[i - 1].text == "enum")) {
            std::size_t j = i + 1;
            std::string nm = "(anon)";
            if (j < n && isIdent(code[j]) && !isKeyword(code[j].text)) {
                nm = code[j].text;
                ++j;
                while (j + 1 < n && isPunct(code[j], "::") &&
                       isIdent(code[j + 1])) {
                    nm += "::" + code[j + 1].text;
                    j += 2;
                }
                if (j < n && isIdent(code[j]) &&
                    code[j].text == "final")
                    ++j;
            }
            if (j < n && isPunct(code[j], "<")) {
                /* explicit specialization head */
                const std::size_t ca = skipAngles(code, j);
                if (ca != kNpos)
                    j = ca + 1;
            }
            if (j < n && isPunct(code[j], ":")) {
                long pd = 0;
                while (j < n) {
                    if (isPunct(code[j], "(") || isPunct(code[j], "["))
                        ++pd;
                    else if (isPunct(code[j], ")") ||
                             isPunct(code[j], "]"))
                        --pd;
                    else if (isPunct(code[j], "<")) {
                        const std::size_t ca = skipAngles(code, j);
                        if (ca != kNpos) {
                            j = ca + 1;
                            continue;
                        }
                    } else if (pd == 0 && (isPunct(code[j], "{") ||
                                           isPunct(code[j], ";")))
                        break;
                    ++j;
                }
            }
            if (j < n && isPunct(code[j], "{")) {
                scopes.push_back({ScopeEntry::Class, nm, depth});
                ++depth;
                markConsumed(i, j);
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }

        if (isIdent(t) && t.text == "enum") {
            /* enum bodies are consumed whole: enumerators are values,
             * not symbols, and must not pollute reference edges */
            std::size_t j = i + 1;
            while (j < n && !isPunct(code[j], "{") &&
                   !isPunct(code[j], ";"))
                ++j;
            if (j < n && isPunct(code[j], "{")) {
                const std::size_t mb = matchBrace(code, j);
                if (mb != kNpos) {
                    markConsumed(i, mb);
                    i = mb + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }

        if (isPunct(t, "{")) {
            scopes.push_back({ScopeEntry::Block, "", depth});
            ++depth;
            ++i;
            continue;
        }
        if (isPunct(t, "}")) {
            --depth;
            if (!scopes.empty() && scopes.back().entryDepth == depth)
                scopes.pop_back();
            ++i;
            continue;
        }

        if (isPunct(t, "(") && detecting()) {
            Chain chain = backWalkChain(code, i);
            const std::size_t close =
                chain.ok ? matchParen(code, i) : kNpos;
            if (chain.ok && close != kNpos) {
                Classified cls = classifyDeclarator(code, close, chain);
                if (cls.kind != Classified::Reject) {
                    SymbolFact sym;
                    std::string joined;
                    for (std::size_t p = 0; p < chain.parts.size(); ++p)
                        joined +=
                            (p == 0 ? "" : "::") + chain.parts[p];
                    const std::string prefix = scopePrefix();
                    sym.qname = prefix.empty()
                                    ? joined
                                    : prefix + "::" + joined;
                    sym.line = code[chain.start].line;
                    sym.defined = cls.kind == Classified::Def;
                    if (cls.kind == Classified::Def &&
                        cls.bodyOpen != kNpos) {
                        scanEdges(code, i, cls.bodyClose + 1, sym,
                                  facts.unresolvedSites);
                    } else if (cls.kind == Classified::Decl) {
                        /* harvest reference edges from the parameter
                         * list so macro-style declarations keep their
                         * arguments alive */
                        std::map<std::string, std::size_t> refs;
                        for (std::size_t k = i + 1; k < close; ++k)
                            if (isIdent(code[k]) &&
                                !isKeyword(code[k].text) &&
                                refs.find(code[k].text) == refs.end())
                                refs.emplace(code[k].text,
                                             code[k].line);
                        for (const auto &r : refs)
                            sym.edges.push_back({r.first, EdgeKind::Ref,
                                                 false, r.second});
                    }
                    facts.symbols.push_back(std::move(sym));
                    markConsumed(chain.start, cls.end);
                    i = cls.end + 1;
                    continue;
                }
            }
        }

        ++i;
    }

    /* Pass B: everything unconsumed feeds the file-scope symbol. */
    SymbolFact fileSym;
    fileSym.qname = "<file:" + facts.path + ">";
    fileSym.line = 0;
    fileSym.defined = true;
    std::size_t lo = 0;
    while (lo < n) {
        if (consumed[lo]) {
            ++lo;
            continue;
        }
        std::size_t hi = lo;
        while (hi < n && !consumed[hi])
            ++hi;
        scanEdges(code, lo, hi, fileSym, facts.unresolvedSites);
        lo = hi;
    }
    facts.symbols.push_back(std::move(fileSym));
}

/**
 * Harvest identifier references from `#define` bodies onto the
 * file-scope symbol: macro bodies are invisible to the scope walk
 * (preprocessor tokens are filtered out), but the functions they name
 * -- assertion handlers, error constructors -- must stay alive.
 */
void
harvestDefines(const std::vector<Token> &raw, SymbolFact &fileSym)
{
    std::map<std::string, std::size_t> refs;
    for (std::size_t k = 0; k + 1 < raw.size(); ++k) {
        if (!raw[k].inPreproc || !isPunct(raw[k], "#"))
            continue;
        if (!isIdent(raw[k + 1]) || raw[k + 1].text != "define")
            continue;
        std::size_t m = k + 2;
        if (m < raw.size() && isIdent(raw[m]))
            ++m;  /* skip the macro's own name */
        while (m < raw.size() && raw[m].inPreproc) {
            if (isIdent(raw[m]) && !isKeyword(raw[m].text) &&
                refs.find(raw[m].text) == refs.end())
                refs.emplace(raw[m].text, raw[m].line);
            ++m;
        }
        k = m - 1;
    }
    for (const auto &r : refs) {
        bool present = false;
        for (const EdgeFact &e : fileSym.edges)
            if (e.kind == EdgeKind::Ref && e.name == r.first) {
                present = true;
                break;
            }
        if (!present)
            fileSym.edges.push_back(
                {r.first, EdgeKind::Ref, false, r.second});
    }
}

} // namespace

std::uint64_t
fnv1a(const std::string &content)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : content) {
        hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        hash *= 1099511628211ULL;
    }
    return hash;
}

FileFacts
extractFacts(const FileInput &file)
{
    FileFacts facts;
    facts.path = file.path;
    facts.hash = fnv1a(file.content);

    const std::vector<Token> raw = viva::check::lex(file.content);
    parseWaivers(raw, facts);

    std::vector<Token> code;
    code.reserve(raw.size());
    for (const Token &t : raw)
        if (t.kind != Tok::Comment && !t.inPreproc)
            code.push_back(t);

    walkFile(code, facts);

    /* The file-scope symbol is the last one walkFile pushed; give it
     * the #define references and dedupe across the gap scans. */
    SymbolFact &fileSym = facts.symbols.back();
    harvestDefines(raw, fileSym);
    std::map<std::pair<int, std::string>, EdgeFact> dedup;
    for (const EdgeFact &e : fileSym.edges) {
        auto key = std::make_pair(static_cast<int>(e.kind), e.name);
        auto it = dedup.find(key);
        if (it == dedup.end())
            dedup.emplace(key, e);
        else
            it->second.hot = it->second.hot || e.hot;
    }
    fileSym.edges.clear();
    for (const auto &entry : dedup)
        fileSym.edges.push_back(entry.second);
    if (fileSym.edges.empty())
        facts.symbols.pop_back();

    for (SymbolFact &sym : facts.symbols) {
        auto it = facts.lineWaivers.find(sym.line);
        if (it != facts.lineWaivers.end())
            sym.waivers = it->second;
    }
    return facts;
}

namespace
{

constexpr char kCacheMagic[] = "viva-graph-cache-1";

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

char
edgeKindTag(EdgeKind kind)
{
    switch (kind) {
    case EdgeKind::Call:
        return 'C';
    case EdgeKind::Method:
        return 'M';
    case EdgeKind::Ref:
        return 'R';
    }
    return 'C';
}

} // namespace

std::string
serializeFacts(const std::vector<FileFacts> &facts)
{
    std::vector<const FileFacts *> ordered;
    ordered.reserve(facts.size());
    for (const FileFacts &f : facts)
        ordered.push_back(&f);
    std::sort(ordered.begin(), ordered.end(),
              [](const FileFacts *a, const FileFacts *b) {
                  return a->path < b->path;
              });

    std::ostringstream out;
    out << kCacheMagic << '\n';
    for (const FileFacts *f : ordered) {
        out << "F " << hashHex(f->hash) << ' ' << f->path << '\n';
        out << "U " << f->unresolvedSites << '\n';
        for (const std::string &rule : f->fileWaivers)
            out << "W " << rule << '\n';
        for (const auto &lw : f->lineWaivers)
            for (const std::string &rule : lw.second)
                out << "V " << lw.first << ' ' << rule << '\n';
        for (const Finding &n : f->waiverFindings)
            out << "N " << n.line << ' ' << n.rule << ' ' << n.message
                << '\n';
        for (const SymbolFact &s : f->symbols) {
            out << "S " << s.line << ' ' << (s.defined ? 1 : 0) << ' '
                << s.qname << '\n';
            for (const std::string &rule : s.waivers)
                out << "A " << rule << '\n';
            for (const EdgeFact &e : s.edges)
                out << "E " << edgeKindTag(e.kind) << ' '
                    << (e.hot ? 1 : 0) << ' ' << e.line << ' '
                    << e.name << '\n';
        }
    }
    return out.str();
}

namespace
{

/** Split off the first space-delimited field of `rest`. */
bool
takeField(std::string &rest, std::string &field)
{
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) {
        if (rest.empty())
            return false;
        field = rest;
        rest.clear();
        return true;
    }
    field = rest.substr(0, sp);
    rest = rest.substr(sp + 1);
    return !field.empty();
}

bool
parseSize(const std::string &s, std::size_t &out)
{
    if (s.empty())
        return false;
    std::size_t value = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    out = value;
    return true;
}

} // namespace

bool
parseFactsCache(const std::string &text,
                std::map<std::string, FileFacts> &out)
{
    out.clear();
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kCacheMagic) {
        out.clear();
        return false;
    }
    FileFacts *file = nullptr;
    SymbolFact *sym = nullptr;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line.size() < 2 || line[1] != ' ') {
            out.clear();
            return false;
        }
        const char tag = line[0];
        std::string rest = line.substr(2);
        if (tag == 'F') {
            std::string hex;
            if (!takeField(rest, hex) || hex.size() != 16 ||
                rest.empty()) {
                out.clear();
                return false;
            }
            std::uint64_t hash = 0;
            for (const char c : hex) {
                hash <<= 4;
                if (c >= '0' && c <= '9')
                    hash |= static_cast<std::uint64_t>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    hash |= static_cast<std::uint64_t>(c - 'a' + 10);
                else {
                    out.clear();
                    return false;
                }
            }
            file = &out[rest];
            file->path = rest;
            file->hash = hash;
            sym = nullptr;
            continue;
        }
        if (file == nullptr) {
            out.clear();
            return false;
        }
        switch (tag) {
        case 'U': {
            if (!parseSize(rest, file->unresolvedSites)) {
                out.clear();
                return false;
            }
            break;
        }
        case 'W': {
            file->fileWaivers.insert(rest);
            break;
        }
        case 'V': {
            std::string lineField;
            std::size_t lineNo = 0;
            if (!takeField(rest, lineField) ||
                !parseSize(lineField, lineNo) || rest.empty()) {
                out.clear();
                return false;
            }
            file->lineWaivers[lineNo].insert(rest);
            break;
        }
        case 'N': {
            std::string lineField;
            std::string rule;
            std::size_t lineNo = 0;
            if (!takeField(rest, lineField) ||
                !parseSize(lineField, lineNo) ||
                !takeField(rest, rule) || rest.empty()) {
                out.clear();
                return false;
            }
            file->waiverFindings.push_back(
                {file->path, lineNo, rule, rest});
            break;
        }
        case 'S': {
            std::string lineField;
            std::string defField;
            std::size_t lineNo = 0;
            if (!takeField(rest, lineField) ||
                !parseSize(lineField, lineNo) ||
                !takeField(rest, defField) ||
                (defField != "0" && defField != "1") || rest.empty()) {
                out.clear();
                return false;
            }
            file->symbols.emplace_back();
            sym = &file->symbols.back();
            sym->qname = rest;
            sym->line = lineNo;
            sym->defined = defField == "1";
            break;
        }
        case 'A': {
            if (sym == nullptr) {
                out.clear();
                return false;
            }
            sym->waivers.insert(rest);
            break;
        }
        case 'E': {
            std::string kindField;
            std::string hotField;
            std::string lineField;
            std::size_t lineNo = 0;
            if (sym == nullptr || !takeField(rest, kindField) ||
                !takeField(rest, hotField) ||
                !takeField(rest, lineField) ||
                !parseSize(lineField, lineNo) || rest.empty() ||
                (hotField != "0" && hotField != "1")) {
                out.clear();
                return false;
            }
            EdgeKind kind = EdgeKind::Call;
            if (kindField == "C")
                kind = EdgeKind::Call;
            else if (kindField == "M")
                kind = EdgeKind::Method;
            else if (kindField == "R")
                kind = EdgeKind::Ref;
            else {
                out.clear();
                return false;
            }
            sym->edges.push_back(
                {rest, kind, hotField == "1", lineNo});
            break;
        }
        default:
            out.clear();
            return false;
        }
    }
    return true;
}

} // namespace viva::graph
