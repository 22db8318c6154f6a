#include "rules.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <tuple>

#include "index.hh"

namespace rsrlint
{

namespace
{

std::string
squeeze(const std::string &s)
{
    std::string out;
    bool space = false;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            space = !out.empty();
            continue;
        }
        if (space)
            out += ' ';
        space = false;
        out += c;
    }
    return out;
}

bool
inZones(Zone z, const std::vector<Zone> &zones)
{
    return std::find(zones.begin(), zones.end(), z) != zones.end();
}

/** Emit @p finding unless suppressed at its (0-based) line. */
void
emit(const SourceFile &file, std::vector<Finding> &out,
     const std::string &rule, std::size_t idx, const std::string &msg)
{
    if (file.suppressed(rule, idx))
        return;
    Finding f;
    f.rule = rule;
    f.path = file.path;
    f.line = idx + 1;
    f.message = msg;
    f.lineText = idx < file.lines.size() ? squeeze(file.lines[idx].code)
                                         : std::string();
    out.push_back(std::move(f));
}

// ---------------------------------------------------------------------
// Simple per-line pattern rules.
// ---------------------------------------------------------------------

struct PatternRule
{
    const char *id;
    std::regex pattern;
    const char *message;
    std::vector<Zone> zones;
    bool scanPreprocessor;
};

const std::vector<PatternRule> &
patternRules()
{
    static const std::vector<PatternRule> rules = {
        {"det-random",
         std::regex(R"((^|[^\w:])(std::)?(rand|srand|drand48|lrand48|random)\s*\(|random_device)"),
         "unseeded/global randomness in deterministic code — use the "
         "seeded rsr::Rng (src/util/random.hh)",
         {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe, Zone::Bench},
         false},
        {"det-wallclock",
         std::regex(R"(system_clock|high_resolution_clock|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bstrftime\b|(^|[^\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)|(^|[^\w:.])clock\s*\(\s*\))"),
         "wall-clock time in library code breaks replayability — "
         "steady_clock (util/timer.hh, util/deadline.hh) is the only "
         "sanctioned clock",
         {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe},
         false},
        {"err-exit",
         std::regex(R"((^|[^\w:.])(std::)?(exit|abort|_Exit|quick_exit|terminate)\s*\()"),
         "library code must not end the process — throw a SimError "
         "subclass (util/error.hh) so the campaign runner can record "
         "the failure and continue",
         {Zone::SrcLib, Zone::SrcServe},
         false},
        {"err-assert",
         std::regex(R"((^|[^\w])assert\s*\(|#\s*include\s*[<"](cassert|assert\.h)[>"])"),
         "C assert() aborts the process — use rsr_assert "
         "(util/logging.hh), which throws InternalError",
         {Zone::SrcLib, Zone::SrcServe},
         true},
        {"serve-blocking-io",
         std::regex(
             R"((^|[^\w.:>])(::\s*)?(accept4?|connect|recv(from|msg)?|send(to|msg)?|read|write|p?poll|p?select)\s*\()"),
         "raw socket syscall in the serve zone — go through "
         "src/serve/net_io.hh, whose nonblocking poll(2) wrappers cap "
         "every operation with a Deadline so a hung peer cannot wedge "
         "the daemon",
         {Zone::SrcServe},
         false},
    };
    return rules;
}

// ---------------------------------------------------------------------
// det-unordered-iter: iteration over unordered associative containers.
// ---------------------------------------------------------------------

/** Offsets of each line start in a joined-code string. */
std::vector<std::size_t>
lineStarts(const std::string &code)
{
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < code.size(); ++i)
        if (code[i] == '\n')
            starts.push_back(i + 1);
    return starts;
}

std::size_t
lineOf(const std::vector<std::size_t> &starts, std::size_t pos)
{
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), pos);
    return static_cast<std::size_t>(it - starts.begin()) - 1;
}

/**
 * Names of variables (and one level of using-aliases) declared with an
 * unordered associative container type anywhere in @p code.
 */
std::set<std::string>
unorderedNames(const std::string &code)
{
    std::set<std::string> aliases;
    static const std::regex alias_re(
        R"(using\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set|multimap|multiset)\b)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        alias_re);
         it != std::sregex_iterator(); ++it)
        aliases.insert((*it)[1]);

    std::set<std::string> names;
    auto scan_decls = [&](const std::regex &type_re, bool angle) {
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            type_re);
             it != std::sregex_iterator(); ++it) {
            std::size_t p = static_cast<std::size_t>(it->position()) +
                            static_cast<std::size_t>(it->length());
            if (angle) {
                // Match the template argument list by bracket depth.
                while (p < code.size() &&
                       std::isspace(static_cast<unsigned char>(code[p])))
                    ++p;
                if (p >= code.size() || code[p] != '<')
                    continue;
                int depth = 0;
                for (; p < code.size(); ++p) {
                    if (code[p] == '<')
                        ++depth;
                    else if (code[p] == '>' && --depth == 0) {
                        ++p;
                        break;
                    }
                }
            }
            // Skip whitespace and reference/const decoration, then
            // capture the declared identifier if one follows.
            while (p < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[p])) ||
                    code[p] == '&'))
                ++p;
            std::string name;
            while (p < code.size() &&
                   (std::isalnum(static_cast<unsigned char>(code[p])) ||
                    code[p] == '_'))
                name += code[p++];
            if (!name.empty() && name != "const")
                names.insert(name);
        }
    };
    scan_decls(std::regex(
                   R"((?:std::)?unordered_(?:map|set|multimap|multiset))"),
               true);
    for (const std::string &a : aliases)
        scan_decls(std::regex("\\b" + a + "\\b"), false);
    return names;
}

void
checkUnorderedIter(const SourceFile &file, std::vector<Finding> &out)
{
    const std::string code = file.joinedCode();
    if (code.find("unordered_") == std::string::npos)
        return;
    const auto starts = lineStarts(code);
    std::set<std::pair<std::size_t, std::string>> seen;
    for (const std::string &name : unorderedNames(code)) {
        // Range-for over the container, or an explicit iterator walk
        // starting at begin(). A lone end() is only a lookup-miss
        // check (`find(k) != m.end()`), so it is not flagged.
        const std::regex use_re(":\\s*" + name + "\\s*\\)|\\b" + name +
                                "\\s*\\.\\s*c?r?begin\\s*\\(");
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            use_re);
             it != std::sregex_iterator(); ++it) {
            const std::size_t idx = lineOf(
                starts, static_cast<std::size_t>(it->position()));
            if (!seen.insert({idx, name}).second)
                continue;
            emit(file, out, "det-unordered-iter", idx,
                 "iteration over unordered container '" + name +
                     "' has unspecified order — sort (or use an "
                     "ordered container) before it can feed stats, "
                     "CSV, or JSON output");
        }
    }
}

// ---------------------------------------------------------------------
// conc-global-state: mutable namespace-scope variables.
// ---------------------------------------------------------------------

bool
looksLikeMutableGlobal(const std::string &stmt_in)
{
    const std::string stmt = squeeze(stmt_in);
    if (stmt.empty())
        return false;
    static const std::regex skip_lead(
        R"(^(inline\s+|static\s+)*(using|typedef|template|extern|friend|static_assert|class|struct|union|enum|namespace|public|private|protected|if|for|while|switch|return|goto|case)\b)");
    if (std::regex_search(stmt, skip_lead))
        return false;
    static const std::regex immutable(
        R"(\bconst\b|\bconstexpr\b|\bconstinit\b)");
    if (std::regex_search(stmt, immutable))
        return false;
    // Anything with a parameter list (function declarations, ctor-call
    // initializers) is out of scope for this lexical check.
    if (stmt.find('(') != std::string::npos ||
        stmt.find("operator") != std::string::npos)
        return false;
    static const std::regex decl(
        R"(^(inline\s+|static\s+|thread_local\s+|mutable\s+)*[A-Za-z_][\w:<>,\*&\s\[\]]*[\s\*&][A-Za-z_]\w*\s*(\[[^\]]*\])?\s*(=.*|\{.*)?$)");
    return std::regex_match(stmt, decl);
}

void
checkGlobalState(const SourceFile &file, std::vector<Finding> &out)
{
    const std::string code = file.joinedCode();
    const auto starts = lineStarts(code);

    enum class Ctx
    {
        Namespace,
        Type,
        Func,
        Init,
    };
    std::vector<Ctx> stack;
    auto at_ns_scope = [&] {
        return std::all_of(stack.begin(), stack.end(), [](Ctx c) {
            return c == Ctx::Namespace;
        });
    };

    std::string stmt;
    std::size_t stmt_line = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '{') {
            // Classify the brace from the statement heading built up so
            // far: a function definition always carries a parameter
            // list, so a parenthesis-free heading at namespace scope is
            // a brace-initialized variable (or similar) whose statement
            // continues past the matching '}'.
            Ctx kind = Ctx::Func;
            const std::string s = squeeze(stmt);
            if (std::regex_search(
                    s, std::regex(R"((^|\s)namespace(\s|$))")))
                kind = Ctx::Namespace;
            else if (std::regex_search(
                         s,
                         std::regex(
                             R"((^|\s)(class|struct|union|enum)(\s|$))")))
                kind = Ctx::Type;
            else if (s.find('(') == std::string::npos)
                kind = Ctx::Init;
            stack.push_back(kind);
            if (kind == Ctx::Namespace)
                stmt.clear();
            continue;
        }
        if (c == '}') {
            if (!stack.empty()) {
                const Ctx closed = stack.back();
                stack.pop_back();
                // A function definition at namespace scope consumes its
                // heading; a type or brace-init keeps the statement
                // alive until its ';'.
                if (closed == Ctx::Func && at_ns_scope())
                    stmt.clear();
            }
            continue;
        }
        if (!at_ns_scope())
            continue;
        if (c == ';') {
            if (looksLikeMutableGlobal(stmt))
                emit(file, out, "conc-global-state", stmt_line,
                     "mutable namespace-scope state ('" +
                         squeeze(stmt).substr(0, 48) +
                         "') is shared by every thread — make it "
                         "const, or own it inside a class");
            stmt.clear();
            continue;
        }
        if (stmt.empty() &&
            !std::isspace(static_cast<unsigned char>(c)))
            stmt_line = lineOf(starts, i);
        if (!stmt.empty() ||
            !std::isspace(static_cast<unsigned char>(c)))
            stmt += c;
    }
}

// ---------------------------------------------------------------------
// conc-shared-hot-write: non-atomic writes to shared containers from
// pool-submitted lambdas, outside a marked commit zone.
// ---------------------------------------------------------------------

/**
 * The parallel-replay convention (harness/parallel_run.cc): a task
 * submitted to the worker pool may only write shared containers inside
 * a commit zone — a region the author has explicitly marked with a
 * `rsrlint: commit-zone` comment after convincing themselves the writes
 * are disjoint (committed by index, one slot per task) or otherwise
 * synchronized. Everything else is treated as a data race in waiting:
 * the lambda runs on an arbitrary worker at an arbitrary time.
 *
 * Lexically: inside every lambda passed to a `submit(` call, flag
 * subscript-assignments and mutating container calls on identifiers the
 * lambda captures by reference (or any identifier under a `this` /
 * default-& capture), unless a commit-zone marker appears between the
 * lambda introducer and the write.
 */
void
checkSharedHotWrite(const SourceFile &file, std::vector<Finding> &out)
{
    const std::string code = file.joinedCode();
    if (code.find("submit") == std::string::npos)
        return;
    const auto starts = lineStarts(code);

    static const std::regex submit_re(R"(\bsubmit\s*\()");
    static const std::regex sub_write_re(
        R"((\w+)\s*\[[^\]]*\]\s*(?:\.\w+|->\w+)*\s*[-+*/|&^]?=(?!=))");
    static const std::regex mut_call_re(
        R"((\w+)\s*\.\s*(push_back|emplace_back|emplace|insert|erase|clear|resize|pop_back|assign)\s*\()");

    for (auto sit = std::sregex_iterator(code.begin(), code.end(),
                                         submit_re);
         sit != std::sregex_iterator(); ++sit) {
        // Find the lambda introducer '[' among submit's own arguments.
        std::size_t p = static_cast<std::size_t>(sit->position()) +
                        static_cast<std::size_t>(sit->length());
        int pdepth = 1;
        std::size_t lb = std::string::npos;
        for (std::size_t q = p; q < code.size() && pdepth > 0; ++q) {
            const char c = code[q];
            if (c == '(')
                ++pdepth;
            else if (c == ')')
                --pdepth;
            else if (c == '[' && pdepth == 1) {
                lb = q;
                break;
            }
        }
        if (lb == std::string::npos)
            continue;
        const std::size_t rb = code.find(']', lb);
        if (rb == std::string::npos)
            continue;

        // Parse the capture list: '&name' captures by reference; a bare
        // '&' or 'this' makes every outer name reachable by reference.
        const std::string caps = code.substr(lb + 1, rb - lb - 1);
        std::set<std::string> ref_names;
        bool ref_all = false;
        std::size_t tok_start = 0;
        for (std::size_t q = 0; q <= caps.size(); ++q) {
            if (q < caps.size() && caps[q] != ',')
                continue;
            std::string tok = squeeze(caps.substr(tok_start,
                                                  q - tok_start));
            tok_start = q + 1;
            if (tok == "&" || tok == "this" || tok == "*this")
                ref_all = true;
            else if (tok.size() > 1 && tok[0] == '&')
                ref_names.insert(tok.substr(1));
        }
        if (!ref_all && ref_names.empty())
            continue; // value captures: the lambda owns its copies

        // Find the body braces (skipping any parameter list).
        std::size_t body_start = std::string::npos;
        int pd = 0;
        for (std::size_t q = rb + 1; q < code.size(); ++q) {
            const char c = code[q];
            if (c == '(')
                ++pd;
            else if (c == ')')
                --pd;
            else if (c == '{' && pd == 0) {
                body_start = q;
                break;
            } else if (c == ';')
                break;
        }
        if (body_start == std::string::npos)
            continue;
        std::size_t body_end = std::string::npos;
        int bd = 0;
        for (std::size_t q = body_start; q < code.size(); ++q) {
            if (code[q] == '{')
                ++bd;
            else if (code[q] == '}' && --bd == 0) {
                body_end = q;
                break;
            }
        }
        if (body_end == std::string::npos)
            continue;
        const std::string body =
            code.substr(body_start, body_end - body_start + 1);
        const std::size_t lambda_line = lineOf(starts, lb);

        const auto commitZoned = [&](std::size_t write_line) {
            for (std::size_t k = lambda_line;
                 k <= write_line && k < file.lines.size(); ++k)
                if (file.lines[k].comment.find("rsrlint: commit-zone") !=
                    std::string::npos)
                    return true;
            return false;
        };

        const auto scan = [&](const std::regex &re, const char *what) {
            for (auto wit = std::sregex_iterator(body.begin(),
                                                 body.end(), re);
                 wit != std::sregex_iterator(); ++wit) {
                const std::string name = (*wit)[1];
                if (!ref_all && ref_names.count(name) == 0)
                    continue;
                const std::size_t idx = lineOf(
                    starts,
                    body_start +
                        static_cast<std::size_t>(wit->position()));
                if (commitZoned(idx))
                    continue;
                emit(file, out, "conc-shared-hot-write", idx,
                     std::string(what) + " '" + name +
                         "' is shared with the submitting thread and "
                         "every pool worker — commit results by index "
                         "inside a '// rsrlint: commit-zone' (after "
                         "proving the writes disjoint) and fold them "
                         "after wait()");
            }
        };
        scan(sub_write_re,
             "subscript write to reference-captured container");
        scan(mut_call_re,
             "mutating call on reference-captured container");
    }
}

// ---------------------------------------------------------------------
// conc-unused-mutex: a mutex member with no lock use in the TU pair.
// ---------------------------------------------------------------------

bool
hasLockUse(const SourceFile &file)
{
    static const std::regex lock_re(
        R"(lock_guard|unique_lock|scoped_lock|shared_lock|\.lock\s*\(|->lock\s*\(|try_lock)");
    for (const SourceLine &l : file.lines)
        if (std::regex_search(l.code, lock_re))
            return true;
    return false;
}

void
checkUnusedMutex(
    const SourceFile &file,
    const std::function<const SourceFile *(const std::string &)>
        &sibling,
    std::vector<Finding> &out)
{
    static const std::regex decl_re(
        R"((?:std::)?(?:recursive_|shared_|timed_)?mutex\s+(\w+)\s*[;{=])");
    std::vector<std::pair<std::size_t, std::string>> decls;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(file.lines[i].code, m, decl_re))
            decls.push_back({i, m[1]});
    }
    if (decls.empty())
        return;
    bool locked = hasLockUse(file);
    if (!locked) {
        // x.hh pairs with x.cc and vice versa.
        const auto dot = file.path.rfind('.');
        if (dot != std::string::npos) {
            const std::string stem = file.path.substr(0, dot);
            const std::string ext = file.path.substr(dot);
            for (const char *other :
                 {".hh", ".cc", ".hpp", ".cpp", ".h"}) {
                if (ext == other)
                    continue;
                if (const SourceFile *s = sibling(stem + other)) {
                    if (hasLockUse(*s)) {
                        locked = true;
                        break;
                    }
                }
            }
        }
    }
    if (locked)
        return;
    for (const auto &[idx, name] : decls)
        emit(file, out, "conc-unused-mutex", idx,
             "mutex '" + name +
                 "' is never locked in this translation unit (or its "
                 "header/source pair) — dead synchronization hides "
                 "real races");
}

} // namespace

Zone
zoneOf(const std::string &path)
{
    if (path.rfind("src/harness/", 0) == 0)
        return Zone::SrcHarness;
    if (path.rfind("src/serve/", 0) == 0)
        return Zone::SrcServe;
    if (path.rfind("src/", 0) == 0)
        return Zone::SrcLib;
    if (path.rfind("tools/", 0) == 0)
        return Zone::Tools;
    if (path.rfind("bench/", 0) == 0)
        return Zone::Bench;
    return Zone::Other;
}

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"det-random", "determinism",
         "no rand()/srand()/std::random_device in library or bench "
         "code; use the seeded rsr::Rng",
         false},
        {"det-wallclock", "determinism",
         "no wall-clock reads in library code; steady_clock only",
         false},
        {"det-unordered-iter", "determinism",
         "no iteration over unordered_map/unordered_set where order "
         "can feed stats/CSV/JSON output",
         false},
        {"err-exit", "error-handling",
         "no exit()/abort()/terminate() in library code; throw "
         "SimError",
         false},
        {"err-assert", "error-handling",
         "no C assert() in library code; rsr_assert throws instead",
         false},
        {"conc-global-state", "concurrency",
         "no mutable namespace-scope state in library code",
         false},
        {"conc-unused-mutex", "concurrency",
         "every declared mutex must be locked somewhere in its "
         "header/source pair",
         false},
        {"conc-shared-hot-write", "concurrency",
         "no non-atomic writes to reference-captured containers inside "
         "pool-submitted lambdas outside a '// rsrlint: commit-zone' "
         "marker",
         false},
        {"serve-blocking-io", "serve",
         "no raw socket syscalls in src/serve outside net_io.cc; every "
         "network operation must run under a Deadline-capped poll "
         "wrapper",
         false},
        {"hot-endl", "hot-path",
         "no std::endl in library code (it flushes); use '\\n'",
         true},
        {"hot-throw", "hot-path",
         "no throw statements in files marked 'rsrlint: hot' "
         "(rsr_assert is allowed; it is cold when passing)",
         false},
        {"snap-missing-member", "snapshot",
         "every data member of a Snapshotable type must be referenced "
         "in snapshot()/restore(), or carry a '// rsrlint: "
         "snap-excluded(<why>)' marker",
         false},
        {"snap-asymmetry", "snapshot",
         "snapshot() and restore() must touch the same members in the "
         "same relative order; framed payloads are positional",
         false},
        {"snap-version-drift", "snapshot",
         "changing a type's serialized-member list requires bumping "
         "its snapshotVersion and refreshing "
         "tools/lint/snapshot_abi.txt (--update-snapshot-abi)",
         false},
        {"lock-order", "concurrency",
         "guard acquisitions must respect the TU pair's documented "
         "'// rsrlint: lock-order(a < b)' spec",
         false},
        {"bad-suppression", "meta",
         "every rsrlint: allow()/allow-file() must name a real rule; "
         "a typo silently disables nothing",
         false},
    };
    return catalog;
}

bool
knownRule(const std::string &rule)
{
    for (const RuleInfo &r : ruleCatalog())
        if (rule == r.id)
            return true;
    return false;
}

std::vector<Finding>
runRules(const SourceFile &file,
         const std::function<const SourceFile *(const std::string &)>
             &sibling)
{
    std::vector<Finding> out;
    const Zone zone = zoneOf(file.path);

    for (const PatternRule &rule : patternRules()) {
        if (!inZones(zone, rule.zones))
            continue;
        for (std::size_t i = 0; i < file.lines.size(); ++i) {
            const SourceLine &l = file.lines[i];
            if (l.preprocessor && !rule.scanPreprocessor)
                continue;
            if (std::regex_search(l.code, rule.pattern))
                emit(file, out, rule.id, i, rule.message);
        }
    }

    if (inZones(zone, {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe,
                       Zone::Tools, Zone::Bench}))
        checkUnorderedIter(file, out);

    if (inZones(zone, {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe})) {
        checkGlobalState(file, out);
        checkUnusedMutex(file, sibling, out);
    }

    if (inZones(zone, {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe,
                       Zone::Bench}))
        checkSharedHotWrite(file, out);

    // Hot-path hygiene: endl is banned across src/, and additionally in
    // any file marked hot; throw statements are banned in hot files.
    const bool endl_zone =
        inZones(zone, {Zone::SrcLib, Zone::SrcHarness, Zone::SrcServe}) ||
        file.hot;
    static const std::regex endl_re(R"(\bendl\b)");
    static const std::regex throw_re(R"(\bthrow\b|rsr_throw_\w+)");
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
        const SourceLine &l = file.lines[i];
        if (l.preprocessor)
            continue;
        if (endl_zone && std::regex_search(l.code, endl_re))
            emit(file, out, "hot-endl", i,
                 "std::endl flushes the stream every call — use '\\n' "
                 "and flush once at the end");
        if (file.hot && std::regex_search(l.code, throw_re))
            emit(file, out, "hot-throw", i,
                 "this file is marked 'rsrlint: hot'; exceptional "
                 "paths belong in the cold callers, not the "
                 "measurement loop");
    }

    // A typo'd rule name in a suppression silently disables nothing —
    // flag it (in every zone) so the dead allow() is fixed, not trusted.
    for (std::size_t i = 0; i < file.lines.size(); ++i)
        for (const std::string &name : file.lines[i].allows)
            if (!knownRule(name))
                emit(file, out, "bad-suppression", i,
                     "suppression names unknown rule '" + name +
                         "' — see rsrlint --list-rules");
    for (const std::string &name : file.fileAllows)
        if (!knownRule(name))
            emit(file, out, "bad-suppression", 0,
                 "allow-file names unknown rule '" + name +
                     "' — see rsrlint --list-rules");

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule) <
                         std::tie(b.path, b.line, b.rule);
              });
    return out;
}

namespace
{

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ",") + n;
    return out.empty() ? std::string("-") : out;
}

} // namespace

std::vector<Finding>
runProjectRules(const ProjectModel &model,
                const std::map<std::string, SourceFile> &files,
                const AbiTable *abi)
{
    std::vector<Finding> out;
    // Emit honouring suppressions when the target file was lexed (the
    // snapshot ABI file itself is not a source file, so findings
    // anchored there are never suppressible).
    auto emitAt = [&](const std::string &rule, const std::string &path,
                      std::size_t idx, const std::string &msg) {
        const auto it = files.find(path);
        if (it != files.end()) {
            emit(it->second, out, rule, idx, msg);
            return;
        }
        Finding f;
        f.rule = rule;
        f.path = path;
        f.line = idx + 1;
        f.message = msg;
        out.push_back(std::move(f));
    };

    for (const SnapType &t : model.types) {
        // With only one body visible the scan cannot judge the pair —
        // flag the missing half and skip the member-level checks.
        if (t.snapshot.found != t.restore.found) {
            const SnapMethod &have =
                t.snapshot.found ? t.snapshot : t.restore;
            emitAt("snap-asymmetry", have.path, have.line,
                   "Snapshotable type '" + t.name + "' defines " +
                       (t.snapshot.found ? "snapshot()" : "restore()") +
                       " but its " +
                       (t.snapshot.found ? "restore()" : "snapshot()") +
                       " body was not found in the scanned paths — "
                       "every Snapshotable needs both halves of the "
                       "pair");
            continue;
        }
        if (!t.snapshot.found)
            continue; // neither body visible (e.g. lone header scan)

        // snap-missing-member: a data member referenced in neither
        // body is silently dropped state — store replay would diverge.
        for (const SnapMember &m : t.members) {
            if (m.excluded || t.snapshot.references(m.name) ||
                t.restore.references(m.name))
                continue;
            emitAt("snap-missing-member", t.declPath, m.line,
                   "data member '" + m.name + "' of Snapshotable '" +
                       t.name +
                       "' is referenced in neither snapshot() nor "
                       "restore() — serialize it in both, or mark the "
                       "declaration '// rsrlint: snap-excluded(<why>)' "
                       "if it is derived or construction-time state");
        }

        // snap-asymmetry: presence in one body but not the other, or
        // a different relative order of the common members.
        std::vector<std::string> snapSeq, restSeq;
        for (const SnapMember &m : t.members) {
            if (m.excluded)
                continue;
            const bool inSnap = t.snapshot.references(m.name);
            const bool inRest = t.restore.references(m.name);
            if (inSnap && !inRest)
                emitAt("snap-asymmetry", t.snapshot.path,
                       t.snapshot.refLine(m.name),
                       "member '" + m.name + "' of '" + t.name +
                           "' appears in snapshot() but not in "
                           "restore() — restored state would silently "
                           "keep its constructed value");
            else if (inRest && !inSnap)
                emitAt("snap-asymmetry", t.restore.path,
                       t.restore.refLine(m.name),
                       "member '" + m.name + "' of '" + t.name +
                           "' appears in restore() but not in "
                           "snapshot() — restore would read bytes "
                           "snapshot never wrote");
        }
        for (const std::string &r : t.snapshot.refs) {
            const SnapMember *m = t.member(r);
            if (m && !m->excluded && t.restore.references(r))
                snapSeq.push_back(r);
        }
        for (const std::string &r : t.restore.refs) {
            const SnapMember *m = t.member(r);
            if (m && !m->excluded && t.snapshot.references(r))
                restSeq.push_back(r);
        }
        if (snapSeq != restSeq)
            emitAt("snap-asymmetry", t.restore.path, t.restore.line,
                   "snapshot() and restore() of '" + t.name +
                       "' touch members in different relative orders "
                       "(snapshot: " + joinNames(snapSeq) +
                       "; restore: " + joinNames(restSeq) +
                       ") — framed payloads are positional, reorder "
                       "one side to match the other");

        // snap-version-drift: the committed ABI table is the gate that
        // turns "bump snapshotVersion when the payload changes" from
        // convention into an error.
        if (!abi)
            continue;
        if (!t.versionKnown) {
            emitAt("snap-version-drift", t.declPath, t.declLine,
                   "cannot resolve the snapshot version expression '" +
                       (t.versionExpr.empty() ? std::string("?")
                                              : t.versionExpr) +
                       "' of '" + t.name +
                       "' to a number — snap-version-drift needs a "
                       "`<ident> = <number>` constant in the TU pair");
            continue;
        }
        const std::vector<std::string> serialized =
            t.serializedMembers();
        std::string members;
        for (const std::string &m : serialized)
            members += (members.empty() ? "" : ",") + m;
        const AbiEntry *e = abi->entry(t.name);
        if (!e) {
            emitAt("snap-version-drift", t.declPath, t.declLine,
                   "Snapshotable '" + t.name + "' has no entry in " +
                       abi->path +
                       " — run `rsrlint --update-snapshot-abi` and "
                       "commit the refreshed file");
            continue;
        }
        if (e->fingerprint != fnv64Hex(e->members))
            emitAt("snap-version-drift", abi->path, e->line,
                   "corrupt ABI entry for '" + t.name +
                       "': recorded fingerprint does not match the "
                       "recorded member list — regenerate the file "
                       "with `rsrlint --update-snapshot-abi`, never "
                       "edit it by hand");
        if (e->members == members) {
            if (e->version != t.version)
                emitAt("snap-version-drift", t.declPath, t.declLine,
                       "'" + t.name + "' is at version " +
                           std::to_string(t.version) + " but " +
                           abi->path + " records v" +
                           std::to_string(e->version) +
                           " — refresh the file with `rsrlint "
                           "--update-snapshot-abi`");
        } else if (e->version == t.version) {
            emitAt("snap-version-drift", t.declPath, t.declLine,
                   "serialized members of '" + t.name +
                       "' changed (" +
                       (e->members.empty() ? "-" : e->members) +
                       " -> " + (members.empty() ? "-" : members) +
                       ") without bumping '" +
                       (t.versionExpr.empty() ? "snapshotVersion"
                                              : t.versionExpr) +
                       "' — old stores would be misread as the new "
                       "layout; bump the version constant and run "
                       "`rsrlint --update-snapshot-abi`");
        } else {
            emitAt("snap-version-drift", t.declPath, t.declLine,
                   "serialized members of '" + t.name +
                       "' changed and the version was bumped to " +
                       std::to_string(t.version) + ", but " +
                       abi->path + " still records v" +
                       std::to_string(e->version) +
                       " — refresh it with `rsrlint "
                       "--update-snapshot-abi`");
        }
    }
    if (abi) {
        for (const AbiEntry &e : abi->entries) {
            bool known = false;
            for (const SnapType &t : model.types)
                if (t.name == e.type)
                    known = true;
            if (!known)
                emitAt("snap-version-drift", abi->path, e.line,
                       "stale ABI entry for '" + e.type +
                           "': no Snapshotable of that name exists — "
                           "remove it with `rsrlint "
                           "--update-snapshot-abi`");
        }
    }

    // lock-order: documented acquisition-order specs and their
    // observed inversions (both indexed in phase 1).
    for (const LockOrderSpec &s : model.lockSpecs)
        if (!s.parsed)
            emitAt("lock-order", s.path, s.line,
                   "unparseable lock-order spec '" + s.raw +
                       "' — expected `rsrlint: lock-order(a < b)` "
                       "where each side is a bare lock name or "
                       "`owner.field`");
    for (const LockInversion &inv : model.lockInversions)
        emitAt("lock-order", inv.path, inv.line,
               "acquiring '" + inv.acquiring + "' while '" + inv.held +
                   "' is already held (since line " +
                   std::to_string(inv.heldLine + 1) +
                   ") inverts the documented order '" +
                   inv.spec.before + " < " + inv.spec.after +
                   "' (spec at " + inv.spec.path + ":" +
                   std::to_string(inv.spec.line + 1) +
                   ") — deadlock risk");

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule, a.message) <
                         std::tie(b.path, b.line, b.rule, b.message);
              });
    return out;
}

} // namespace rsrlint
