#include "args.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "error.hh"

namespace rsr
{

namespace
{

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

/** Parse @p s as an unsigned integer in [min, max], naming @p flag. */
std::uint64_t
parseBounded(const std::string &flag, const std::string &s, int base,
             std::uint64_t min, std::uint64_t max)
{
    const char *what = min > 0 ? " expects a positive integer"
                               : " expects a non-negative integer";
    // strtoull accepts a sign and leading blanks and wraps "-5" to a huge
    // value, so the text must start with a digit.
    if (s.empty() || s[0] < '0' || s[0] > '9')
        rsr_throw_user("--", flag, what, ", got '", s, "'");
    errno = 0;
    char *end = nullptr;
    const auto v = std::strtoull(s.c_str(), &end, base);
    if (*end != '\0' || v < min)
        rsr_throw_user("--", flag, what, ", got '", s, "'");
    if (errno == ERANGE || v > max)
        rsr_throw_user("--", flag, " must be at most ", max, ", got '", s,
                       "'");
    return v;
}

} // namespace

ArgParser::ArgParser(int argc, const char *const *argv)
{
    int i = 1;
    if (i < argc && argv[i][0] != '-')
        command_ = argv[i++];
    while (i < argc) {
        std::string tok = argv[i++];
        if (tok.rfind("--", 0) != 0)
            rsr_throw_user("expected a --flag, got '", tok, "'");
        const std::string name = tok.substr(2);
        if (name.empty())
            rsr_throw_user("empty flag name");
        std::string value;
        if (i < argc && std::string(argv[i]).rfind("--", 0) != 0)
            value = argv[i++];
        flags[name].push_back(value);
    }
}

const std::string *
ArgParser::single(const std::string &flag) const
{
    const auto it = flags.find(flag);
    if (it == flags.end())
        return nullptr;
    const auto &values = it->second;
    if (values.size() > 1)
        rsr_throw_user("--", flag, " given twice",
                       values[0].empty() ? ""
                                         : " ('" + values[0] + "' and '" +
                                               values[1] + "')",
                       "; give it once");
    return &values[0];
}

bool
ArgParser::has(const std::string &flag) const
{
    return single(flag) != nullptr;
}

std::string
ArgParser::get(const std::string &flag, const std::string &fallback) const
{
    const std::string *value = single(flag);
    return value ? *value : fallback;
}

std::vector<std::string>
ArgParser::getAll(const std::string &flag) const
{
    const auto it = flags.find(flag);
    return it == flags.end() ? std::vector<std::string>{} : it->second;
}

std::uint64_t
ArgParser::getU64(const std::string &flag, std::uint64_t fallback,
                  std::uint64_t max) const
{
    return has(flag) ? parseBounded(flag, get(flag), 0, 0, max) : fallback;
}

std::uint64_t
ArgParser::getPositiveU64(const std::string &flag, std::uint64_t fallback,
                          std::uint64_t max) const
{
    return has(flag) ? parseBounded(flag, get(flag), 10, 1, max) : fallback;
}

double
ArgParser::getDouble(const std::string &flag, double fallback) const
{
    if (!has(flag))
        return fallback;
    const std::string s = get(flag);
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || s.empty())
        rsr_throw_user("--", flag, " expects a number, got '", s, "'");
    return v;
}

std::vector<std::string>
ArgParser::unknownFlags(const std::set<std::string> &allowed) const
{
    std::vector<std::string> out;
    for (const auto &[flag, values] : flags)
        if (!allowed.count(flag))
            out.push_back(flag);
    return out;
}

std::string
nearestName(const std::string &name,
            const std::set<std::string> &candidates)
{
    const std::size_t cutoff =
        std::min<std::size_t>(3, std::max<std::size_t>(1, name.size() / 2));
    std::string best;
    std::size_t best_dist = cutoff + 1;
    for (const auto &c : candidates) {
        const std::size_t d = editDistance(name, c);
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    for (std::string item; std::getline(in, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

Flags
operator+(Flags a, const Flags &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

std::string
helpText(const Program &program)
{
    // A single command is the program: help shows its summary and flags.
    const bool single = program.commands.size() == 1;
    std::size_t width = 0;
    for (const Command &c : program.commands)
        width = single ? 0 : std::max(width, c.name.size() + 2);
    std::ostringstream os;
    os << "usage: " << program.name << (single ? "" : " <command>")
       << " [flags]\n";
    for (const Command &c : program.commands) {
        const std::string name = single ? "" : c.name;
        os << "  " << name << std::string(width - name.size(), ' ')
           << c.summary
           << (c.alias.empty() ? "" : " (alias: " + c.alias + ")");
        // Flags wrap at 78 columns, under the summary.
        std::size_t column = 78;
        for (const Flag &f : c.flags) {
            const std::string item =
                "--" + f.name + (f.value.empty() ? "" : " " + f.value);
            if (column + 1 + item.size() > 78) {
                os << '\n' << std::string(2 + width, ' ') << item;
                column = 2 + width + item.size();
            } else {
                os << ' ' << item;
                column += 1 + item.size();
            }
        }
        os << '\n';
    }
    os << program.notes;
    return os.str();
}

void
requireDeclaredFlags(const Program &program, const Command &cmd,
                     const ArgParser &args)
{
    std::set<std::string> names;
    for (const Flag &f : cmd.flags)
        names.insert(f.name);
    for (const std::string &flag : args.unknownFlags(names)) {
        std::ostringstream msg;
        msg << cmd.name << " does not take --" << flag;
        const std::string near = nearestName(flag, names);
        if (!near.empty())
            msg << " (did you mean --" << near << "?)";
        std::vector<std::string> takers;
        for (const Command &other : program.commands)
            if (std::any_of(other.flags.begin(), other.flags.end(),
                            [&](const Flag &f) { return f.name == flag; }))
                takers.push_back(other.name);
        for (std::size_t i = 0; i < takers.size(); ++i)
            msg << (i == 0                   ? "; it applies to "
                    : i + 1 < takers.size() ? ", "
                                            : " and ")
                << takers[i];
        rsr_throw_user(msg.str());
    }
}

int
runProgram(const Program &program, int argc, const char *const *argv,
           int error_status)
{
    try {
        const ArgParser args(argc, argv);
        const std::string &word = args.command();
        const bool single = program.commands.size() == 1;
        if (!args.getAll("help").empty() || (!single && word.empty())) {
            std::printf("%s", helpText(program).c_str());
            return 0;
        }
        if (single && !word.empty())
            rsr_throw_user(program.name, " takes no positional argument, "
                           "got '", word, "'");
        const auto cmd = std::find_if(
            program.commands.begin(), program.commands.end(),
            [&](const Command &c) {
                return single || c.name == word || c.alias == word;
            });
        if (cmd == program.commands.end()) {
            std::printf("%s", helpText(program).c_str());
            return error_status;
        }
        requireDeclaredFlags(program, *cmd, args);
        return cmd->run(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal [%s]: %s\n", errorKindName(e.kind()),
                     e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
    }
    return error_status;
}

} // namespace rsr
