/**
 * @file
 * rsrlint self-tests: every seeded-violation fixture is caught by its
 * rule, every clean twin passes, the lexer never matches inside
 * comments or literals, and — the project invariant — the real tree
 * under src/ stays clean against the committed (empty) baseline.
 *
 * RSRLINT_FIXTURES and RSR_REPO_ROOT are injected by tests/CMakeLists.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "index.hh"
#include "lint.hh"

namespace rsrlint
{
namespace
{

const SourceFile *
noSibling(const std::string &)
{
    return nullptr;
}

/**
 * Scan one fixture as if it lived under src/ — or, for serve-zone
 * rules (stem "serve_*"), under src/serve/. Both phases run: the
 * per-file rule catalog and the project rules over a one-file model.
 * A `<name>.abi` sidecar, when present, plays the committed snapshot
 * ABI file so snap-version-drift fixtures stay self-contained.
 */
std::vector<Finding>
scanFixture(const std::string &name)
{
    const std::string fs_path =
        std::string(RSRLINT_FIXTURES) + "/" + name + ".cc";
    const std::string zone_dir =
        name.rfind("serve_", 0) == 0 ? "src/serve/lintcheck/"
                                     : "src/lintcheck/";
    const SourceFile file =
        lexFile(fs_path, zone_dir + name + ".cc");
    auto findings = runRules(file, noSibling);

    std::map<std::string, SourceFile> files;
    files.emplace(file.path, file);
    const ProjectModel model = buildProjectModel(files);
    AbiTable sidecar;
    const AbiTable *abi = nullptr;
    const std::string abi_path =
        std::string(RSRLINT_FIXTURES) + "/" + name + ".abi";
    if (std::filesystem::is_regular_file(abi_path)) {
        sidecar = loadAbiFile(abi_path, "tools/lint/snapshot_abi.txt");
        abi = &sidecar;
    }
    const auto project = runProjectRules(model, files, abi);
    findings.insert(findings.end(), project.begin(), project.end());
    return findings;
}

std::set<std::string>
rulesIn(const std::vector<Finding> &findings)
{
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    return rules;
}

class RsrLintFixtures
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(RsrLintFixtures, BadTwinIsDetectedByItsRule)
{
    const std::string rule = GetParam();
    std::string stem = rule;
    for (char &c : stem)
        if (c == '-')
            c = '_';
    const auto findings = scanFixture(stem + "_bad");
    EXPECT_TRUE(rulesIn(findings).count(rule))
        << rule << " fixture produced no " << rule << " finding";
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, rule)
            << "unexpected cross-rule finding at line " << f.line
            << ": " << f.message;
}

TEST_P(RsrLintFixtures, CleanTwinPasses)
{
    const std::string rule = GetParam();
    std::string stem = rule;
    for (char &c : stem)
        if (c == '-')
            c = '_';
    const auto findings = scanFixture(stem + "_ok");
    EXPECT_TRUE(findings.empty())
        << findings.size() << " finding(s) in the clean twin; first: "
        << (findings.empty() ? ""
                             : findings[0].rule + " at line " +
                                   std::to_string(findings[0].line));
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RsrLintFixtures,
    ::testing::Values("det-random", "det-wallclock",
                      "det-unordered-iter", "err-exit", "err-assert",
                      "conc-global-state", "conc-unused-mutex",
                      "conc-shared-hot-write", "hot-endl", "hot-throw",
                      "bad-suppression", "serve-blocking-io",
                      "snap-missing-member", "snap-asymmetry",
                      "snap-version-drift", "lock-order"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(RsrLint, CatalogMatchesFixtureCoverage)
{
    // Every rule in the catalog has a fixture pair on disk.
    for (const RuleInfo &r : ruleCatalog()) {
        std::string stem = r.id;
        for (char &c : stem)
            if (c == '-')
                c = '_';
        for (const char *suffix : {"_bad.cc", "_ok.cc"}) {
            const std::string p = std::string(RSRLINT_FIXTURES) + "/" +
                                  stem + suffix;
            EXPECT_TRUE(std::filesystem::is_regular_file(p))
                << "missing fixture " << p;
        }
        EXPECT_TRUE(knownRule(r.id));
    }
}

TEST(RsrLint, LexerBlanksLiteralsAndComments)
{
    const SourceFile f = lexString(
        "const int x = 1'000'000; // exit(1) in a comment\n"
        "const char *s = \"abort(); std::endl\";\n"
        "/* assert(false) in a block comment */\n"
        "const auto r = R\"(rand() inside a raw string)\";\n",
        "src/lintcheck/lexer_probe.cc");
    for (const Finding &found : runRules(f, noSibling))
        ADD_FAILURE() << found.rule << " fired inside a literal or "
                      << "comment at line " << found.line;
    // Digit separators must not open a character literal: the second
    // line's code would otherwise be swallowed.
    EXPECT_NE(f.lines[1].code.find("const char *s"),
              std::string::npos);
}

TEST(RsrLint, SuppressionsSilencePreciseRules)
{
    const std::string bad =
        "#include <unordered_map>\n"
        "namespace rsr {\n"
        "void emit(const std::unordered_map<int, int> &m) {\n"
        "    for (const auto &[k, v] : m) { (void)k; (void)v; }\n"
        "}\n"
        "} // namespace rsr\n";
    const SourceFile plain =
        lexString(bad, "src/lintcheck/suppress_probe.cc");
    EXPECT_EQ(runRules(plain, noSibling).size(), 1u);

    // Same-line suppression.
    std::string allowed = bad;
    allowed.replace(allowed.find("{ (void)k;"), 1,
                    "{ // rsrlint: allow(det-unordered-iter)\n");
    const SourceFile same =
        lexString(allowed, "src/lintcheck/suppress_probe.cc");
    EXPECT_TRUE(runRules(same, noSibling).empty());

    // File-wide suppression.
    const SourceFile filewide = lexString(
        "// rsrlint: allow-file(det-unordered-iter)\n" + bad,
        "src/lintcheck/suppress_probe.cc");
    EXPECT_TRUE(runRules(filewide, noSibling).empty());

    // Suppressing a different rule must not help.
    const SourceFile wrong = lexString(
        "// rsrlint: allow-file(hot-endl)\n" + bad,
        "src/lintcheck/suppress_probe.cc");
    EXPECT_EQ(runRules(wrong, noSibling).size(), 1u);
}

TEST(RsrLint, ZonesExemptToolsAndBench)
{
    const std::string text = "#include <cstdlib>\n"
                             "int main() { exit(1); }\n";
    EXPECT_EQ(runRules(lexString(text, "src/core/probe.cc"),
                       noSibling)
                  .size(),
              1u);
    EXPECT_TRUE(runRules(lexString(text, "tools/probe.cc"), noSibling)
                    .empty());
    EXPECT_TRUE(
        runRules(lexString(text, "src/harness/probe.cc"), noSibling)
            .empty());
}

TEST(RsrLint, ServeBlockingIoScopedToServeZone)
{
    const std::string text =
        "namespace rsr {\n"
        "long f(int fd, char *b) { return ::recv(fd, b, 1, 0); }\n"
        "} // namespace rsr\n";
    EXPECT_EQ(runRules(lexString(text, "src/serve/probe.cc"), noSibling)
                  .size(),
              1u);
    EXPECT_TRUE(
        runRules(lexString(text, "src/core/probe.cc"), noSibling)
            .empty());
    EXPECT_TRUE(runRules(lexString(text, "tools/probe.cc"), noSibling)
                    .empty());
}

TEST(RsrLint, MutexPairedWithLockingSourceIsClean)
{
    const SourceFile hh = lexString("#include <mutex>\n"
                                    "namespace rsr {\n"
                                    "class Q { std::mutex mu; };\n"
                                    "} // namespace rsr\n",
                                    "src/core/q.hh");
    const SourceFile cc_locking =
        lexString("#include \"q.hh\"\n"
                  "namespace rsr {\n"
                  "void f(Q &q) { std::lock_guard<std::mutex> lk(q.mu); }\n"
                  "} // namespace rsr\n",
                  "src/core/q.cc");
    auto sibling =
        [&cc_locking](const std::string &rel) -> const SourceFile * {
        return rel == "src/core/q.cc" ? &cc_locking : nullptr;
    };
    EXPECT_TRUE(runRules(hh, sibling).empty());
    EXPECT_EQ(runRules(hh, [](const std::string &) {
                  return static_cast<const SourceFile *>(nullptr);
              }).size(),
              1u);
}

TEST(RsrLint, BaselineRoundTripSilencesGrandfatheredFindings)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "rsrlint_baseline_probe";
    fs::create_directories(root / "src");
    {
        std::ofstream out(root / "src" / "legacy.cc");
        out << "#include <cstdlib>\n"
               "namespace rsr {\n"
               "int f() { return rand(); }\n"
               "} // namespace rsr\n";
    }
    LintOptions opts;
    opts.root = root.string();
    opts.paths = {"src"};
    opts.writeBaselinePath = "baseline.txt";
    const LintResult first = runLint(opts);
    ASSERT_EQ(first.findings.size(), 1u);
    EXPECT_EQ(first.findings[0].rule, "det-random");

    LintOptions with_baseline;
    with_baseline.root = root.string();
    with_baseline.paths = {"src"};
    with_baseline.baselinePath = "baseline.txt";
    const LintResult second = runLint(with_baseline);
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(second.baselined, 1u);
    fs::remove_all(root);
}

TEST(RsrLint, FixRewritesEndlMechanically)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "rsrlint_fix_probe";
    fs::create_directories(root / "src");
    const fs::path target = root / "src" / "noisy.cc";
    {
        std::ofstream out(target);
        out << "#include <iostream>\n"
               "namespace rsr {\n"
               "void f() { std::cout << 1 << std::endl; }\n"
               "} // namespace rsr\n";
    }
    LintOptions opts;
    opts.root = root.string();
    opts.paths = {"src"};
    opts.fix = true;
    const LintResult fixed = runLint(opts);
    EXPECT_EQ(fixed.fixed, 1u);
    EXPECT_TRUE(fixed.findings.empty());

    opts.fix = false;
    EXPECT_TRUE(runLint(opts).findings.empty());
    fs::remove_all(root);
}

TEST(RsrLint, RepoTreeStaysCleanAgainstCommittedBaseline)
{
    LintOptions opts;
    opts.root = RSR_REPO_ROOT;
    opts.paths = {"src", "tools", "bench"};
    opts.baselinePath = "tools/lint/rsrlint_baseline.txt";
    const LintResult result = runLint(opts);
    EXPECT_GT(result.filesScanned, 100u)
        << "scan did not cover the tree — wrong root?";
    for (const Finding &f : result.findings)
        ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
    // The committed baseline must stay empty: new violations are fixed
    // or suppressed with justification, never grandfathered.
    EXPECT_EQ(result.baselined, 0u)
        << "tools/lint/rsrlint_baseline.txt must stay empty";
}

std::string
readRepoFile(const std::string &rel)
{
    std::ifstream in(std::filesystem::path(RSR_REPO_ROOT) / rel,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << rel;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(RsrLintModel, IndexesRealTreeSnapshotables)
{
    LintOptions opts;
    opts.root = RSR_REPO_ROOT;
    const ProjectModel model = buildModelForTree(opts);
    std::vector<std::string> names;
    for (const SnapType &t : model.types)
        names.push_back(t.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"Cache", "GsharePredictor",
                                        "Machine", "MemoryHierarchy"}));
    for (const SnapType &t : model.types) {
        EXPECT_TRUE(t.snapshot.found) << t.name;
        EXPECT_TRUE(t.restore.found) << t.name;
        EXPECT_TRUE(t.versionKnown)
            << t.name << ": " << t.versionExpr;
    }
    for (const SnapType &t : model.types) {
        if (t.name == "Cache") {
            EXPECT_EQ(t.serializedMembers(),
                      (std::vector<std::string>{"numSets_", "assoc_",
                                                "tags_", "flags_",
                                                "order_",
                                                "reconCount_"}));
        }
    }
    // The tree declares no lock order, so nothing can invert one; the
    // lock-order rule keeps its coverage through its fixtures.
    EXPECT_TRUE(model.lockSpecs.empty());
    EXPECT_TRUE(model.lockInversions.empty());
}

TEST(RsrLintModel, CommittedSnapshotAbiIsFresh)
{
    LintOptions opts;
    opts.root = RSR_REPO_ROOT;
    EXPECT_EQ(readRepoFile("tools/lint/snapshot_abi.txt"),
              renderSnapshotAbi(buildModelForTree(opts)))
        << "run `rsrlint --update-snapshot-abi` and commit the result";
}

/**
 * The acceptance drill for the semantic rules: delete a member
 * reference from the real Cache::snapshot() and the pair rules must
 * catch it — from one body as snap-asymmetry, from both bodies as
 * snap-missing-member.
 */
TEST(RsrLintModel, DeletedMemberRefInRealSnapshotIsCaught)
{
    const std::string hh_text = readRepoFile("src/cache/cache.hh");
    std::string cc_text = readRepoFile("src/cache/cache.cc");
    const std::string snap_ref = "out.putU64(tags_[s * assoc_ + w]);";
    const std::string rest_ref =
        "tags_[s * assoc_ + w] = in.getU64();";
    ASSERT_NE(cc_text.find(snap_ref), std::string::npos);
    ASSERT_NE(cc_text.find(rest_ref), std::string::npos);

    auto scanPair = [&hh_text](const std::string &cc) {
        std::map<std::string, SourceFile> files;
        files.emplace("src/cache/cache.hh",
                      lexString(hh_text, "src/cache/cache.hh"));
        files.emplace("src/cache/cache.cc",
                      lexString(cc, "src/cache/cache.cc"));
        return runProjectRules(buildProjectModel(files), files,
                               nullptr);
    };
    EXPECT_TRUE(scanPair(cc_text).empty());

    std::string one_sided = cc_text;
    one_sided.replace(one_sided.find(snap_ref), snap_ref.size(),
                      "out.putU64(0);");
    const auto asym = scanPair(one_sided);
    ASSERT_EQ(asym.size(), 1u);
    EXPECT_EQ(asym[0].rule, "snap-asymmetry");
    EXPECT_NE(asym[0].message.find("tags_"), std::string::npos);

    std::string both_sides = one_sided;
    both_sides.replace(both_sides.find(rest_ref), rest_ref.size(),
                       "(void)in.getU64();");
    const auto missing = scanPair(both_sides);
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0].rule, "snap-missing-member");
    EXPECT_EQ(missing[0].path, "src/cache/cache.hh");
    EXPECT_NE(missing[0].message.find("tags_"), std::string::npos);
}

TEST(RsrLintModel, LockOrderSpecIsScopedToItsTuPair)
{
    const std::string inverted = "#include <mutex>\n"
                                 "namespace rsr {\n"
                                 "struct Lane { std::mutex mu; };\n"
                                 "void f(std::mutex &mu, Lane &lane)\n"
                                 "{\n"
                                 "    std::lock_guard<std::mutex> a(lane.mu);\n"
                                 "    std::lock_guard<std::mutex> b(mu);\n"
                                 "}\n"
                                 "} // namespace rsr\n";
    const std::string spec =
        "// rsrlint: lock-order(mu < lane.mu)\n";

    std::map<std::string, SourceFile> files;
    files.emplace("src/core/pool.cc",
                  lexString(spec + inverted, "src/core/pool.cc"));
    files.emplace("src/core/other.cc",
                  lexString(inverted, "src/core/other.cc"));
    const ProjectModel model = buildProjectModel(files);
    ASSERT_EQ(model.lockSpecs.size(), 1u);
    // The same inverted nesting exists in both TUs, but the spec only
    // governs its own pair: exactly one inversion, in pool.cc.
    ASSERT_EQ(model.lockInversions.size(), 1u);
    EXPECT_EQ(model.lockInversions[0].path, "src/core/pool.cc");
    EXPECT_EQ(model.lockInversions[0].acquiring, "mu");
    EXPECT_EQ(model.lockInversions[0].held, "lane.mu");
}

TEST(RsrLintModel, SuggestEmitsInsertableMarkerText)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "rsrlint_suggest_probe";
    fs::create_directories(root / "src");
    fs::copy_file(std::string(RSRLINT_FIXTURES) +
                      "/snap_missing_member_bad.cc",
                  root / "src" / "widget.cc",
                  fs::copy_options::overwrite_existing);
    LintOptions opts;
    opts.root = root.string();
    opts.paths = {"src"};
    opts.suggest = true;
    const LintResult result = runLint(opts);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, "snap-missing-member");
    ASSERT_EQ(result.suggestions.size(), 1u);
    EXPECT_NE(result.suggestions[0].find("rsrlint: snap-excluded("),
              std::string::npos);
    EXPECT_NE(result.suggestions[0].find("lost_"), std::string::npos);
    fs::remove_all(root);
}

TEST(RsrLintModel, UpdateSnapshotAbiGatesOnVersionBump)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "rsrlint_abi_probe";
    fs::create_directories(root / "src");
    auto gadget = [&root](bool with_z, unsigned version) {
        std::ofstream out(root / "src" / "gadget.cc");
        out << "#include <cstdint>\n"
               "namespace rsr {\n"
               "class Serializer {\n"
               "  public:\n"
               "    void begin(std::uint32_t t, std::uint32_t v);\n"
               "    void end();\n"
               "    void putU64(std::uint64_t v);\n"
               "};\n"
               "class Deserializer {\n"
               "  public:\n"
               "    void begin(std::uint32_t t, std::uint32_t v);\n"
               "    void end();\n"
               "    std::uint64_t getU64();\n"
               "};\n"
               "class Snapshotable {\n"
               "  public:\n"
               "    virtual ~Snapshotable() = default;\n"
               "    virtual void snapshot(Serializer &out) const = 0;\n"
               "    virtual void restore(Deserializer &in) = 0;\n"
               "};\n"
               "constexpr std::uint32_t gadgetTag = 7;\n"
               "constexpr std::uint32_t gadgetVersion = "
            << version
            << ";\n"
               "class Gadget : public Snapshotable {\n"
               "  public:\n"
               "    void snapshot(Serializer &out) const override {\n"
               "        out.begin(gadgetTag, gadgetVersion);\n"
               "        out.putU64(x_);\n"
            << (with_z ? "        out.putU64(z_);\n" : "")
            << "        out.end();\n"
               "    }\n"
               "    void restore(Deserializer &in) override {\n"
               "        in.begin(gadgetTag, gadgetVersion);\n"
               "        x_ = in.getU64();\n"
            << (with_z ? "        z_ = in.getU64();\n" : "")
            << "        in.end();\n"
               "    }\n"
               "  private:\n"
               "    std::uint64_t x_ = 0;\n"
            << (with_z ? "    std::uint64_t z_ = 0;\n" : "")
            << "};\n"
               "} // namespace rsr\n";
    };
    LintOptions opts;
    opts.root = root.string();
    opts.paths = {"src"};
    opts.abiPath = "snapshot_abi.txt";
    std::string report;

    gadget(false, 1);
    EXPECT_EQ(updateSnapshotAbi(opts, /*checkOnly=*/true, report), 1)
        << report; // missing file
    EXPECT_EQ(updateSnapshotAbi(opts, false, report), 0) << report;
    EXPECT_EQ(updateSnapshotAbi(opts, true, report), 0) << report;

    // Serialized members change at the same version: the check goes
    // stale and the update refuses until the version constant is
    // bumped in the code.
    gadget(true, 1);
    EXPECT_EQ(updateSnapshotAbi(opts, true, report), 1) << report;
    EXPECT_EQ(updateSnapshotAbi(opts, false, report), 1) << report;
    EXPECT_NE(report.find("refusing"), std::string::npos);

    gadget(true, 2);
    EXPECT_EQ(updateSnapshotAbi(opts, false, report), 0) << report;
    EXPECT_EQ(updateSnapshotAbi(opts, true, report), 0) << report;
    fs::remove_all(root);
}

} // namespace
} // namespace rsrlint
