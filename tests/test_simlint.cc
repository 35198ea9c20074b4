/**
 * @file
 * Unit tests for tools/simlint, the determinism-contract linter
 * (DESIGN.md §8). Two layers:
 *
 *  - fixture files under tools/simlint/fixtures/ (path injected as
 *    SIMLINT_FIXTURE_DIR): each known-bad file must produce exactly
 *    its annotated findings, and the known-good files none — so a
 *    rule that silently stops firing breaks the build, not just the
 *    lint;
 *  - inline lintSource() cases for the trickier lexer behavior
 *    (strings, raw strings, comments, multi-line declarations,
 *    companion-header semantics are covered via the fixtures' shapes).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hh"

namespace v3sim::simlint
{
namespace
{

std::string
fixture(const std::string &name)
{
    return std::string(SIMLINT_FIXTURE_DIR) + "/" + name;
}

/** (line, rule) pairs, sorted, for exact-match assertions. */
std::vector<std::pair<int, std::string>>
lineRules(const std::vector<Finding> &findings)
{
    std::vector<std::pair<int, std::string>> out;
    for (const Finding &f : findings)
        out.emplace_back(f.line, f.rule);
    std::sort(out.begin(), out.end());
    return out;
}

using LineRules = std::vector<std::pair<int, std::string>>;

std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(SimlintFixtures, WallClock)
{
    const auto got = lineRules(lintFile(fixture("bad_wall_clock.cc")));
    // v2 also rejects the includes themselves (banned-header).
    const LineRules want = {{2, "banned-header"},
                            {3, "banned-header"},
                            {4, "banned-header"},
                            {9, "wall-clock"},
                            {10, "wall-clock"},
                            {11, "wall-clock"},
                            {13, "wall-clock"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, RawRandom)
{
    const auto got = lineRules(lintFile(fixture("bad_raw_random.cc")));
    const LineRules want = {{4, "banned-header"},
                            {9, "raw-random"},
                            {10, "raw-random"},
                            {11, "raw-random"},
                            {12, "raw-random"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, UnorderedIter)
{
    const auto got =
        lineRules(lintFile(fixture("bad_unordered_iter.cc")));
    const LineRules want = {{22, "unordered-iter"},
                            {24, "unordered-iter"},
                            {26, "unordered-iter"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, PtrMapIter)
{
    const auto got =
        lineRules(lintFile(fixture("bad_ptr_map_iter.cc")));
    const LineRules want = {{18, "ptr-map-iter"},
                            {20, "ptr-map-iter"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, MetricName)
{
    const auto got =
        lineRules(lintFile(fixture("bad_metric_name.cc")));
    const LineRules want = {{13, "metric-name"},
                            {14, "metric-name"},
                            {15, "metric-name"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, MetricHandle)
{
    const auto got =
        lineRules(lintFile(fixture("bad_metric_lookup.cc")));
    // Lines 22/23: single-line chains; line 24: a chain wrapped
    // across lines reports at the lookup call. The bare lookup
    // (26), handle registration (28) and the annotated line (31)
    // must not fire.
    const LineRules want = {{22, "metric-handle"},
                            {23, "metric-handle"},
                            {24, "metric-handle"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, ReasonlessAnnotationIsAFinding)
{
    const auto got =
        lineRules(lintFile(fixture("bad_annotation.cc")));
    // The malformed annotations are findings AND fail to suppress.
    const LineRules want = {{9, "annotation"},
                            {10, "unordered-iter"},
                            {12, "annotation"},
                            {13, "unordered-iter"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintFixtures, FinalBandKey)
{
    const auto got =
        lineRules(lintFile(fixture("bad_final_band_key.cc")));
    // Pointer relational compare (13) and address-to-integer cast
    // (19); the member compares in the good twin must not fire.
    const LineRules want = {{13, "final-band-key"},
                            {19, "final-band-key"}};
    EXPECT_EQ(got, want);
    EXPECT_TRUE(
        lintFile(fixture("good_final_band_key.cc")).empty());
}

TEST(SimlintFixtures, RefCaptureEscape)
{
    const auto got =
        lineRules(lintFile(fixture("bad_ref_capture.cc")));
    // Direct-argument [&] (17), [&local] (18) and the EventFn
    // binding form (19). Value captures / [this] stay clean.
    const LineRules want = {{17, "ref-capture-escape"},
                            {18, "ref-capture-escape"},
                            {19, "ref-capture-escape"}};
    EXPECT_EQ(got, want);
    EXPECT_TRUE(lintFile(fixture("good_ref_capture.cc")).empty());
}

TEST(SimlintFixtures, RngDiscipline)
{
    const auto got = lineRules(lintFile(fixture("bad_rng_seed.cc")));
    // Brace-init member (10) and paren-init local (16); the
    // forkRng() twin stays clean.
    const LineRules want = {{10, "rng-discipline"},
                            {16, "rng-discipline"}};
    EXPECT_EQ(got, want);
    EXPECT_TRUE(
        lintFile(fixture("good_rng_discipline.cc")).empty());
}

TEST(SimlintFixtures, GlobalState)
{
    // The rule covers model code only, so the fixtures are linted
    // under a src/ path: namespace-scope (8), class-member (12, 13,
    // the last one's type on its own line) and function-local (20)
    // mutable statics. Under tests/ the same text is clean.
    const std::string bad = readText(fixture("bad_global_state.cc"));
    const LineRules want = {{8, "global-state"},
                            {12, "global-state"},
                            {13, "global-state"},
                            {20, "global-state"}};
    EXPECT_EQ(lineRules(lintSource("src/model/bad.cc", bad)), want);
    EXPECT_TRUE(lintSource("tests/bad.cc", bad).empty());
    EXPECT_TRUE(lintSource("src/model/good.cc",
                           readText(fixture("good_global_state.cc")))
                    .empty());
}

TEST(SimlintFixtures, BannedHeader)
{
    const auto got =
        lineRules(lintFile(fixture("bad_banned_header.cc")));
    const LineRules want = {{3, "banned-header"},
                            {4, "banned-header"}};
    EXPECT_EQ(got, want);
    // allow-file with a reason sanctions the include.
    EXPECT_TRUE(lintFile(fixture("good_banned_header.cc")).empty());
}

TEST(SimlintFixtures, JustifiedAnnotationsSuppress)
{
    EXPECT_TRUE(lintFile(fixture("allowed_unordered_iter.cc")).empty());
}

TEST(SimlintFixtures, CleanFileIsClean)
{
    EXPECT_TRUE(lintFile(fixture("clean.cc")).empty());
}

TEST(Simlint, MissingFileReportsIoFinding)
{
    const auto findings = lintFile(fixture("no_such_file.cc"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "io");
}

// --- Inline lexer/matcher behavior ----------------------------------

TEST(Simlint, StringsAndCommentsDoNotTrigger)
{
    const std::string src =
        "// system_clock in a comment\n"
        "/* rand() in a block comment */\n"
        "const char *a = \"time(nullptr) inside a string\";\n"
        "const char *b = R\"(std::mt19937 in a raw string)\";\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(Simlint, WallClockInCodeTriggers)
{
    const auto findings = lintSource(
        "x.cc", "auto t = std::chrono::system_clock::now();\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "wall-clock");
    EXPECT_EQ(findings[0].line, 1);
}

TEST(Simlint, SimRandomEngineFileIsExemptFromRawRandom)
{
    // sim/random.* implements the sanctioned engine and may name
    // engine types; the same text elsewhere is a finding.
    const std::string src = "using engine = std::mt19937_64;\n";
    EXPECT_TRUE(lintSource("src/sim/random.hh", src).empty());
    EXPECT_FALSE(lintSource("src/dsa/foo.hh", src).empty());
}

TEST(Simlint, MultiLineDeclarationIsTracked)
{
    const std::string src =
        "#include <unordered_map>\n"
        "std::unordered_map<int,\n"
        "                   int>\n"
        "    scattered;\n"
        "int f() { int n = 0; for (auto &[k, v] : scattered) n += v;"
        " return n; }\n";
    const auto findings = lintSource("x.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-iter");
    EXPECT_EQ(findings[0].line, 5);
}

TEST(Simlint, MetricHandleSeesThroughArgumentParens)
{
    // Nested parens in the lookup argument must not derail the
    // chain matcher.
    const auto findings = lintSource(
        "x.cc",
        "void f(R &m) { m.counter(name(0, \"a.b\")).increment(); }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "metric-handle");
}

TEST(Simlint, MetricHandleIgnoresHandleRecording)
{
    // Recording through an already-resolved handle is the sanctioned
    // idiom and carries no lookup call to flag.
    EXPECT_TRUE(
        lintSource("x.cc", "void f(H &ios) { ios.increment(); }\n")
            .empty());
}

TEST(Simlint, FormatFindingIsClickable)
{
    Finding f;
    f.file = "src/a.cc";
    f.line = 12;
    f.rule = "wall-clock";
    f.message = "m";
    EXPECT_EQ(formatFinding(f), "src/a.cc:12: [wall-clock] m");
}

TEST(Simlint, RepoSourcesAreCleanUnderTheirAnnotations)
{
    // Belt-and-braces alongside the simlint_repo ctest: the linter
    // run over its own implementation must be clean too.
    for (const char *src : {"../lexer.cc", "../symtab.cc",
                            "../rules.cc", "../lint.cc",
                            "../main.cc"}) {
        for (const Finding &f : lintFile(fixture(src)))
            ADD_FAILURE() << formatFinding(f);
    }
}

// --- Cross-TU pass (lintRepo) ---------------------------------------

TEST(SimlintRepo, MetricTypoIsFlaggedAcrossTus)
{
    // The registration and the typo'd lookup live in different TUs:
    // only the repo pass can see that "demo.total_io" was never
    // registered anywhere.
    const RepoReport report = lintRepo(
        {fixture("metric_defs.cc"), fixture("bad_metric_typo.cc")});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "metric-index");
    EXPECT_EQ(report.findings[0].file, fixture("bad_metric_typo.cc"));
    EXPECT_EQ(report.findings[0].line, 13);
    EXPECT_NE(report.findings[0].message.find("demo.total_io"),
              std::string::npos);
}

TEST(SimlintRepo, ResolvableLookupsAreClean)
{
    // Exact path, uniquePrefix() base and suffix-fragment matches
    // all resolve; no finding.
    const RepoReport report =
        lintRepo({fixture("metric_defs.cc"),
                  fixture("good_metric_lookup.cc")});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

TEST(SimlintRepo, DuplicateRegistrationIsFlagged)
{
    const RepoReport report = lintRepo(
        {fixture("metric_defs.cc"), fixture("bad_metric_dup.cc")});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "metric-index");
    EXPECT_NE(report.findings[0].message.find("already registered"),
              std::string::npos);
}

TEST(SimlintRepo, AliasBlindSpotNeedsCrossTu)
{
    // Per-file analysis cannot resolve net::SeqMap (the alias lives
    // in another TU): the v1 blind spot.
    EXPECT_TRUE(lintFile(fixture("bad_alias_iter.cc")).empty());
    // The repo pass resolves it through the global alias table.
    const RepoReport report = lintRepo(
        {fixture("alias_types.hh"), fixture("bad_alias_iter.cc")});
    const auto got = lineRules(report.findings);
    const LineRules want = {{15, "unordered-iter"}};
    EXPECT_EQ(got, want);
}

TEST(SimlintRepo, BannedHeaderBlastRadiusIsAttributed)
{
    const RepoReport report = lintRepo(
        {fixture("banned_hdr.hh"), fixture("uses_banned_hdr.cc")});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].file, fixture("banned_hdr.hh"));
    EXPECT_EQ(report.findings[0].line, 6);
    EXPECT_EQ(report.findings[0].rule, "banned-header");
    EXPECT_NE(report.findings[0].message.find(
                  "pulled in transitively by 1 scanned file"),
              std::string::npos);
}

TEST(SimlintRepo, SuppressionsAreInventoried)
{
    const RepoReport report =
        lintRepo({fixture("good_banned_header.cc")});
    EXPECT_TRUE(report.findings.empty());
    ASSERT_EQ(report.suppressions.size(), 1u);
    EXPECT_EQ(report.suppressions[0].rule, "banned-header");
    EXPECT_TRUE(report.suppressions[0].file_scope);
    EXPECT_FALSE(report.suppressions[0].reason.empty());
}

TEST(SimlintRepo, JsonReportIsWellFormed)
{
    const RepoReport report = lintRepo(
        {fixture("metric_defs.cc"), fixture("bad_metric_typo.cc"),
         fixture("good_banned_header.cc")});
    const std::string json = reportToJson(report);
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"metric-index\""),
              std::string::npos);
    EXPECT_NE(json.find("\"suppression_counts\""),
              std::string::npos);
    EXPECT_NE(json.find("\"banned-header\": 1"), std::string::npos);
    // Finding messages embed quoted paths; they must be escaped.
    EXPECT_NE(json.find("\\\"demo.total_io\\\""),
              std::string::npos);
}

// --- Suppression ratchet --------------------------------------------

RepoReport
reportWithAllows(const std::vector<std::string> &rules)
{
    RepoReport r;
    int line = 1;
    for (const std::string &rule : rules)
        r.suppressions.push_back(
            {"a.cc", line++, rule, "reason", false});
    return r;
}

TEST(SimlintRatchet, OkAtOrBelowBaseline)
{
    const RepoReport r =
        reportWithAllows({"wall-clock", "wall-clock"});
    EXPECT_TRUE(checkRatchet(r, "total 2\nwall-clock 2\n").ok);
    // Below baseline passes, with a tightening note.
    const RatchetResult slack =
        checkRatchet(r, "total 5\nwall-clock 3\nmetric-handle 2\n");
    EXPECT_TRUE(slack.ok);
    EXPECT_NE(slack.detail.find("tightened"), std::string::npos);
}

TEST(SimlintRatchet, FailsAboveBaseline)
{
    const RepoReport r =
        reportWithAllows({"wall-clock", "wall-clock"});
    const RatchetResult res =
        checkRatchet(r, "total 2\nwall-clock 1\n");
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("wall-clock"), std::string::npos);
}

TEST(SimlintRatchet, RuleAbsentFromBaselineCountsAgainstZero)
{
    const RepoReport r = reportWithAllows({"rng-discipline"});
    EXPECT_FALSE(checkRatchet(r, "# empty baseline\n").ok);
}

TEST(SimlintRatchet, MalformedBaselineFails)
{
    const RepoReport r = reportWithAllows({});
    EXPECT_FALSE(checkRatchet(r, "wall-clock lots\n").ok);
}

TEST(SimlintRatchet, SummaryRoundTripsThroughChecker)
{
    // The generated summary always passes as its own baseline: the
    // documented way to regenerate after removing an allow.
    const RepoReport r = reportWithAllows(
        {"wall-clock", "metric-handle", "metric-handle"});
    const RatchetResult res =
        checkRatchet(r, suppressionSummary(r));
    EXPECT_TRUE(res.ok);
    EXPECT_NE(res.detail.find("ratchet OK"), std::string::npos);
}

// A path exemption is decided from the root argument's own name and
// the path below it, never from the directories above the root: a
// checkout under a directory named bench (or tests, examples, tools)
// must not exempt the tree it holds.
TEST(SimlintRepo, ExemptionsIgnoreDirectoriesAboveTheRoot)
{
    namespace fs = std::filesystem;
    const fs::path tmp = fs::path(::testing::TempDir()) /
                         ("simlint_scope_" + std::to_string(::getpid()));
    const fs::path src = tmp / "bench" / "v3" / "src";
    fs::create_directories(src);
    std::ofstream(src / "x.cc") << "static int runs = 0;\n"
                                << "sim::Rng rng(42);\n";

    std::vector<std::string> missing;
    const RepoReport report =
        lintRepo(collectInputs({src.string()}, &missing));
    EXPECT_TRUE(missing.empty());
    const LineRules want = {{1, "global-state"}, {2, "rng-discipline"}};
    EXPECT_EQ(lineRules(report.findings), want);
    // Scanned from the bench directory itself, the file is harness
    // code and both rules stand down.
    EXPECT_TRUE(
        lintRepo(collectInputs({(tmp / "bench").string()})).findings.empty());
    fs::remove_all(tmp);
}

// --- Whole-repo sweep (mirrors the simlint_repo ctest) --------------

TEST(SimlintRepo, WholeTreeIsCleanAndWithinRatchet)
{
    const std::string repo = SIMLINT_REPO_DIR;
    std::vector<std::string> missing;
    const std::vector<Input> files = collectInputs(
        {repo + "/src", repo + "/bench", repo + "/tests",
         repo + "/tools", repo + "/examples"},
        &missing);
    EXPECT_TRUE(missing.empty());
    ASSERT_GT(files.size(), 100u);
    // The walk must skip known-bad fixture trees.
    for (const Input &f : files)
        ASSERT_EQ(f.path.find("/fixtures/"), std::string::npos) << f.path;

    const RepoReport report = lintRepo(files);
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);

    std::ifstream baseline(repo +
                           "/tools/simlint/suppressions_baseline.txt");
    ASSERT_TRUE(baseline.good());
    std::ostringstream text;
    text << baseline.rdbuf();
    const RatchetResult res = checkRatchet(report, text.str());
    EXPECT_TRUE(res.ok) << res.detail;
}

} // namespace
} // namespace v3sim::simlint
