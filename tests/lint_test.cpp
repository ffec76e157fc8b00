// Tests for tools/sgnn_lint: every rule must fire on its bad fixture,
// stay quiet on its good fixture, and honor the suppression syntax.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace {

using sgnn::lint::Finding;
using sgnn::lint::lint_check_throw;
using sgnn::lint::lint_file;
using sgnn::lint::lint_kernel_prof;
using sgnn::lint::lint_layering;
using sgnn::lint::lint_spmd;
using sgnn::lint::parse_source;

std::string fixture_dir() { return SGNN_LINT_FIXTURE_DIR; }

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_dir() + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Lints a fixture file under a pretend tree path (rules are path-scoped).
std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& pretend_path) {
  return lint_file(parse_source(pretend_path, read_fixture(name)));
}

std::set<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const auto& f : findings) rules.insert(f.rule);
  return rules;
}

bool fired(const std::vector<Finding>& findings, const std::string& rule) {
  return rules_fired(findings).count(rule) > 0;
}

std::string describe(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  return os.str();
}

// -- R1: banned constructs --------------------------------------------------

TEST(LintR1, NakedNewDeleteFires) {
  const auto findings = lint_fixture("new_delete_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "new-delete")) << describe(findings);
  // Both the `new` and the `delete` are reported.
  EXPECT_GE(findings.size(), 2u) << describe(findings);
}

TEST(LintR1, SmartPointersAndSuppressionPass) {
  const auto findings = lint_fixture("new_delete_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, ThreadOutsideCommFires) {
  const auto findings = lint_fixture("thread_bad.cpp", "src/train/y.cpp");
  EXPECT_TRUE(fired(findings, "thread")) << describe(findings);
}

TEST(LintR1, ThreadInsideCommPasses) {
  const auto findings = lint_fixture("thread_bad.cpp", "src/comm/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, ThreadInThreadPoolPasses) {
  const auto findings =
      lint_fixture("thread_bad.cpp", "src/util/thread_pool.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, ThreadInTestsPasses) {
  const auto findings = lint_fixture("thread_bad.cpp", "tests/y_test.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, RandFires) {
  const auto findings = lint_fixture("rand_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "rand")) << describe(findings);
  EXPECT_GE(findings.size(), 2u) << describe(findings);  // rand + srand
}

TEST(LintR1, MemberNamedRandPasses) {
  const auto findings = lint_fixture("rand_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, UnorderedIterationFires) {
  const auto findings = lint_fixture("unordered_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "unordered-iteration")) << describe(findings);
}

TEST(LintR1, UnorderedLookupAndOrderedIterationPass) {
  const auto findings = lint_fixture("unordered_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, WallClockInKernelFires) {
  const auto findings =
      lint_fixture("wallclock_bad.cpp", "src/tensor/y.cpp");
  EXPECT_TRUE(fired(findings, "wall-clock")) << describe(findings);
}

TEST(LintR1, WallClockOutsideKernelPasses) {
  const auto findings = lint_fixture("wallclock_bad.cpp", "src/obs/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR1, SteadyClockInKernelPasses) {
  const auto findings =
      lint_fixture("wallclock_good.cpp", "src/tensor/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- R2: precondition coverage ----------------------------------------------

TEST(LintR2, MissingPreconditionFires) {
  const auto findings = sgnn::lint::check_preconditions(
      fixture_dir() + "/r2_bad", "include/sgnn/tensor/ops.hpp");
  ASSERT_TRUE(fired(findings, "precondition")) << describe(findings);
  // relu's unchecked definition and missing_everywhere's absent definition
  // are both reported; add's checked definition is not.
  const auto text = describe(findings);
  EXPECT_NE(text.find("relu"), std::string::npos) << text;
  EXPECT_NE(text.find("missing_everywhere"), std::string::npos) << text;
  EXPECT_EQ(text.find("add"), std::string::npos) << text;
}

TEST(LintR2, CheckedDefinitionsPass) {
  const auto findings = sgnn::lint::check_preconditions(
      fixture_dir() + "/r2_good", "include/sgnn/tensor/ops.hpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR2, RealHeadersAreConfigured) {
  const auto& headers = sgnn::lint::precondition_headers();
  EXPECT_NE(std::find(headers.begin(), headers.end(),
                      "include/sgnn/tensor/ops.hpp"),
            headers.end());
  EXPECT_NE(std::find(headers.begin(), headers.end(),
                      "include/sgnn/scaling/powerlaw.hpp"),
            headers.end());
}

// -- R3: reinterpret_cast ---------------------------------------------------

TEST(LintR3, ReinterpretCastFires) {
  const auto findings = lint_fixture("aliasing_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "aliasing")) << describe(findings);
}

TEST(LintR3, MemcpyAndTaggedCastPass) {
  const auto findings = lint_fixture("aliasing_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- R6: raw SIMD intrinsics ------------------------------------------------

TEST(LintR6, RawIntrinsicsOutsideWrapperFire) {
  const auto findings = lint_fixture("intrinsics_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "intrinsics")) << describe(findings);
  // The include, the __m256d/__m128d types and the _mm* calls all report.
  EXPECT_GE(findings.size(), 4u) << describe(findings);
}

TEST(LintR6, WrapperHeaderIsExempt) {
  const auto findings = lint_fixture("intrinsics_bad.cpp",
                                     "src/tensor/kernels/simd_wrapper.hpp");
  EXPECT_FALSE(fired(findings, "intrinsics")) << describe(findings);
}

TEST(LintR6, WrapperApiUsagePasses) {
  const auto findings = lint_fixture("intrinsics_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- R4: include hygiene ----------------------------------------------------

TEST(LintR4, MissingPragmaOnceFires) {
  const auto findings =
      lint_fixture("pragma_bad.hpp", "include/sgnn/x/y.hpp");
  EXPECT_TRUE(fired(findings, "pragma-once")) << describe(findings);
}

TEST(LintR4, PragmaOncePasses) {
  const auto findings =
      lint_fixture("pragma_good.hpp", "include/sgnn/x/y.hpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR4, BadIncludePathsFire) {
  const auto findings =
      lint_fixture("include_bad.hpp", "include/sgnn/x/y.hpp");
  EXPECT_TRUE(fired(findings, "include-path")) << describe(findings);
  EXPECT_GE(findings.size(), 2u) << describe(findings);  // src/ and ../
}

TEST(LintR4, ProjectIncludePathsPass) {
  const auto findings =
      lint_fixture("include_good.hpp", "include/sgnn/x/y.hpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- R5: TraceSpan discipline -----------------------------------------------

TEST(LintR5, DiscardedTraceSpanTemporaryFires) {
  // src/nn/, not src/train/: keeps the trainer balance rule out of the way.
  const auto findings = lint_fixture("trace_bad.cpp", "src/nn/y.cpp");
  EXPECT_TRUE(fired(findings, "trace-span")) << describe(findings);
}

TEST(LintR5, NamedTraceSpanPasses) {
  const auto findings = lint_fixture("trace_good.cpp", "src/nn/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR5, UnbalancedPhaseInstrumentationFires) {
  const auto findings =
      lint_fixture("trace_balance_bad.cpp", "src/train/y.cpp");
  EXPECT_TRUE(fired(findings, "trace-balance")) << describe(findings);
}

TEST(LintR5, BalancedPhaseInstrumentationPasses) {
  const auto findings =
      lint_fixture("trace_balance_good.cpp", "src/train/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintR5, BalanceRuleOnlyAppliesToTrainers) {
  const auto findings =
      lint_fixture("trace_balance_bad.cpp", "src/obs/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- suppression hygiene and comment/string immunity ------------------------

TEST(LintSuppression, ReasonlessTagIsItsOwnFinding) {
  const auto findings =
      lint_fixture("suppression_bad.cpp", "src/x/y.cpp");
  EXPECT_TRUE(fired(findings, "suppression")) << describe(findings);
  // The tag still silences the new-delete finding it covers.
  EXPECT_FALSE(fired(findings, "new-delete")) << describe(findings);
}

TEST(LintStripper, CommentsAndStringsAreInvisible) {
  const auto findings =
      lint_fixture("comments_good.cpp", "src/tensor/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintStripper, LineNumbersSurviveStripping) {
  const auto file = parse_source("src/x/y.cpp", read_fixture("rand_bad.cpp"));
  const auto findings = lint_file(file);
  ASSERT_FALSE(findings.empty());
  // std::rand() sits on line 3 of the fixture.
  EXPECT_EQ(findings.front().line, 3) << describe(findings);
}

// -- whole-tree walk --------------------------------------------------------

TEST(LintTree, WalksFixtureTreeAndSortsFindings) {
  const auto findings =
      sgnn::lint::lint_tree(fixture_dir() + "/r2_bad");
  ASSERT_TRUE(fired(findings, "precondition")) << describe(findings);
  EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line, a.rule) <
                                      std::tie(b.file, b.line, b.rule);
                             }))
      << describe(findings);
}

TEST(LintTree, RealTreeIsClean) {
  const auto findings = sgnn::lint::lint_tree(SGNN_LINT_SOURCE_ROOT);
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// -- lexer hardening --------------------------------------------------------

TEST(LintStripper, DigitSeparatorsAndRawStringsPass) {
  // 1'000'000 / 0xFF'FF / 0b1010'0101 must not open char literals, and
  // raw-string contents (rand(), barrier(), rank conditions, new[]) must be
  // invisible to every rule.
  const auto findings = lint_fixture("lexer_good.cpp", "src/x/y.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintStripper, CodeViewSurvivesSeparatorsAndRawStrings) {
  // After a digit-separated literal and a multi-line raw string, the code
  // view must still be aligned: std::rand() sits on line 7.
  const auto findings = lint_fixture("lexer_bad.cpp", "src/x/y.cpp");
  ASSERT_TRUE(fired(findings, "rand")) << describe(findings);
  EXPECT_EQ(findings.front().line, 7) << describe(findings);
}

// -- R7-R10: semantic rules over the cross-TU index -------------------------

sgnn::lint::ProjectIndex fixture_index(const std::string& tree) {
  return sgnn::lint::build_index(fixture_dir() + "/" + tree);
}

std::vector<Finding> in_file(const std::vector<Finding>& findings,
                             const std::string& file) {
  std::vector<Finding> out;
  for (const auto& f : findings) {
    if (f.file == file) out.push_back(f);
  }
  return out;
}

TEST(LintR7, UpwardIncludeFires) {
  const auto findings = lint_layering(fixture_index("r7_tree"));
  const auto up = in_file(findings, "src/tensor/upward.cpp");
  ASSERT_EQ(up.size(), 1u) << describe(findings);
  EXPECT_EQ(up.front().rule, "layering");
  EXPECT_EQ(up.front().line, 2);
  EXPECT_NE(up.front().message.find("upward"), std::string::npos)
      << up.front().message;
}

TEST(LintR7, SameLevelCycleFires) {
  const auto findings = lint_layering(fixture_index("r7_tree"));
  for (const auto* file : {"include/sgnn/graph/cycle_a.hpp",
                           "include/sgnn/obs/cycle_b.hpp"}) {
    const auto cyc = in_file(findings, file);
    ASSERT_EQ(cyc.size(), 1u) << file << "\n" << describe(findings);
    EXPECT_EQ(cyc.front().rule, "layering");
    EXPECT_NE(cyc.front().message.find("cycle"), std::string::npos)
        << cyc.front().message;
  }
}

TEST(LintR7, DownwardAndSuppressedPass) {
  const auto findings = lint_layering(fixture_index("r7_tree"));
  EXPECT_TRUE(in_file(findings, "src/graph/downward.cpp").empty())
      << describe(findings);
  EXPECT_TRUE(in_file(findings, "src/tensor/tagged.cpp").empty())
      << describe(findings);
}

TEST(LintR7, PrintDagRendersTheLayerTable) {
  // The docs embed --print-dag; every module of the single-source-of-truth
  // table must appear in the rendering.
  const std::string dag = sgnn::lint::print_dag();
  for (const auto& entry : sgnn::lint::layer_table()) {
    EXPECT_NE(dag.find(entry.module), std::string::npos) << entry.module;
  }
}

TEST(LintR8, RankConditionedCollectiveFires) {
  const auto findings = lint_spmd(fixture_index("r8_tree"));
  const auto div = in_file(findings, "src/comm/divergent.cpp");
  ASSERT_EQ(div.size(), 1u) << describe(findings);
  EXPECT_EQ(div.front().rule, "spmd-divergence");
}

TEST(LintR8, CollectiveUnderLockFires) {
  const auto findings = lint_spmd(fixture_index("r8_tree"));
  const auto locked = in_file(findings, "src/comm/locked.cpp");
  ASSERT_EQ(locked.size(), 1u) << describe(findings);
  EXPECT_EQ(locked.front().rule, "lock-across-wait");
}

TEST(LintR8, CrossFileDivergenceNeedsTheIndex) {
  // caller.cpp's rank branch calls sync_everyone(), whose barrier() lives
  // in helper.cpp: only the cross-TU call graph connects them.
  const auto findings = lint_spmd(fixture_index("r8_tree"));
  const auto cross = in_file(findings, "src/train/caller.cpp");
  ASSERT_EQ(cross.size(), 1u) << describe(findings);
  EXPECT_EQ(cross.front().rule, "spmd-divergence");
  // Per-file linting of the same file sees nothing.
  const auto alone = lint_fixture("r8_tree/src/train/caller.cpp",
                                  "src/train/caller.cpp");
  EXPECT_TRUE(alone.empty()) << describe(alone);
}

TEST(LintR8, SuppressedAndCleanPatternsPass) {
  const auto findings = lint_spmd(fixture_index("r8_tree"));
  EXPECT_TRUE(in_file(findings, "src/comm/suppressed.cpp").empty())
      << describe(findings);
  // good.cpp: rank branch without a collective, lock released before the
  // barrier, and a lambda boundary under a live lock.
  EXPECT_TRUE(in_file(findings, "src/comm/good.cpp").empty())
      << describe(findings);
  EXPECT_TRUE(in_file(findings, "src/train/helper.cpp").empty())
      << describe(findings);
}

TEST(LintR9, MissingKernelScopeFires) {
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  const auto missing = in_file(findings, "src/tensor/missing.cpp");
  ASSERT_EQ(missing.size(), 1u) << describe(findings);
  EXPECT_EQ(missing.front().rule, "kernel-prof");
}

TEST(LintR9, DelegatedScopePasses) {
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  EXPECT_TRUE(in_file(findings, "src/tensor/delegated.cpp").empty())
      << describe(findings);
}

TEST(LintR9, EarlyReturnBeforeScopeFires) {
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  const auto early = in_file(findings, "src/tensor/early.cpp");
  ASSERT_EQ(early.size(), 1u) << describe(findings);
  EXPECT_EQ(early.front().rule, "kernel-prof");
  EXPECT_NE(early.front().message.find("return"), std::string::npos)
      << early.front().message;
}

TEST(LintR9, SuppressedKernelPasses) {
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  EXPECT_TRUE(in_file(findings, "src/tensor/tagged.cpp").empty())
      << describe(findings);
}

TEST(LintR9, ScopeOnlyInsideLambdaFires) {
  // A backward closure's scope does not cover the forward call.
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  const auto lambda_only = in_file(findings, "src/tensor/lambda_only.cpp");
  ASSERT_EQ(lambda_only.size(), 1u) << describe(findings);
  EXPECT_EQ(lambda_only.front().rule, "kernel-prof");
}

TEST(LintR9, QualifiedCallDoesNotBorrowSameNamedScope) {
  const auto findings = lint_kernel_prof(fixture_index("r9_tree"));
  const auto qualified = in_file(findings, "src/tensor/qualified.cpp");
  ASSERT_EQ(qualified.size(), 1u) << describe(findings);
  EXPECT_NE(qualified.front().message.find("fused_apply"), std::string::npos)
      << qualified.front().message;
}

TEST(LintR10, ReachableBareThrowFires) {
  // The throw sits in src/util/, but a src/comm/ root reaches it through
  // the call graph — another index-only finding.
  const auto findings = lint_check_throw(fixture_index("r10_tree"));
  const auto bare = in_file(findings, "src/util/payload.cpp");
  ASSERT_EQ(bare.size(), 1u) << describe(findings);
  EXPECT_EQ(bare.front().rule, "check-throw");
}

TEST(LintR10, UnreachableTypedAndSuppressedPass) {
  const auto findings = lint_check_throw(fixture_index("r10_tree"));
  EXPECT_TRUE(in_file(findings, "src/data/loader.cpp").empty())
      << describe(findings);
  EXPECT_TRUE(in_file(findings, "src/comm/checked.cpp").empty())
      << describe(findings);
  EXPECT_TRUE(in_file(findings, "src/comm/tagged.cpp").empty())
      << describe(findings);
}

// -- emitters and stats -----------------------------------------------------

TEST(LintEmit, FormatTextRendersOneLinePerFinding) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "layering", "first"},
      {"src/b.cpp", 7, "kernel-prof", "second"},
  };
  EXPECT_EQ(sgnn::lint::format_text(findings),
            "src/a.cpp:3: [layering] first\n"
            "src/b.cpp:7: [kernel-prof] second\n");
}

TEST(LintEmit, FormatJsonEscapesAndCarriesStats) {
  sgnn::lint::LintResult result;
  result.findings = {{"src/a.cpp", 3, "layering", "say \"hi\"\nback\\slash"}};
  result.stats.files = 2;
  result.stats.bytes = 99;
  result.stats.functions = 4;
  result.stats.include_edges = 5;
  result.stats.total_seconds = 0.5;
  const std::string json = sgnn::lint::format_json(result, "/tmp/tree");
  EXPECT_NE(json.find("\"schema\": \"sgnn.lint_report.v1\""),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"finding_count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("say \\\"hi\\\"\\nback\\\\slash"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total_ms\": 500"), std::string::npos) << json;
  // Integer milliseconds only: a locale-dependent decimal point must never
  // reach the report.
  EXPECT_EQ(json.find("0.5"), std::string::npos) << json;
}

TEST(LintEmit, FormatGithubEscapesAnnotations) {
  const std::vector<Finding> findings = {
      {"src/a,b.cpp", 3, "spmd-divergence", "50% done\nsecond line"},
  };
  const std::string gh = sgnn::lint::format_github(findings);
  EXPECT_NE(gh.find("::error file=src/a%2Cb.cpp,line=3"), std::string::npos)
      << gh;
  EXPECT_NE(gh.find("50%25 done%0Asecond line"), std::string::npos) << gh;
  EXPECT_NE(gh.find("sgnn-lint spmd-divergence"), std::string::npos) << gh;
}

TEST(LintStats, TreeRunCountsAndTimes) {
  const auto result =
      sgnn::lint::lint_tree_stats(fixture_dir() + "/r9_tree");
  EXPECT_GT(result.stats.files, 0);
  EXPECT_GT(result.stats.bytes, 0u);
  EXPECT_GT(result.stats.functions, 0);
  EXPECT_GT(result.stats.include_edges, 0);
  EXPECT_GE(result.stats.total_seconds, 0.0);
  EXPECT_GE(result.stats.total_seconds,
            result.stats.index_seconds + result.stats.rule_seconds - 1e-9);
}

}  // namespace
