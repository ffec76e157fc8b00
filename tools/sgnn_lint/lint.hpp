#pragma once

// sgnn_lint — project-specific static analysis for the sgnn tree.
//
// The linter is token-based (comment- and string-literal-aware, but not a
// full C++ parser) and enforces the repo invariants that previously lived
// only in review comments:
//
//   R1  banned constructs: naked new/delete, std::thread outside the
//       comm/thread-pool layer, rand(), iteration over std::unordered_*
//       containers (order feeds output), wall-clock reads inside kernels
//   R2  every public function declared in the configured headers must
//       carry an SGNN_CHECK / SGNN_DCHECK precondition in its definition
//   R3  reinterpret_cast is banned unless tagged
//       `// sgnn-lint: allow(aliasing): <reason>`
//   R4  include hygiene: `#pragma once` in every header; headers under
//       include/ may only include "sgnn/..." project headers
//   R5  TraceSpan discipline: no discarded TraceSpan temporaries, and
//       forward/backward/optimizer spans in trainers stay paired with
//       their ScopedTrainPhase
//   R6  raw SIMD intrinsics only in the reviewed wrapper header
//
// The semantic rule families R7-R10 consume a cross-TU ProjectIndex
// (include graph + symbol table + approximate call graph) built in one
// pass over all translation units:
//
//   R7  layering: `#include` edges must follow the architecture DAG
//       util → tensor → {graph, obs} → {nn, comm, store} →
//       {data, train, ckpt, scaling, potential} (declared once in
//       layer_table(); upward edges and same-level cycles are rejected)
//   R8  SPMD collective safety: no blocking collective / barrier /
//       CollectiveHandle::wait under rank-conditioned control flow
//       (rule `spmd-divergence`) or while a lock guard is live in an
//       enclosing scope (rule `lock-across-wait`); both checks follow
//       calls through the call graph
//   R9  profiler coverage: every kernel entry point declared in
//       tensor/ops.hpp / graph/neighbor.hpp must open (or delegate to a
//       function that opens) a KernelScope/ProfRegion (rule `kernel-prof`)
//   R10 check-throw discipline: functions reachable from the comm
//       progress-engine/collective call graph must not throw bare
//       std::runtime_error; failures route through SGNN_CHECK /
//       sgnn::Error (rule `check-throw`)
//
// Findings on a line are silenced by `// sgnn-lint: allow(<rule>): reason`
// on the same line or on an otherwise-empty preceding line. A suppression
// without a reason is itself a finding (rule `suppression`), so the tree
// can never accumulate unexplained escapes.

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sgnn::lint {

struct Finding {
  std::string file;     ///< display path (tree-relative, forward slashes)
  int line = 0;         ///< 1-based
  std::string rule;     ///< rule id, e.g. "aliasing"
  std::string message;
};

/// One `// sgnn-lint: allow(<rule>)` tag.
struct Suppression {
  std::string rule;
  bool has_reason = false;
  int origin = 0;  ///< line the tag was written on (copies keep the origin)
};

/// A source file prepared for linting: the raw text plus a "code view" in
/// which comments and string/char-literal contents are blanked (structure
/// and line numbers preserved), and the per-line suppression tags.
struct SourceFile {
  std::string path;  ///< tree-relative path with forward slashes
  std::string raw;
  std::string code;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  /// line (1-based) -> tags active on that line. A tag on a line whose code
  /// is empty also registers on the following line.
  std::map<int, std::vector<Suppression>> suppressions;

  bool allows(int line, const std::string& rule) const;
  /// True when any line of the file carries the tag (file-scope rules).
  bool allows_anywhere(const std::string& rule) const;
};

/// Builds the code view and suppression table for `content`.
SourceFile parse_source(std::string path, std::string content);

/// Per-file rules (R1, R3, R4, R5 and suppression hygiene). Which rules
/// apply depends on `file.path` — see docs/static-analysis.md.
std::vector<Finding> lint_file(const SourceFile& file);

// ---------------------------------------------------------------------------
// Cross-TU project index
// ---------------------------------------------------------------------------

/// One `#include "..."` edge extracted from a file (quoted form only —
/// system includes never participate in the layering DAG).
struct IncludeEdge {
  std::string target;  ///< include target as written, e.g. "sgnn/nn/egnn.hpp"
  int line = 0;
};

/// One function definition discovered by the token-level scanner. The body
/// range addresses the file's code view; `callees` holds every call site
/// inside the body — `name` for unqualified/member calls, `Qual::name`
/// when the call was spelled with an explicit qualifier. Resolution
/// against the symbol table is by name (an over-approximation, documented
/// in docs/static-analysis.md), except that a qualified call binds only to
/// same-qualifier definitions when any exist — this is what keeps
/// `Shape::broadcast(...)` from aliasing another class's `broadcast`.
struct FunctionDef {
  int file = -1;               ///< index into ProjectIndex::files
  std::string name;            ///< unqualified name ("barrier")
  std::string qualifier;       ///< enclosing-class spelling ("Communicator")
  int line = 0;                ///< 1-based line of the name
  std::size_t name_pos = 0;    ///< offset of the name in the code view
  std::size_t body_begin = 0;  ///< offset of the opening '{'
  std::size_t body_end = 0;    ///< offset of the matching '}'
  std::vector<std::string> callees;
};

/// Everything the semantic rules consume, built in ONE pass over the tree:
/// every source file parsed once, its includes extracted, and a symbol
/// table + call graph over src/ and include/ definitions.
struct ProjectIndex {
  std::filesystem::path root;
  std::vector<SourceFile> files;
  std::vector<std::vector<IncludeEdge>> includes;  ///< parallel to files
  std::vector<FunctionDef> functions;
  /// Keyed by unqualified name AND (for member definitions) `Qual::name`.
  std::map<std::string, std::vector<int>> functions_by_name;
  std::size_t bytes = 0;  ///< total raw bytes parsed

  /// File by tree-relative path, or -1 / nullptr when absent.
  int file_id(const std::string& rel_path) const;
  const SourceFile* find_file(const std::string& rel_path) const;
  /// The file a definition lives in.
  const SourceFile& file_of(const FunctionDef& def) const {
    return files[static_cast<std::size_t>(def.file)];
  }
  /// Definitions a call site may bind to. `callee` is `name` or
  /// `Qual::name`; a qualified call binds to same-qualifier definitions
  /// when any exist, and falls back to every definition of `name`
  /// otherwise (namespace-qualified calls to free functions).
  const std::vector<int>& resolve(const std::string& callee) const;
};

/// Walks src/, include/ and tests/ under `root` (skipping lint_fixtures
/// and build directories) and builds the index.
ProjectIndex build_index(const std::filesystem::path& root);

/// Function ids reachable from `roots` over call edges, call sites resolved
/// by unqualified name (over-approximate). Result is parallel to
/// `index.functions` and includes the roots themselves.
std::vector<bool> reachable_functions(const ProjectIndex& index,
                                      const std::vector<int>& roots);

/// Function names declared at any scope of a header's code view (prototype
/// terminated by `;`), with the declaration line. Shared by R2 and R9.
std::vector<std::pair<std::string, int>> declared_functions(
    const std::string& code);

// ---------------------------------------------------------------------------
// R7 layering: the architecture DAG, declared exactly once
// ---------------------------------------------------------------------------

/// One module of the architecture DAG. An include edge A -> B is legal when
/// level(B) < level(A), or level(B) == level(A) with no reverse edge.
struct LayerEntry {
  const char* module;  ///< directory under include/sgnn/ and src/
  int level = 0;       ///< 0 is the bottom (util)
};

/// THE single source of truth for the DAG. docs/architecture.md and
/// docs/static-analysis.md embed `sgnn_lint --print-dag`, which renders
/// this table — the docs and the enforcement cannot drift.
const std::vector<LayerEntry>& layer_table();

/// Instrumentation hook headers exempt from R7 (currently only
/// "sgnn/obs/prof.hpp": R9 requires kernels below obs to open KernelScope,
/// so the hook header must be includable from anywhere; in exchange the
/// linter enforces that hook headers include nothing above util).
const std::vector<std::string>& hook_headers();

/// Human-readable rendering of layer_table() (the `--print-dag` output).
std::string print_dag();

// ---------------------------------------------------------------------------
// Rule entry points
// ---------------------------------------------------------------------------

/// R2: every function declared in `header_rel` (a path like
/// "include/sgnn/tensor/ops.hpp") has an SGNN_CHECK/SGNN_DCHECK in each of
/// its definitions under the mirrored source directory ("src/tensor/").
std::vector<Finding> check_preconditions(const ProjectIndex& index,
                                         const std::string& header_rel);

/// Legacy convenience wrapper: builds a throwaway index for `root`.
std::vector<Finding> check_preconditions(const std::filesystem::path& root,
                                         const std::string& header_rel);

/// Headers subject to R2.
const std::vector<std::string>& precondition_headers();

/// R7 (rule id `layering`): include edges across include/ and src/ must
/// respect layer_table(); upward edges, same-level cycles, modules missing
/// from the table, and impure hook headers are findings.
std::vector<Finding> lint_layering(const ProjectIndex& index);

/// R8 (rule ids `spmd-divergence`, `lock-across-wait`): blocking
/// collectives / barrier / empty-argument `.wait()` — or calls that reach
/// one through the call graph — under rank-conditioned control flow or
/// while a lock guard is live in an enclosing scope.
std::vector<Finding> lint_spmd(const ProjectIndex& index);

/// R9 (rule id `kernel-prof`): kernel entry points declared in
/// tensor/ops.hpp and graph/neighbor.hpp must open a KernelScope/ProfRegion
/// directly or via a callee in the kernel source set, with no top-level
/// early return before the scope opens. Only synchronous code counts:
/// scopes inside lambda bodies (backward closures) do not, and a
/// namespace-qualified call delegates only to a definition under that
/// qualifier.
std::vector<Finding> lint_kernel_prof(const ProjectIndex& index);

/// R10 (rule id `check-throw`): functions reachable from the comm layer's
/// call graph must not throw bare std::runtime_error.
std::vector<Finding> lint_check_throw(const ProjectIndex& index);

// ---------------------------------------------------------------------------
// Whole-tree runs and output formats
// ---------------------------------------------------------------------------

/// Timings and counters for one lint_tree_stats run (`--stats`).
struct LintStats {
  int files = 0;
  std::size_t bytes = 0;
  int functions = 0;
  int include_edges = 0;
  double index_seconds = 0.0;  ///< walk + parse + symbol/call-graph build
  double rule_seconds = 0.0;   ///< all rule families over the index
  double total_seconds = 0.0;
};

struct LintResult {
  std::vector<Finding> findings;  ///< sorted by (file, line, rule)
  LintStats stats;
};

/// Builds the index once, applies every rule family (R1-R10) over it, and
/// returns the sorted findings plus stats.
LintResult lint_tree_stats(const std::filesystem::path& root);

/// Compatibility wrapper around lint_tree_stats.
std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// `file:line: [rule] message` lines (the default CLI output).
std::string format_text(const std::vector<Finding>& findings);

/// JSON report (schema `sgnn.lint_report.v1`): findings plus stats.
std::string format_json(const LintResult& result, const std::string& root);

/// GitHub Actions workflow annotations (`::error file=..,line=..::..`).
std::string format_github(const std::vector<Finding>& findings);

}  // namespace sgnn::lint
