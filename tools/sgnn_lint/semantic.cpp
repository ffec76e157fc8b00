#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "lint.hpp"
#include "text_util.hpp"

// The semantic rule families R7-R10. Everything here consumes the
// ProjectIndex — no rule touches the filesystem.

namespace sgnn::lint {

namespace {

using text::ends_with;
using text::find_words;
using text::is_all_caps;
using text::is_word;
using text::line_of;
using text::match_paren;
using text::skip_space;
using text::starts_with;
using text::word_at;
using text::word_before;

void report(std::vector<Finding>& findings, const SourceFile& file, int line,
            const std::string& rule, std::string message) {
  if (file.allows(line, rule)) return;
  findings.push_back({file.path, line, rule, std::move(message)});
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

// -- R7: layering ------------------------------------------------------------

constexpr int kUmbrellaLevel = 1000;  // sgnn.hpp sits above every module

/// Module of a tree path, "" when the file is outside the DAG (tests/,
/// tools/), "sgnn" for the umbrella header.
std::string module_of_path(const std::string& path) {
  if (path == "include/sgnn/sgnn.hpp") return "sgnn";
  for (const auto* prefix : {"include/sgnn/", "src/"}) {
    if (!starts_with(path, prefix)) continue;
    const std::string rest = path.substr(std::string(prefix).size());
    const auto slash = rest.find('/');
    if (slash == std::string::npos) return "";
    return rest.substr(0, slash);
  }
  return "";
}

/// Module of an include target ("sgnn/nn/egnn.hpp" -> "nn"), "" for
/// non-project includes.
std::string module_of_target(const std::string& target) {
  if (target == "sgnn/sgnn.hpp") return "sgnn";
  const std::string prefix = "sgnn/";
  if (!starts_with(target, prefix)) return "";
  const std::string rest = target.substr(prefix.size());
  const auto slash = rest.find('/');
  if (slash == std::string::npos) return "";
  return rest.substr(0, slash);
}

int level_of(const std::string& module) {
  if (module == "sgnn") return kUmbrellaLevel;
  for (const auto& entry : layer_table()) {
    if (module == entry.module) return entry.level;
  }
  return -1;
}

bool is_hook_header(const std::string& target) {
  const auto& hooks = hook_headers();
  return std::find(hooks.begin(), hooks.end(), target) != hooks.end();
}

// -- R8: SPMD collective safety ----------------------------------------------

/// Blocking communicator entry points; the scanner skips `::`-qualified
/// spellings (static members of other classes).
const char* kBlockingCalls[] = {"barrier", "all_reduce_sum",
                                "reduce_scatter_sum", "all_gather"};

/// Tokens that make an `if`/`while` condition rank-divergent. Deliberately
/// NOT `num_ranks`/`ranks`: those are uniform across ranks, and
/// `if (num_ranks > 1)` guards are the normal single-rank fast path.
const char* kRankTokens[] = {"rank", "my_rank", "world_rank", "world_size"};

bool rank_conditioned(const std::string& cond) {
  for (const auto* token : kRankTokens) {
    if (!find_words(cond, token).empty()) return true;
  }
  return false;
}

/// True when the word at [begin, begin+len) heads a blocking collective
/// call: followed by `(`, not `::`-qualified (a static member elsewhere).
bool is_blocking_call(const std::string& code, std::size_t begin,
                      const std::string& word) {
  bool known = false;
  for (const auto* call : kBlockingCalls) {
    if (word == call) known = true;
  }
  if (!known) return false;
  const std::size_t after = skip_space(code, begin + word.size());
  if (after >= code.size() || code[after] != '(') return false;
  if (begin >= 2 && code[begin - 1] == ':' && code[begin - 2] == ':') {
    return false;
  }
  return true;
}

/// True for `.wait(` / `->wait(` with an EMPTY argument list. Condition
/// variable waits always pass the lock (`cv_.wait(lock, ...)`), so the
/// empty form is exactly CollectiveHandle::wait / future-style blocking.
bool is_blocking_wait(const std::string& code, std::size_t begin) {
  const char before = begin > 0 ? code[begin - 1] : '\0';
  const bool member =
      before == '.' ||
      (before == '>' && begin > 1 && code[begin - 2] == '-');
  if (!member) return false;
  const std::size_t open = skip_space(code, begin + 4);
  if (open >= code.size() || code[open] != '(') return false;
  const std::size_t arg = skip_space(code, open + 1);
  return arg < code.size() && code[arg] == ')';
}

/// True when the brace at `pos` opens a lambda body: preceded by `]`, or
/// by `](params)` optionally followed by `mutable` / `noexcept` / a
/// `-> Type` trailing return. Shared by the R8 scanner (scope boundaries)
/// and the blocking-reachability analysis — a lambda body is DEFERRED work
/// (an autograd backward, a thread entry point), so registering it is not
/// executing it.
bool lambda_brace(const std::string& code, std::size_t pos) {
  std::size_t at = text::prev_significant_index(code, pos);
  if (at == std::string::npos) return false;
  if (code[at] == ']') return true;
  // Trailing return type: `](params) -> Type {`. Walk back over the type
  // spelling (identifiers, ::, <...>, commas, &, *) to the arrow, then
  // resume on the token before it. A non-type character before any arrow
  // means there is no trailing return; fall through with `at` unchanged.
  for (std::size_t q = at; q != std::string::npos; --q) {
    const char c = code[q];
    if (c == '>' && q >= 1 && code[q - 1] == '-') {
      at = q >= 2 ? text::prev_significant_index(code, q - 1)
                  : std::string::npos;
      if (at == std::string::npos) return false;
      break;
    }
    if (!(is_word(c) || c == ':' || c == '<' || c == '>' || c == ',' ||
          c == '&' || c == '*' ||
          std::isspace(static_cast<unsigned char>(c)))) {
      break;
    }
  }
  if (is_word(code[at])) {
    const std::string w = word_before(code, at + 1);
    if (w != "mutable" && w != "noexcept") return false;
    if (at + 1 < w.size()) return false;
    at = text::prev_significant_index(code, at + 1 - w.size());
    if (at == std::string::npos) return false;
  }
  if (code[at] != ')') return false;
  int depth = 0;
  std::size_t p = at + 1;
  while (p > 0) {
    --p;
    if (code[p] == ')') ++depth;
    if (code[p] == '(') {
      --depth;
      if (depth == 0) break;
    }
  }
  if (depth != 0 || code[p] != '(') return false;
  const std::size_t before_open = text::prev_significant_index(code, p);
  return before_open != std::string::npos && code[before_open] == ']';
}

/// Whether each function's body contains a blocking call it runs
/// SYNCHRONOUSLY — lambda bodies are skipped: a `.wait()` inside a stored
/// closure blocks whoever later invokes the closure, not the function that
/// built it.
std::vector<bool> direct_blocking(const ProjectIndex& index) {
  std::vector<bool> blocking(index.functions.size(), false);
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    const FunctionDef& def = index.functions[f];
    const std::string& code = index.file_of(def).code;
    for (std::size_t pos = def.body_begin + 1;
         pos < def.body_end && pos < code.size(); ++pos) {
      if (code[pos] == '{' && lambda_brace(code, pos)) {
        const std::size_t close = text::match_brace(code, pos);
        if (close == std::string::npos || close >= def.body_end) break;
        pos = close;
        continue;
      }
      if (!is_word(code[pos]) || (pos > 0 && is_word(code[pos - 1]))) {
        continue;
      }
      std::size_t end = pos;
      while (end < code.size() && is_word(code[end])) ++end;
      const std::string word = code.substr(pos, end - pos);
      if (is_blocking_call(code, pos, word) ||
          (word == "wait" && is_blocking_wait(code, pos))) {
        blocking[f] = true;
        break;
      }
      pos = end - 1;
    }
  }
  return blocking;
}

/// Call spellings inside [begin, end) EXCLUDING lambda bodies: the calls a
/// function makes on its own synchronous path. Keyword/macro "calls" are
/// kept — they resolve to no definition, so they cannot add edges.
std::vector<std::string> synchronous_callees(const std::string& code,
                                             std::size_t begin,
                                             std::size_t end) {
  std::vector<std::string> callees;
  for (std::size_t pos = begin; pos < end && pos < code.size(); ++pos) {
    if (code[pos] == '{' && lambda_brace(code, pos)) {
      const std::size_t close = text::match_brace(code, pos);
      if (close == std::string::npos || close >= end) break;
      pos = close;
      continue;
    }
    if (code[pos] != '(') continue;
    const std::string name = word_before(code, pos);
    if (name.empty()) continue;
    const std::size_t name_end = text::prev_significant_index(code, pos);
    if (name_end == std::string::npos || name_end + 1 < name.size()) continue;
    const std::size_t name_begin = name_end + 1 - name.size();
    std::string spelled = name;
    if (name_begin >= 2 && code[name_begin - 1] == ':' &&
        code[name_begin - 2] == ':') {
      const std::string qual = word_before(code, name_begin - 2);
      if (!qual.empty()) spelled = qual + "::" + name;
    }
    if (std::find(callees.begin(), callees.end(), spelled) ==
        callees.end()) {
      callees.push_back(spelled);
    }
  }
  return callees;
}

/// Per-definition: reaches a blocking call (fixed point over the call
/// graph; resolution is qualifier-aware but still an over-approximation).
/// Only SYNCHRONOUS call edges propagate: a function that merely registers
/// a closure whose body blocks (an autograd backward hook posting a
/// collective) does not itself stall a rank — whoever later runs the
/// closure does, and that run site is scanned on its own.
std::vector<bool> defs_reaching_blocking(const ProjectIndex& index) {
  std::vector<bool> reaches = direct_blocking(index);
  std::vector<std::vector<std::string>> callees(index.functions.size());
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    const FunctionDef& def = index.functions[f];
    callees[f] = synchronous_callees(index.file_of(def).code,
                                     def.body_begin + 1, def.body_end);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < index.functions.size(); ++f) {
      if (reaches[f]) continue;
      for (const auto& callee : callees[f]) {
        for (const int target : index.resolve(callee)) {
          if (reaches[static_cast<std::size_t>(target)]) {
            reaches[f] = true;
            changed = true;
            break;
          }
        }
        if (reaches[f]) break;
      }
    }
  }
  return reaches;
}

struct SpmdScope {
  bool rank_cond = false;  ///< this or an enclosing branch is rank-divergent
  int cond_line = 0;       ///< where the divergent condition was written
  bool boundary = false;   ///< lambda body: runs later, inherits nothing
  std::vector<std::pair<std::string, int>> locks;  ///< (name, decl line)
};

/// The R8 scanner: one pass over a file's code view with a scope stack
/// tracking rank-conditioned branches and live lock guards. Lambda bodies
/// are boundaries: `std::thread([this] { progress_loop(); })` under a lock
/// runs the body on another thread AFTER the guard dies, so neither locks
/// nor rank conditions propagate into them.
class SpmdScanner {
 public:
  SpmdScanner(const ProjectIndex& index, const SourceFile& file,
              const std::vector<bool>& reaches,
              std::vector<Finding>& findings)
      : index_(index), file_(file), code_(file.code), reaches_(reaches),
        findings_(findings) {
    scopes_.push_back({});
  }

  void run() {
    for (std::size_t pos = 0; pos < code_.size(); ++pos) {
      const char c = code_[pos];
      if (c == '{') {
        SpmdScope scope;
        scope.boundary = is_lambda_brace(pos);
        if (!scope.boundary) {
          scope.rank_cond = scopes_.back().rank_cond;
          scope.cond_line = scopes_.back().cond_line;
          if (pending_brace_ == pos) {
            if (pending_rank_ && !scope.rank_cond) {
              scope.rank_cond = true;
              scope.cond_line = pending_line_;
            }
            pending_brace_ = std::string::npos;
          }
        }
        scopes_.push_back(std::move(scope));
        continue;
      }
      if (c == '}') {
        if (scopes_.size() > 1) scopes_.pop_back();
        continue;
      }
      if (!is_word(c) || (pos > 0 && is_word(code_[pos - 1]))) continue;
      std::size_t end = pos;
      while (end < code_.size() && is_word(code_[end])) ++end;
      const std::string word = code_.substr(pos, end - pos);
      handle_word(word, pos, end);
      pos = end - 1;
    }
  }

 private:
  void handle_word(const std::string& word, std::size_t begin,
                   std::size_t end) {
    if (word == "if" || word == "while") {
      handle_condition(begin, end, /*else_carry=*/consume_else_carry());
      return;
    }
    if (word == "else") {
      handle_else(end);
      return;
    }
    if (word == "lock_guard" || word == "unique_lock" ||
        word == "scoped_lock") {
      handle_lock(end);
      return;
    }
    if (is_blocking_call(code_, begin, word)) {
      hit(begin, "blocking collective `" + word + "`");
      return;
    }
    if (word == "wait" && is_blocking_wait(code_, begin)) {
      hit(begin, "blocking `wait()` on a collective handle");
      return;
    }
    // Any other call: follow the call graph when we are inside a
    // rank-conditioned branch or a locked scope (cross-file half of R8).
    if ((effective_rank() || live_lock() != nullptr) &&
        !is_all_caps(word) && call_reaches_blocking(begin, end, word)) {
      hit(begin,
          "call to `" + word + "`, which reaches a blocking collective");
    }
  }

  /// Whether the call site at [begin, end) can bind to a definition that
  /// reaches a blocking collective (qualifier-aware, via the index).
  bool call_reaches_blocking(std::size_t begin, std::size_t end,
                             const std::string& word) const {
    const std::size_t after = skip_space(code_, end);
    if (after >= code_.size() || code_[after] != '(') return false;
    std::string spelled = word;
    if (begin >= 2 && code_[begin - 1] == ':' && code_[begin - 2] == ':') {
      const std::string qual = word_before(code_, begin - 2);
      if (!qual.empty()) spelled = qual + "::" + word;
    }
    for (const int id : index_.resolve(spelled)) {
      if (reaches_[static_cast<std::size_t>(id)]) return true;
    }
    return false;
  }

  /// True when the brace at `pos` opens a lambda body (shared helper).
  bool is_lambda_brace(std::size_t pos) const {
    return lambda_brace(code_, pos);
  }

  void handle_condition(std::size_t begin, std::size_t end, bool else_carry) {
    const std::size_t open = skip_space(code_, end);
    if (open >= code_.size() || code_[open] != '(') return;
    const std::size_t close = match_paren(code_, open);
    if (close == std::string::npos) return;
    const bool ranked =
        rank_conditioned(code_.substr(open + 1, close - open - 1)) ||
        else_carry;
    last_cond_rank_ = ranked;
    last_cond_line_ = line_of(code_, begin);
    const std::size_t body = skip_space(code_, close + 1);
    if (body < code_.size() && code_[body] == '{') {
      // Only THIS brace consumes the condition — a lambda inside the
      // condition opens ordinary scopes.
      pending_brace_ = body;
      pending_rank_ = ranked;
      pending_line_ = last_cond_line_;
    } else if (ranked && !effective_rank()) {
      // Braceless body: treat the single statement as a virtual scope.
      scan_statement(body, last_cond_line_);
    }
  }

  void handle_else(std::size_t end) {
    // The else branch of a rank-conditioned if diverges exactly like the
    // then branch.
    const std::size_t next = skip_space(code_, end);
    if (next < code_.size() && word_at(code_, next, "if")) {
      else_carry_ = last_cond_rank_;
      return;
    }
    if (next < code_.size() && code_[next] == '{') {
      pending_brace_ = next;
      pending_rank_ = last_cond_rank_;
      pending_line_ = last_cond_line_;
    } else if (last_cond_rank_ && !effective_rank()) {
      scan_statement(next, last_cond_line_);
    }
  }

  bool consume_else_carry() {
    const bool carry = else_carry_;
    else_carry_ = false;
    return carry;
  }

  void handle_lock(std::size_t end) {
    std::size_t p = end;
    if (p < code_.size() && code_[p] == '<') {
      int depth = 0;
      for (; p < code_.size(); ++p) {
        if (code_[p] == '<') ++depth;
        if (code_[p] == '>') {
          --depth;
          if (depth == 0) {
            ++p;
            break;
          }
        }
      }
    }
    p = skip_space(code_, p);
    std::size_t name_end = p;
    while (name_end < code_.size() && is_word(code_[name_end])) ++name_end;
    if (name_end == p) return;  // a type mention, not a declaration
    const std::size_t init = skip_space(code_, name_end);
    if (init >= code_.size() ||
        (code_[init] != '(' && code_[init] != '{')) {
      return;  // parameter / member type, no guard constructed here
    }
    scopes_.back().locks.emplace_back(code_.substr(p, name_end - p),
                                      line_of(code_, p));
  }

  /// Scans a braceless `if (rank...)` body — up to the statement's `;` —
  /// for blocking calls.
  void scan_statement(std::size_t begin, int cond_line) {
    int depth = 0;
    std::size_t stop = begin;
    for (; stop < code_.size(); ++stop) {
      if (code_[stop] == '(') ++depth;
      if (code_[stop] == ')') --depth;
      if (code_[stop] == ';' && depth == 0) break;
    }
    for (std::size_t pos = begin; pos < stop; ++pos) {
      if (!is_word(code_[pos]) || (pos > 0 && is_word(code_[pos - 1]))) {
        continue;
      }
      std::size_t end = pos;
      while (end < code_.size() && is_word(code_[end])) ++end;
      const std::string word = code_.substr(pos, end - pos);
      if (is_blocking_call(code_, pos, word) ||
          (word == "wait" && is_blocking_wait(code_, pos))) {
        divergence(pos, "blocking collective `" + word + "`", cond_line);
      } else if (!is_all_caps(word) &&
                 call_reaches_blocking(pos, end, word)) {
        divergence(pos,
                   "call to `" + word +
                       "`, which reaches a blocking collective",
                   cond_line);
      }
      pos = end - 1;
    }
  }

  bool effective_rank() const { return scopes_.back().rank_cond; }

  const std::pair<std::string, int>* live_lock() const {
    // Innermost outward, stopping at a lambda boundary: a guard in an
    // enclosing scope is not held when the lambda body actually runs.
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (!it->locks.empty()) return &it->locks.front();
      if (it->boundary) break;
    }
    return nullptr;
  }

  void divergence(std::size_t pos, const std::string& what, int cond_line) {
    std::ostringstream os;
    os << what << " under rank-conditioned control flow (condition at line "
       << cond_line << "); divergent collectives deadlock multi-rank runs — "
       << "hoist the collective out of the branch";
    report(findings_, file_, line_of(code_, pos), "spmd-divergence",
           os.str());
  }

  void hit(std::size_t pos, const std::string& what) {
    const int line = line_of(code_, pos);
    if (effective_rank()) {
      divergence(pos, what, scopes_.back().cond_line);
    }
    if (const auto* lock = live_lock()) {
      std::ostringstream os;
      os << what << " while lock guard `" << lock->first << "` (line "
         << lock->second << ") is live; a blocked rank holding a lock "
         << "deadlocks every peer that needs it — release the guard before "
         << "the collective";
      report(findings_, file_, line, "lock-across-wait", os.str());
    }
  }

  const ProjectIndex& index_;
  const SourceFile& file_;
  const std::string& code_;
  const std::vector<bool>& reaches_;
  std::vector<Finding>& findings_;
  std::vector<SpmdScope> scopes_;
  std::size_t pending_brace_ = std::string::npos;
  bool pending_rank_ = false;
  int pending_line_ = 0;
  bool last_cond_rank_ = false;
  int last_cond_line_ = 0;
  bool else_carry_ = false;
};

// -- R9: profiler coverage ---------------------------------------------------

struct KernelSurface {
  const char* header;  ///< declarations that form the kernel API
  std::vector<std::string> sources;  ///< where definitions must live
};

const std::vector<KernelSurface>& kernel_surfaces() {
  static const std::vector<KernelSurface> surfaces = {
      {"include/sgnn/tensor/ops.hpp", {"src/tensor/"}},
      {"include/sgnn/graph/neighbor.hpp", {"src/graph/neighbor.cpp"}},
      // The partitioner runs once per graph-parallel step on every rank;
      // its O(N + E) build must show up in the roofline next to the
      // neighbor search it mirrors.
      {"include/sgnn/graph/partition.hpp", {"src/graph/partition.cpp"}},
      // Serving hot paths must stay visible to the profiler: every request
      // crosses submit/process_batch/run_group, so a regression there
      // escaping the roofline and bench accounting would blind the latency
      // work the ROADMAP's serving target depends on.
      {"include/sgnn/serve/server.hpp", {"src/serve/"}},
  };
  return surfaces;
}

bool in_kernel_sources(const std::string& path) {
  for (const auto& surface : kernel_surfaces()) {
    for (const auto& dir : surface.sources) {
      if (starts_with(path, dir)) return true;
    }
  }
  return false;
}

/// True when `pos` lies inside a lambda body nested in `def`'s body.
bool inside_lambda(const std::string& code, const FunctionDef& def,
                   std::size_t pos) {
  for (std::size_t p = def.body_begin + 1; p < pos && p < def.body_end; ++p) {
    if (code[p] != '{' || !lambda_brace(code, p)) continue;
    const std::size_t close = text::match_brace(code, p);
    if (close == std::string::npos || close > pos) return true;
    p = close;
  }
  return false;
}

/// Whether the body opens a KernelScope/ProfRegion on its own synchronous
/// path. Scopes inside lambda bodies do not count: an op's backward closure
/// prices the deferred backward, not the forward call that records it.
bool body_has_scope(const std::string& code, const FunctionDef& def) {
  for (const auto* token : {"KernelScope", "ProfRegion"}) {
    for (const auto pos : find_words(code, token)) {
      if (pos > def.body_begin && pos < def.body_end &&
          !inside_lambda(code, def, pos)) {
        return true;
      }
    }
  }
  return false;
}

// -- R10: check-throw discipline ---------------------------------------------

bool is_bare_runtime_error(const std::string& code, std::size_t after_throw) {
  std::size_t p = skip_space(code, after_throw);
  if (word_at(code, p, "std")) {
    p += 3;
    if (p + 1 >= code.size() || code[p] != ':' || code[p + 1] != ':') {
      return false;
    }
    p = skip_space(code, p + 2);
  }
  return word_at(code, p, "runtime_error");
}

// -- output helpers ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// GitHub annotation values: data portion escapes % \r \n; property
/// portion additionally : and ,.
std::string gh_escape(const std::string& s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += property ? "%3A" : ":"; break;
      case ',': out += property ? "%2C" : ","; break;
      default: out += c;
    }
  }
  return out;
}

/// Milliseconds as an integer — locale-proof (no decimal separator).
long long to_ms(double seconds) {
  return static_cast<long long>(seconds * 1000.0 + 0.5);
}

}  // namespace

// -- the DAG, declared exactly once ------------------------------------------

const std::vector<LayerEntry>& layer_table() {
  // THE architecture DAG. docs/architecture.md and docs/static-analysis.md
  // embed the `--print-dag` rendering of this table; change it here and
  // regenerate the docs — they cannot drift from enforcement.
  static const std::vector<LayerEntry> table = {
      {"util", 0},
      {"tensor", 1},
      {"graph", 2},
      {"obs", 2},
      {"nn", 3},
      {"comm", 3},
      {"store", 3},
      {"data", 4},
      {"train", 4},
      {"ckpt", 4},
      {"scaling", 4},
      {"potential", 4},
      {"serve", 5},
  };
  return table;
}

const std::vector<std::string>& hook_headers() {
  // R9 requires kernels in tensor/ and graph/ to open KernelScope, so the
  // profiler hook header must be includable from below obs. In exchange
  // lint_layering enforces that hook headers include nothing above util,
  // so the exemption cannot smuggle obs internals down the stack.
  static const std::vector<std::string> headers = {"sgnn/obs/prof.hpp"};
  return headers;
}

std::string print_dag() {
  std::ostringstream os;
  os << "architecture DAG (include layering, bottom to top):\n";
  int max_level = 0;
  for (const auto& entry : layer_table()) {
    max_level = std::max(max_level, entry.level);
  }
  for (int level = 0; level <= max_level; ++level) {
    os << "  L" << level << "  ";
    bool first = true;
    for (const auto& entry : layer_table()) {
      if (entry.level != level) continue;
      if (!first) os << ", ";
      os << entry.module;
      first = false;
    }
    os << "\n";
  }
  os << "an #include may only point at the same or a lower level; "
        "same-level\nincludes must stay acyclic. hook headers exempt from "
        "the DAG:";
  for (const auto& hook : hook_headers()) os << " " << hook;
  os << "\n";
  return os.str();
}

// -- R7 ----------------------------------------------------------------------

std::vector<Finding> lint_layering(const ProjectIndex& index) {
  std::vector<Finding> findings;
  // Same-level edges, keyed (from-module, to-module), for cycle detection.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<int, int>>>
      lateral;  // -> (file id, line)
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const SourceFile& file = index.files[i];
    const std::string mod = module_of_path(file.path);
    if (mod.empty() || mod == "sgnn") continue;  // tests/umbrella exempt
    const int from_level = level_of(mod);
    if (from_level < 0) {
      report(findings, file, 1, "layering",
             "module `" + mod +
                 "` is not declared in the layering table; add it to "
                 "layer_table() in tools/sgnn_lint/semantic.cpp (and "
                 "docs/architecture.md picks it up from --print-dag)");
      continue;
    }
    for (const auto& edge : index.includes[i]) {
      if (is_hook_header(edge.target)) continue;
      const std::string target_mod = module_of_target(edge.target);
      if (target_mod.empty() || target_mod == mod) continue;
      if (target_mod == "sgnn") {
        report(findings, file, edge.line, "layering",
               "module `" + mod +
                   "` includes the umbrella header sgnn/sgnn.hpp; include "
                   "the specific module headers instead");
        continue;
      }
      const int to_level = level_of(target_mod);
      if (to_level < 0) {
        report(findings, file, edge.line, "layering",
               "include of \"" + edge.target + "\" targets module `" +
                   target_mod +
                   "`, which is not declared in the layering table");
        continue;
      }
      if (to_level > from_level) {
        std::ostringstream os;
        os << "upward include: `" << mod << "` (L" << from_level
           << ") must not depend on `" << target_mod << "` (L" << to_level
           << ") — the DAG is util -> tensor -> {graph, obs} -> "
              "{nn, comm, store} -> {data, train, ckpt, scaling, potential}";
        report(findings, file, edge.line, "layering", os.str());
      } else if (to_level == from_level) {
        lateral[{mod, target_mod}].emplace_back(static_cast<int>(i),
                                                edge.line);
      }
    }
  }
  // Same-level includes are fine until they close a cycle.
  for (const auto& [key, edges] : lateral) {
    const auto reverse = lateral.find({key.second, key.first});
    if (reverse == lateral.end()) continue;
    if (key.first > key.second) continue;  // report each pair once
    const auto& reverse_edges = reverse->second;
    for (const auto* side : {&edges, &reverse_edges}) {
      for (const auto& [file_id, line] : *side) {
        report(findings, index.files[static_cast<std::size_t>(file_id)],
               line, "layering",
               "same-level include cycle between `" + key.first +
                   "` and `" + key.second +
                   "`; break the cycle or split the shared piece into a "
                   "lower layer");
      }
    }
  }
  // Hook headers earn their exemption by staying dependency-free.
  for (const auto& hook : hook_headers()) {
    const SourceFile* file = index.find_file("include/" + hook);
    if (file == nullptr) continue;
    const int id = index.file_id("include/" + hook);
    for (const auto& edge : index.includes[static_cast<std::size_t>(id)]) {
      const std::string target_mod = module_of_target(edge.target);
      if (target_mod.empty() || target_mod == "util") continue;
      if (is_hook_header(edge.target)) continue;
      report(findings, *file, edge.line, "layering",
             "hook header " + hook +
                 " is exempt from the DAG only while it includes nothing "
                 "above util; \"" + edge.target + "\" breaks that contract");
    }
  }
  sort_findings(findings);
  return findings;
}

// -- R8 ----------------------------------------------------------------------

std::vector<Finding> lint_spmd(const ProjectIndex& index) {
  std::vector<Finding> findings;
  const std::vector<bool> reaches = defs_reaching_blocking(index);
  for (const auto& file : index.files) {
    // Tests exercise divergence deliberately (error-path coverage).
    if (!starts_with(file.path, "src/") &&
        !starts_with(file.path, "include/")) {
      continue;
    }
    SpmdScanner(index, file, reaches, findings).run();
  }
  sort_findings(findings);
  return findings;
}

// -- R9 ----------------------------------------------------------------------

std::vector<Finding> lint_kernel_prof(const ProjectIndex& index) {
  std::vector<Finding> findings;
  // Which kernel-source definitions hold a scope, directly or by
  // delegating (transitively) to one that does — public ops like `add`
  // are one-line wrappers over template drivers that own the KernelScope.
  std::vector<int> kernel_defs;
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    if (in_kernel_sources(index.file_of(index.functions[f]).path)) {
      kernel_defs.push_back(static_cast<int>(f));
    }
  }
  std::map<int, bool> covered;
  for (const int f : kernel_defs) {
    covered[f] = body_has_scope(
        index.file_of(index.functions[static_cast<std::size_t>(f)]).code,
        index.functions[static_cast<std::size_t>(f)]);
  }
  // Delegation follows synchronous calls only, and a namespace-qualified
  // call (`kernels::matmul`) only to a definition under that qualifier:
  // falling back to every same-named function would let a backend kernel
  // borrow the scope of the public op it shares a name with.
  std::map<int, std::vector<std::string>> sync_callees;
  for (const int f : kernel_defs) {
    const FunctionDef& def = index.functions[static_cast<std::size_t>(f)];
    sync_callees[f] = synchronous_callees(index.file_of(def).code,
                                          def.body_begin + 1, def.body_end);
  }
  const auto delegates_to = [&index](const std::string& callee) {
    static const std::vector<int> none;
    if (callee.find("::") == std::string::npos) return index.resolve(callee);
    const auto exact = index.functions_by_name.find(callee);
    return exact == index.functions_by_name.end() ? none : exact->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const int f : kernel_defs) {
      if (covered[f]) continue;
      for (const auto& callee : sync_callees[f]) {
        for (const int target : delegates_to(callee)) {
          const auto cov = covered.find(target);
          if (cov != covered.end() && cov->second) {
            covered[f] = true;
            changed = true;
            break;
          }
        }
        if (covered[f]) break;
      }
    }
  }

  for (const auto& surface : kernel_surfaces()) {
    const SourceFile* header = index.find_file(surface.header);
    if (header == nullptr) continue;
    std::set<std::string> seen;
    for (const auto& [name, decl_line] : declared_functions(header->code)) {
      if (!seen.insert(name).second) continue;
      const auto it = index.functions_by_name.find(name);
      if (it == index.functions_by_name.end()) continue;  // R2 reports this
      for (const int f : it->second) {
        const FunctionDef& def =
            index.functions[static_cast<std::size_t>(f)];
        const SourceFile& source = index.file_of(def);
        bool in_surface = false;
        for (const auto& dir : surface.sources) {
          if (starts_with(source.path, dir)) in_surface = true;
        }
        if (!in_surface) continue;
        if (!covered[f]) {
          report(findings, source, def.line, "kernel-prof",
                 "kernel entry point `" + name + "` (declared in " +
                     surface.header +
                     ") opens no KernelScope/ProfRegion on any path; it "
                     "escapes the roofline and bench accounting");
          continue;
        }
        // Directly-scoped entries must not return before the scope opens
        // (top-level returns only; nested lambdas/branches are deeper).
        if (!body_has_scope(source.code, def)) continue;
        std::size_t first_scope = std::string::npos;
        for (const auto* token : {"KernelScope", "ProfRegion"}) {
          for (const auto pos : find_words(source.code, token)) {
            if (pos > def.body_begin && pos < def.body_end &&
                !inside_lambda(source.code, def, pos)) {
              first_scope = std::min(first_scope, pos);
            }
          }
        }
        int depth = 0;
        for (std::size_t pos = def.body_begin;
             pos < first_scope && pos < source.code.size(); ++pos) {
          if (source.code[pos] == '{') ++depth;
          if (source.code[pos] == '}') --depth;
          if (depth == 1 && word_at(source.code, pos, "return")) {
            report(findings, source, line_of(source.code, pos),
                   "kernel-prof",
                   "early return in `" + name +
                       "` before its KernelScope opens; this path escapes "
                       "profiling — open the scope first");
          }
        }
      }
    }
  }
  sort_findings(findings);
  return findings;
}

// -- R10 ---------------------------------------------------------------------

std::vector<Finding> lint_check_throw(const ProjectIndex& index) {
  std::vector<Finding> findings;
  std::vector<int> roots;
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    if (starts_with(index.file_of(index.functions[f]).path,
                    "src/comm/")) {
      roots.push_back(static_cast<int>(f));
    }
  }
  const std::vector<bool> reached = reachable_functions(index, roots);
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    if (!reached[f]) continue;
    const FunctionDef& def = index.functions[f];
    const SourceFile& file = index.file_of(def);
    for (const auto pos : find_words(file.code, "throw")) {
      if (pos <= def.body_begin || pos >= def.body_end) continue;
      if (!is_bare_runtime_error(file.code, pos + 5)) continue;
      report(findings, file, line_of(file.code, pos), "check-throw",
             "`" + def.name +
                 "` is reachable from the comm progress engine but throws "
                 "bare std::runtime_error; worker threads terminate instead "
                 "of surfacing a deferred handle error — use SGNN_CHECK or "
                 "sgnn::Error");
    }
  }
  sort_findings(findings);
  return findings;
}

// -- whole-tree runs ----------------------------------------------------------

LintResult lint_tree_stats(const std::filesystem::path& root) {
  using clock = std::chrono::steady_clock;
  LintResult result;
  const auto t0 = clock::now();
  const ProjectIndex index = build_index(root);
  const auto t1 = clock::now();

  auto& findings = result.findings;
  for (const auto& file : index.files) {
    auto file_findings = lint_file(file);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  for (const auto& header : precondition_headers()) {
    auto header_findings = check_preconditions(index, header);
    findings.insert(findings.end(), header_findings.begin(),
                    header_findings.end());
  }
  for (auto* family : {&lint_layering, &lint_spmd, &lint_kernel_prof,
                       &lint_check_throw}) {
    auto family_findings = (*family)(index);
    findings.insert(findings.end(), family_findings.begin(),
                    family_findings.end());
  }
  sort_findings(findings);
  const auto t2 = clock::now();

  const auto seconds = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  result.stats.files = static_cast<int>(index.files.size());
  result.stats.bytes = index.bytes;
  result.stats.functions = static_cast<int>(index.functions.size());
  for (const auto& edges : index.includes) {
    result.stats.include_edges += static_cast<int>(edges.size());
  }
  result.stats.index_seconds = seconds(t0, t1);
  result.stats.rule_seconds = seconds(t1, t2);
  result.stats.total_seconds = seconds(t0, t2);
  return result;
}

std::vector<Finding> lint_tree(const std::filesystem::path& root) {
  return lint_tree_stats(root).findings;
}

// -- emitters ----------------------------------------------------------------

std::string format_text(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  return os.str();
}

std::string format_json(const LintResult& result, const std::string& root) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"sgnn.lint_report.v1\",\n";
  os << "  \"root\": \"" << json_escape(root) << "\",\n";
  os << "  \"finding_count\": " << result.findings.size() << ",\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(f.file)
       << "\", \"line\": " << f.line << ", \"rule\": \""
       << json_escape(f.rule) << "\", \"message\": \""
       << json_escape(f.message) << "\"}";
  }
  os << (result.findings.empty() ? "],\n" : "\n  ],\n");
  const LintStats& s = result.stats;
  os << "  \"stats\": {\"files\": " << s.files << ", \"bytes\": " << s.bytes
     << ", \"functions\": " << s.functions
     << ", \"include_edges\": " << s.include_edges
     << ", \"index_ms\": " << to_ms(s.index_seconds)
     << ", \"rule_ms\": " << to_ms(s.rule_seconds)
     << ", \"total_ms\": " << to_ms(s.total_seconds) << "}\n";
  os << "}\n";
  return os.str();
}

std::string format_github(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << "::error file=" << gh_escape(f.file, /*property=*/true)
       << ",line=" << f.line << ",title=" << gh_escape("sgnn-lint " + f.rule,
                                                       /*property=*/true)
       << "::" << gh_escape(f.message, /*property=*/false) << "\n";
  }
  return os.str();
}

}  // namespace sgnn::lint
