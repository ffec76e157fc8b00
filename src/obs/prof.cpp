#include "sgnn/obs/prof.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <locale>
#include <sstream>

#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn::obs::prof {

namespace detail {

std::atomic<bool> g_prof_enabled{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Call-tree node. Counters are relaxed atomics written only by the owning
/// thread (uncontended fetch_add) and read by snapshotting threads; the map
/// of children is guarded by the owning ThreadState's mutex so structural
/// growth never races a snapshot walk.
struct Node {
  explicit Node(std::string node_name, Node* node_parent)
      : name(std::move(node_name)), parent(node_parent) {}

  std::string name;
  Node* parent;
  bool kernel = false;
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> flops{0};
  std::atomic<std::int64_t> bytes{0};
  std::map<std::string, std::unique_ptr<Node>> children;
};

/// One tree per instrumented thread. Rank threads, the main thread, and any
/// bench driver each own one; snapshots merge them by path.
struct ThreadState {
  std::mutex mutex;  ///< guards every children map in this tree
  Node root{"", nullptr};
  Node* current = &root;  ///< owner-thread only
};

namespace {

struct Registry {
  std::mutex mutex;
  /// Owns every state ever created; states outlive their threads so a
  /// report after the rank threads joined still sees their kernels.
  std::vector<std::unique_ptr<ThreadState>> states;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadState& thread_state() {
  thread_local ThreadState* state = [] {
    auto owned = std::make_unique<ThreadState>();
    ThreadState* raw = owned.get();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.states.push_back(std::move(owned));
    return raw;
  }();
  return *state;
}

thread_local bool t_suppressed = false;

/// RAII suppression used around calibration.
struct SuppressProfile {
  SuppressProfile() : previous(t_suppressed) { t_suppressed = true; }
  ~SuppressProfile() { t_suppressed = previous; }
  bool previous;
};

void reset_node(Node& node) {
  node.calls.store(0, std::memory_order_relaxed);
  node.ns.store(0, std::memory_order_relaxed);
  node.flops.store(0, std::memory_order_relaxed);
  node.bytes.store(0, std::memory_order_relaxed);
  for (auto& [name, child] : node.children) reset_node(*child);
}

}  // namespace

bool suppressed() { return t_suppressed; }

Node* enter(const char* name, const char* suffix) {
  std::string key(name);
  if (suffix != nullptr) key += suffix;
  ThreadState& state = thread_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  auto& slot = state.current->children[key];
  if (!slot) slot = std::make_unique<Node>(std::move(key), state.current);
  state.current = slot.get();
  return state.current;
}

void leave(Node* node, std::int64_t begin_ns, std::int64_t flops,
           std::int64_t bytes, bool kernel) {
  const std::int64_t elapsed = now_ns() - begin_ns;
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->ns.fetch_add(elapsed, std::memory_order_relaxed);
  if (kernel) {
    node->kernel = true;
    node->flops.fetch_add(flops, std::memory_order_relaxed);
    node->bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  thread_state().current = node->parent;
}

}  // namespace detail

void enable() {
  detail::g_prof_enabled.store(true, std::memory_order_relaxed);
}

void disable() {
  detail::g_prof_enabled.store(false, std::memory_order_relaxed);
}

void reset() {
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& state : r.states) {
    const std::lock_guard<std::mutex> state_lock(state->mutex);
    detail::reset_node(state->root);
  }
}

namespace {

std::string format_double(double value) {
  std::ostringstream os;
  // Classic locale: JSON output must use '.' decimals whatever the process
  // locale says.
  os.imbue(std::locale::classic());
  os << std::setprecision(17) << value;
  return os.str();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Accumulation tree the per-thread trees merge into before reporting.
struct MergedNode {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
  bool kernel = false;
  std::map<std::string, MergedNode> children;
};

void merge_into(const detail::Node& source, MergedNode& target) {
  target.calls += source.calls.load(std::memory_order_relaxed);
  target.ns += source.ns.load(std::memory_order_relaxed);
  target.flops += source.flops.load(std::memory_order_relaxed);
  target.bytes += source.bytes.load(std::memory_order_relaxed);
  target.kernel = target.kernel || source.kernel;
  for (const auto& [name, child] : source.children) {
    merge_into(*child, target.children[name]);
  }
}

MergedNode merged_tree() {
  MergedNode root;
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& state : r.states) {
    const std::lock_guard<std::mutex> state_lock(state->mutex);
    merge_into(state->root, root);
  }
  return root;
}

/// reset() zeroes counters but keeps node storage (open regions hold Node*),
/// so the tree can contain dead paths from before the reset; a subtree only
/// shows up in reports if something was recorded in it since.
bool has_counts(const MergedNode& node) {
  if (node.calls > 0 || node.ns > 0) return true;
  for (const auto& [name, child] : node.children) {
    (void)name;
    if (has_counts(child)) return true;
  }
  return false;
}

void flatten(const MergedNode& node, const std::string& path, int depth,
             std::vector<TreeRow>& rows,
             std::map<std::string, KernelRow>& kernels) {
  for (const auto& [name, child] : node.children) {
    if (!has_counts(child)) continue;
    const std::string child_path = path.empty() ? name : path + ";" + name;
    std::int64_t children_ns = 0;
    for (const auto& [grand_name, grand] : child.children) {
      children_ns += grand.ns;
    }
    TreeRow row;
    row.path = child_path;
    row.name = name;
    row.depth = depth;
    row.calls = child.calls;
    row.inclusive_seconds = ns_to_s(child.ns);
    // Children's intervals nest inside the parent's, so the difference is
    // non-negative up to timer granularity; clamp the jitter away.
    row.exclusive_seconds = std::max(0.0, ns_to_s(child.ns - children_ns));
    row.flops = child.flops;
    row.bytes = child.bytes;
    rows.push_back(row);
    if (child.kernel) {
      KernelRow& k = kernels[name];
      k.name = name;
      k.calls += child.calls;
      k.flops += child.flops;
      k.bytes += child.bytes;
      // Kernel invocations are leaves, so inclusive time is kernel time.
      k.seconds += ns_to_s(child.ns);
    }
    flatten(child, child_path, depth + 1, rows, kernels);
  }
}

void finish_kernel_row(KernelRow& k, const Calibration& machine) {
  if (k.seconds > 0) {
    k.gflops = static_cast<double>(k.flops) / k.seconds * 1e-9;
    k.gbps = static_cast<double>(k.bytes) / k.seconds * 1e-9;
  }
  if (k.bytes > 0) {
    k.intensity = static_cast<double>(k.flops) / static_cast<double>(k.bytes);
  }
  if (k.flops == 0) {
    // Pure data movement: the roofline comparison is bandwidth only.
    k.attainable_gflops = 0;
    k.roofline_fraction = machine.peak_gbps > 0 ? k.gbps / machine.peak_gbps
                                                : 0;
    return;
  }
  k.attainable_gflops =
      std::min(machine.peak_gflops, k.intensity * machine.peak_gbps);
  k.roofline_fraction =
      k.attainable_gflops > 0 ? k.gflops / k.attainable_gflops : 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// The compute roof: every pool lane runs the register-only mul+add probe
/// (kernels::mul_add_probe) at once, so the peak is the hardware's at this
/// lane count and does not move with our own kernels.
double calibrate_gflops() {
  // Many short probes per round, claimed dynamically, so a lane that wakes
  // late does not leave the others idle at the end of the round.
  const std::int64_t chunks = 16 * ThreadPool::instance().size();
  constexpr std::int64_t kReps = 1 << 12;
  std::vector<double> flops(static_cast<std::size_t>(chunks), 0.0);
  const std::int64_t begin_ns = detail::now_ns();
  while (detail::now_ns() - begin_ns < 25'000'000) {
    parallel_for(0, chunks, 1, [&flops](std::int64_t chunk, std::int64_t) {
      flops[static_cast<std::size_t>(chunk)] += kernels::mul_add_probe(kReps);
    });
  }
  const double seconds = ns_to_s(detail::now_ns() - begin_ns);
  double total = 0;
  for (const double f : flops) total += f;
  return seconds > 0 ? total / seconds * 1e-9 : 0;
}

/// The bandwidth roof: a streaming triad sharded over the intra-op pool.
double calibrate_gbps() {
  // 8M doubles per array: well past cache, so the triad streams from memory.
  constexpr std::int64_t n = std::int64_t{1} << 23;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  std::vector<double> c(static_cast<std::size_t>(n), 0.0);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const std::int64_t begin_ns = detail::now_ns();
  std::int64_t reps = 0;
  while (detail::now_ns() - begin_ns < 25'000'000) {
    parallel_for(0, n, std::int64_t{1} << 18,
                 [=](std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     pc[i] = pa[i] + 0.5 * pb[i];
                   }
                 });
    ++reps;
  }
  const double seconds = ns_to_s(detail::now_ns() - begin_ns);
  // Two streamed reads plus one write per element.
  const double bytes = 3.0 * static_cast<double>(n) *
                       static_cast<double>(sizeof(double)) *
                       static_cast<double>(reps);
  return seconds > 0 ? bytes / seconds * 1e-9 : 0;
}

Calibration run_calibration() {
  const detail::SuppressProfile guard;
  Calibration machine;
  machine.threads = ThreadPool::instance().size();
  machine.peak_gflops = calibrate_gflops();
  machine.peak_gbps = calibrate_gbps();
  return machine;
}

}  // namespace

const Calibration& calibration() {
  static const Calibration machine = run_calibration();
  return machine;
}

Totals totals() {
  Totals t;
  const MergedNode root = merged_tree();
  std::vector<TreeRow> rows;
  std::map<std::string, KernelRow> kernels;
  flatten(root, "", 0, rows, kernels);
  for (const auto& [name, k] : kernels) {
    t.kernel_calls += k.calls;
    t.flops += k.flops;
    t.bytes += k.bytes;
    t.kernel_seconds += k.seconds;
  }
  return t;
}

double Report::total_seconds() const {
  double total = 0;
  for (const auto& row : tree) {
    if (row.depth == 0) total += row.inclusive_seconds;
  }
  return total;
}

std::vector<TreeRow> Report::hotspots(std::size_t top_n) const {
  std::vector<TreeRow> rows = tree;
  std::sort(rows.begin(), rows.end(), [](const TreeRow& a, const TreeRow& b) {
    if (a.exclusive_seconds != b.exclusive_seconds) {
      return a.exclusive_seconds > b.exclusive_seconds;
    }
    return a.path < b.path;
  });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

std::string Report::to_text(std::size_t top_n) const {
  std::ostringstream os;
  os << "machine: peak " << std::fixed << std::setprecision(2)
     << machine.peak_gflops << " GFLOP/s, " << machine.peak_gbps
     << " GB/s (" << machine.threads << " pool lanes)\n";
  os << "kernels (by time):\n";
  os << "  " << std::left << std::setw(22) << "name" << std::right
     << std::setw(10) << "calls" << std::setw(12) << "seconds" << std::setw(12)
     << "GFLOP" << std::setw(12) << "GB" << std::setw(10) << "GF/s"
     << std::setw(10) << "GB/s" << std::setw(9) << "FLOP/B" << std::setw(9)
     << "roof%" << "\n";
  for (const auto& k : kernels) {
    os << "  " << std::left << std::setw(22) << k.name << std::right
       << std::setw(10) << k.calls << std::setw(12) << std::scientific
       << std::setprecision(2) << k.seconds << std::setw(12)
       << static_cast<double>(k.flops) * 1e-9 << std::setw(12)
       << static_cast<double>(k.bytes) * 1e-9 << std::fixed << std::setw(10)
       << std::setprecision(2) << k.gflops << std::setw(10) << k.gbps
       << std::setw(9) << k.intensity << std::setw(8) << std::setprecision(1)
       << 100.0 * k.roofline_fraction << "%\n";
  }
  os << "hotspots (by exclusive time):\n";
  for (const auto& row : hotspots(top_n)) {
    os << "  " << std::scientific << std::setprecision(2)
       << row.exclusive_seconds << " s  " << row.path << " (" << row.calls
       << " calls)\n";
  }
  return os.str();
}

std::string Report::to_json() const {
  std::string out = "{\"calibration\":{";
  out += "\"peak_gflops\":" + format_double(machine.peak_gflops);
  out += ",\"peak_gbps\":" + format_double(machine.peak_gbps);
  out += ",\"threads\":" + std::to_string(machine.threads);
  out += "},\"kernels\":[";
  bool first = true;
  for (const auto& k : kernels) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(k.name) + "\"";
    out += ",\"calls\":" + std::to_string(k.calls);
    out += ",\"flops\":" + std::to_string(k.flops);
    out += ",\"bytes\":" + std::to_string(k.bytes);
    out += ",\"seconds\":" + format_double(k.seconds);
    out += ",\"gflops\":" + format_double(k.gflops);
    out += ",\"gbps\":" + format_double(k.gbps);
    out += ",\"intensity\":" + format_double(k.intensity);
    out += ",\"attainable_gflops\":" + format_double(k.attainable_gflops);
    out += ",\"roofline_fraction\":" + format_double(k.roofline_fraction);
    out += "}";
  }
  out += "],\"tree\":[";
  first = true;
  for (const auto& row : tree) {
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + json_escape(row.path) + "\"";
    out += ",\"name\":\"" + json_escape(row.name) + "\"";
    out += ",\"depth\":" + std::to_string(row.depth);
    out += ",\"calls\":" + std::to_string(row.calls);
    out += ",\"inclusive_seconds\":" + format_double(row.inclusive_seconds);
    out += ",\"exclusive_seconds\":" + format_double(row.exclusive_seconds);
    out += ",\"flops\":" + std::to_string(row.flops);
    out += ",\"bytes\":" + std::to_string(row.bytes);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string Report::to_collapsed() const {
  std::ostringstream os;
  for (const auto& row : tree) {
    const auto us =
        static_cast<std::int64_t>(row.exclusive_seconds * 1e6 + 0.5);
    if (us <= 0) continue;
    os << row.path << " " << us << "\n";
  }
  return os.str();
}

Report report(bool with_calibration) {
  Report result;
  if (with_calibration) result.machine = calibration();
  const MergedNode root = merged_tree();
  std::map<std::string, KernelRow> kernels;
  flatten(root, "", 0, result.tree, kernels);
  for (auto& [name, k] : kernels) {
    finish_kernel_row(k, result.machine);
    result.kernels.push_back(k);
  }
  std::sort(result.kernels.begin(), result.kernels.end(),
            [](const KernelRow& a, const KernelRow& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.name < b.name;
            });
  return result;
}

}  // namespace sgnn::obs::prof
