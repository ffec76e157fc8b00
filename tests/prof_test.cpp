// Tests for sgnn::obs::prof — the kernel-level profiler.
//
// The FLOP/byte expectations are hand-computed from the kernel cost model
// documented in docs/observability.md (W = sizeof(real) = 8 bytes). They
// are shape arithmetic only — no timing — so they hold bit-identically at
// any SGNN_NUM_THREADS (kernel hooks open on the calling thread, never on
// pool workers); CMake registers this binary a second time (prof_test_mt)
// with a 4-lane pool to pin that invariant.

#include "sgnn/obs/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sgnn/data/sources.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/tensor/ops.hpp"

namespace sgnn {
namespace {

namespace prof = obs::prof;

constexpr std::int64_t kW = static_cast<std::int64_t>(sizeof(real));

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::reset();
    prof::enable();
  }
  void TearDown() override {
    prof::disable();
    prof::reset();
  }
};

std::optional<prof::KernelRow> find_kernel(const prof::Report& report,
                                           const std::string& name) {
  for (const auto& row : report.kernels) {
    if (row.name == name) return row;
  }
  return std::nullopt;
}

// -- hand-computed kernel costs ---------------------------------------------

TEST_F(ProfTest, MatmulForwardCost) {
  prof::disable();  // exclude construction
  const Tensor a = Tensor::full(Shape{3, 4}, 1.0);
  const Tensor b = Tensor::full(Shape{4, 5}, 2.0);
  prof::enable();
  const Tensor c = matmul(a, b);
  const prof::Totals totals = prof::totals();
  // flops = 2*m*k*n, bytes = W*(m*k + k*n + m*n).
  EXPECT_EQ(totals.kernel_calls, 1);
  EXPECT_EQ(totals.flops, 2 * 3 * 4 * 5);
  EXPECT_EQ(totals.bytes, kW * (3 * 4 + 4 * 5 + 3 * 5));
  EXPECT_DOUBLE_EQ(c.to_vector()[0], 8.0);  // k=4 terms of 1.0 * 2.0
}

TEST_F(ProfTest, MatmulBackwardCost) {
  Tensor a = Tensor::full(Shape{3, 4}, 1.0);
  Tensor b = Tensor::full(Shape{4, 5}, 2.0);
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  sum(matmul(a, b)).backward();
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto fwd = find_kernel(report, "matmul");
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->calls, 1);
  EXPECT_EQ(fwd->flops, 2 * 3 * 4 * 5);
  // matmul.bwd computes dA and dB: 2x the forward flops each way.
  const auto bwd = find_kernel(report, "matmul.bwd");
  ASSERT_TRUE(bwd.has_value());
  EXPECT_EQ(bwd->calls, 1);
  EXPECT_EQ(bwd->flops, 4 * 3 * 4 * 5);
  EXPECT_EQ(bwd->bytes, 2 * kW * (3 * 4 + 4 * 5 + 3 * 5));
}

TEST_F(ProfTest, UnaryCost) {
  const Tensor x = Tensor::full(Shape{10}, -1.0);
  (void)relu(x);
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto row = find_kernel(report, "relu");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->flops, 10);       // one op per element
  EXPECT_EQ(row->bytes, 2 * kW * 10);  // read x, write out
}

TEST_F(ProfTest, UnaryBackwardCost) {
  Tensor x = Tensor::full(Shape{10}, 0.5);
  x.set_requires_grad(true);
  sum(relu(x)).backward();
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto row = find_kernel(report, "relu.bwd");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->flops, 2 * 10);       // dfdx and the product with grad
  EXPECT_EQ(row->bytes, 3 * kW * 10);  // read grad, read saved x, write dx
}

TEST_F(ProfTest, LinearActCosts) {
  prof::disable();
  Tensor x = Tensor::full(Shape{3, 4}, 0.5);
  Tensor w = Tensor::full(Shape{4, 5}, 0.25);
  Tensor b = Tensor::full(Shape{1, 5}, 0.1);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  prof::enable();
  sum(linear_act(x, w, b, Activation::kSiLU)).backward();
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto fwd = find_kernel(report, "linear_act");
  ASSERT_TRUE(fwd.has_value());
  // 2mkn + (bias + act)·mn; W(mk + kn + (1 + saved v, s)·mn + n).
  EXPECT_EQ(fwd->flops, 2 * 3 * 4 * 5 + 2 * 15);
  EXPECT_EQ(fwd->bytes, kW * (12 + 20 + 3 * 15 + 5));
  const auto bwd = find_kernel(report, "linear_act.bwd");
  ASSERT_TRUE(bwd.has_value());
  // Two GEMMs 4mkn + (2·act + bias)·mn; W((1 + act + saved)·mn +
  // 2(mk + kn + mn) + n).
  EXPECT_EQ(bwd->flops, 4 * 3 * 4 * 5 + 3 * 15);
  EXPECT_EQ(bwd->bytes, kW * (4 * 15 + 2 * (12 + 20 + 15) + 5));
  // No tape: nothing saved, so only the output is written.
  prof::reset();
  {
    const autograd::NoGradGuard no_grad;
    (void)linear_act(x, w, b, Activation::kSiLU);
  }
  const prof::Totals totals = prof::totals();
  EXPECT_EQ(totals.kernel_calls, 1);
  EXPECT_EQ(totals.bytes, kW * (12 + 20 + 15 + 5));
}

TEST_F(ProfTest, BinaryMulCosts) {
  Tensor a = Tensor::full(Shape{2, 3}, 2.0);
  Tensor b = Tensor::full(Shape{2, 3}, 3.0);
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  sum(a * b).backward();
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto fwd = find_kernel(report, "mul");
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->flops, 6);
  EXPECT_EQ(fwd->bytes, 3 * kW * 6);
  const auto bwd = find_kernel(report, "mul.bwd");
  ASSERT_TRUE(bwd.has_value());
  EXPECT_EQ(bwd->flops, 4 * 6);
  EXPECT_EQ(bwd->bytes, 5 * kW * 6);
  // Same shapes: the broadcast reducer must NOT have fired.
  EXPECT_FALSE(find_kernel(report, "reduce_to").has_value());
}

TEST_F(ProfTest, BroadcastBackwardFiresReduceTo) {
  Tensor a = Tensor::full(Shape{4, 3}, 2.0);
  Tensor b = Tensor::full(Shape{3}, 3.0);  // broadcast up the rows
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  sum(a * b).backward();
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto reduce = find_kernel(report, "reduce_to");
  ASSERT_TRUE(reduce.has_value());
  EXPECT_EQ(reduce->calls, 1);  // only b's gradient needs reducing
  EXPECT_EQ(reduce->flops, 12);  // one add per grad element
  EXPECT_EQ(reduce->bytes, kW * (12 + 3));
}

TEST_F(ProfTest, ReduceCosts) {
  const Tensor a = Tensor::full(Shape{10}, 1.0);
  (void)sum(a);
  const Tensor m = Tensor::full(Shape{2, 3}, 1.0);
  (void)sum(m, /*axis=*/0, /*keepdim=*/false);
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto total = find_kernel(report, "sum");
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ(total->flops, 10);
  EXPECT_EQ(total->bytes, kW * (10 + 1));
  const auto axis = find_kernel(report, "sum_axis");
  ASSERT_TRUE(axis.has_value());
  EXPECT_EQ(axis->flops, 6);
  EXPECT_EQ(axis->bytes, kW * (6 + 3));
}

// Thread-count bit-identity: the same expectations as above, at a size
// where the intra-op pool actually partitions the loops. Run under both
// prof_test and prof_test_mt (SGNN_NUM_THREADS=4).
TEST_F(ProfTest, CountsAreThreadCountInvariant) {
  constexpr std::int64_t n = 64;
  prof::disable();
  const Tensor a = Tensor::full(Shape{n, n}, 0.5);
  const Tensor b = Tensor::full(Shape{n, n}, 0.25);
  prof::enable();
  (void)matmul(a, b);
  (void)relu(a);
  (void)sum(a);
  const prof::Totals totals = prof::totals();
  EXPECT_EQ(totals.kernel_calls, 3);
  EXPECT_EQ(totals.flops, 2 * n * n * n + n * n + n * n);
  EXPECT_EQ(totals.bytes,
            kW * (3 * n * n) + 2 * kW * (n * n) + kW * (n * n + 1));
}

// Kernel call counts of one seeded h=16, depth-3 EGNN train step (forward,
// loss, backward) — deterministic counters, so any change to how the step
// is decomposed into kernels shows here. Every Linear is one fused
// linear_act node: 3 layers × (phi_e, phi_x, phi_h, phi_f) × 2 Linears +
// the 2-Linear energy head = 26, and none of them leaves a matmul, a bias
// add, a silu/tanh or a bias reduce_to behind. The remaining reduce_to
// calls are 5 (m,1) broadcasts per layer: the two inv_degree scalings,
// the coordinate gate, rel / dist and the force gate.
TEST_F(ProfTest, EgnnTrainStepKernelCounts) {
  prof::disable();
  const ReferencePotential potential;
  Rng data_rng(11);
  std::vector<MolecularGraph> graphs;
  for (int i = 0; i < 2; ++i) {
    graphs.push_back(generate_sample(DataSource::kANI1x, data_rng, potential));
  }
  const GraphBatch batch = GraphBatch::from_graphs(graphs);
  ModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 3;
  const EGNNModel model(config);
  prof::enable();
  const auto out = model.forward(batch);
  Tensor loss = sum(square(out.energy)) + sum(square(out.forces));
  loss.backward();
  std::map<std::string, std::int64_t> calls;
  for (const auto& row : prof::report(/*with_calibration=*/false).kernels) {
    calls[row.name] = row.calls;
  }
  const std::map<std::string, std::int64_t> expected = {
      {"add", 13},          {"add_scalar", 27},   {"add_scalar.bwd", 27},
      {"concat", 13},       {"concat.bwd", 13},   {"div", 3},
      {"div.bwd", 3},       {"exp", 24},          {"exp.bwd", 24},
      {"index_select", 13}, {"index_select.bwd", 13},
      {"linear_act", 26},   {"linear_act.bwd", 26},
      {"mul", 12},          {"mul.bwd", 12},      {"narrow", 11},
      {"narrow.bwd", 11},   {"reduce_to", 15},    {"scale", 29},
      {"scale.bwd", 27},    {"scatter_add", 10},  {"scatter_add.bwd", 10},
      {"sqrt", 3},          {"sqrt.bwd", 3},      {"square", 30},
      {"square.bwd", 29},   {"sub", 4},           {"sub.bwd", 3},
      {"sum", 3},           {"sum.bwd", 2},       {"sum_axis", 4},
      {"sum_axis.bwd", 3},
  };
  EXPECT_EQ(calls, expected);
}

// -- call tree --------------------------------------------------------------

TEST_F(ProfTest, TreeNestsRegionsAndKernels) {
  {
    const prof::ProfRegion outer("outer");
    const Tensor a = Tensor::full(Shape{8, 8}, 1.0);
    {
      const prof::ProfRegion inner("inner");
      (void)matmul(a, a);
    }
  }
  const prof::Report report = prof::report(/*with_calibration=*/false);
  ASSERT_EQ(report.tree.size(), 3u);
  EXPECT_EQ(report.tree[0].path, "outer");
  EXPECT_EQ(report.tree[1].path, "outer;inner");
  EXPECT_EQ(report.tree[2].path, "outer;inner;matmul");
  EXPECT_EQ(report.tree[2].flops, 2 * 8 * 8 * 8);
}

TEST_F(ProfTest, InclusiveBoundsExclusive) {
  {
    const prof::ProfRegion outer("outer");
    const Tensor a = Tensor::full(Shape{32, 32}, 1.0);
    for (int i = 0; i < 4; ++i) (void)matmul(a, a);
  }
  const prof::Report report = prof::report(/*with_calibration=*/false);
  ASSERT_FALSE(report.tree.empty());
  double children_inclusive = 0;
  for (const auto& row : report.tree) {
    EXPECT_GE(row.inclusive_seconds, row.exclusive_seconds) << row.path;
    EXPECT_GE(row.exclusive_seconds, 0.0) << row.path;
    if (row.depth == 1) children_inclusive += row.inclusive_seconds;
  }
  const auto& top = report.tree.front();
  EXPECT_EQ(top.depth, 0);
  EXPECT_GE(top.inclusive_seconds, children_inclusive);
  // Exclusive times tile the profiled wall time exactly (by construction:
  // exclusive = inclusive - sum of children's inclusive).
  double exclusive_sum = 0;
  for (const auto& row : report.tree) exclusive_sum += row.exclusive_seconds;
  EXPECT_NEAR(exclusive_sum, report.total_seconds(),
              0.05 * report.total_seconds() + 1e-9);
}

// -- enable/disable/reset ---------------------------------------------------

TEST_F(ProfTest, DisabledRecordsNothing) {
  prof::disable();
  const Tensor a = Tensor::full(Shape{4, 4}, 1.0);
  (void)matmul(a, a);
  const prof::ProfRegion region("ghost");
  EXPECT_FALSE(region.active());
  const prof::Totals totals = prof::totals();
  EXPECT_EQ(totals.kernel_calls, 0);
  EXPECT_EQ(totals.flops, 0);
}

TEST_F(ProfTest, ResetZeroesCounts) {
  const Tensor a = Tensor::full(Shape{4, 4}, 1.0);
  (void)matmul(a, a);
  EXPECT_GT(prof::totals().flops, 0);
  prof::reset();
  const prof::Totals totals = prof::totals();
  EXPECT_EQ(totals.kernel_calls, 0);
  EXPECT_EQ(totals.flops, 0);
  EXPECT_EQ(totals.bytes, 0);
  EXPECT_DOUBLE_EQ(totals.kernel_seconds, 0.0);
}

// -- exports ----------------------------------------------------------------

TEST_F(ProfTest, CollapsedStackExport) {
  {
    const prof::ProfRegion step("step");
    // Large enough that the kernel takes >= 1 us on any backend; rows whose
    // exclusive time rounds to zero are dropped from the collapsed output.
    const Tensor a = Tensor::full(Shape{96, 96}, 1.0);
    (void)matmul(a, a);
  }
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const std::string collapsed = report.to_collapsed();
  EXPECT_NE(collapsed.find("step;matmul "), std::string::npos) << collapsed;
  // Every line is "path<space>integer".
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < collapsed.size()) {
    const std::size_t eol = collapsed.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = collapsed.substr(pos, eol - pos);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(weight.empty());
    EXPECT_TRUE(std::all_of(weight.begin(), weight.end(),
                            [](char c) { return c >= '0' && c <= '9'; }))
        << line;
    pos = eol + 1;
    ++lines;
  }
  EXPECT_EQ(lines, report.tree.size());
}

TEST_F(ProfTest, JsonAndTextExports) {
  {
    const prof::ProfRegion step("step");
    const Tensor a = Tensor::full(Shape{8, 8}, 1.0);
    (void)matmul(a, a);
  }
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"tree\""), std::string::npos);
  EXPECT_NE(json.find("\"kernels\""), std::string::npos);
  EXPECT_NE(json.find("\"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline_fraction\""), std::string::npos);
  const std::string text = report.to_text(/*top_n=*/5);
  EXPECT_NE(text.find("matmul"), std::string::npos);
}

TEST_F(ProfTest, JsonEscapesControlCharactersInNames) {
  {
    const prof::ProfRegion region("a\tb");
    const Tensor a = Tensor::full(Shape{4, 4}, 1.0);
    (void)matmul(a, a);
  }
  const std::string json =
      prof::report(/*with_calibration=*/false).to_json();
  EXPECT_NE(json.find("a\\tb"), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

TEST_F(ProfTest, HotspotsSortedByExclusiveTime) {
  {
    const prof::ProfRegion step("step");
    const Tensor big = Tensor::full(Shape{48, 48}, 1.0);
    (void)matmul(big, big);
    (void)relu(big);
  }
  const prof::Report report = prof::report(/*with_calibration=*/false);
  const auto hot = report.hotspots(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_GE(hot[0].exclusive_seconds, hot[1].exclusive_seconds);
}

TEST_F(ProfTest, RooflineFractionIsSane) {
  const Tensor a = Tensor::full(Shape{64, 64}, 1.0);
  (void)matmul(a, a);
  const prof::Report report = prof::report(/*with_calibration=*/true);
  EXPECT_GT(report.machine.peak_gflops, 0.0);
  EXPECT_GT(report.machine.peak_gbps, 0.0);
  const auto row = find_kernel(report, "matmul");
  ASSERT_TRUE(row.has_value());
  EXPECT_GT(row->intensity, 0.0);
  EXPECT_GT(row->attainable_gflops, 0.0);
  EXPECT_GT(row->roofline_fraction, 0.0);
}

// -- disabled-path overhead -------------------------------------------------

// The ISSUE-level contract: a disabled hook costs one relaxed load and a
// branch — under 1% of any real kernel invocation. Pin it by comparing the
// per-hook cost (median of repeated batches) against one small matmul.
TEST(ProfOverheadTest, DisabledHookUnderOnePercentOfSmallKernel) {
  prof::disable();
  prof::reset();
  using clock = std::chrono::steady_clock;

  constexpr int kHooks = 1 << 18;
  std::vector<double> per_hook_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto begin = clock::now();
    for (int i = 0; i < kHooks; ++i) {
      const prof::KernelScope scope("overhead_probe", 1, 1);
    }
    const auto end = clock::now();
    per_hook_ns.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()) /
        kHooks);
  }
  std::sort(per_hook_ns.begin(), per_hook_ns.end());
  const double hook_ns = per_hook_ns[per_hook_ns.size() / 2];

  const Tensor a = Tensor::full(Shape{96, 96}, 1.0);
  (void)matmul(a, a);  // warm up
  const auto begin = clock::now();
  (void)matmul(a, a);
  const auto end = clock::now();
  const double matmul_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());

  EXPECT_LE(hook_ns * 100.0, matmul_ns)
      << "disabled hook costs " << hook_ns << " ns; reference kernel took "
      << matmul_ns << " ns";
  EXPECT_EQ(prof::totals().kernel_calls, 0);
}

}  // namespace
}  // namespace sgnn
