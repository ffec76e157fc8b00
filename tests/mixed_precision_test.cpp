// Mixed-precision training: the float32 compute path must carry gradcheck
// (at float-sized tolerances) and land within tolerance of the fp64 loss
// trajectory.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sgnn/data/dataset.hpp"
#include "sgnn/tensor/gradcheck.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

// -- training integration ---------------------------------------------------

const AggregatedDataset& tiny_dataset() {
  static const AggregatedDataset dataset = [] {
    const ReferencePotential potential;
    DatasetOptions options;
    options.target_bytes = 400 << 10;
    options.seed = 31;
    return AggregatedDataset::generate(options, potential);
  }();
  return dataset;
}

std::vector<Trainer::EpochResult> run_training() {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 7);

  ModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 2;
  EGNNModel model(config);

  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 4;
  options.adam.learning_rate = 2e-3;
  Trainer trainer(model, options);
  trainer.set_energy_baseline(EnergyBaseline::fit(dataset.view(split.train)));
  DataLoader loader(dataset.view(split.train), options.batch_size, 99);
  return trainer.fit(loader);
}

TEST(MixedPrecisionTest, Fp32TrainingTracksFp64LossWithinTolerance) {
  const auto fp64 = run_training();
  std::vector<Trainer::EpochResult> fp32;
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    fp32 = run_training();
  }
  ASSERT_EQ(fp64.size(), fp32.size());
  // Both runs must make real progress...
  EXPECT_LT(fp64.back().mean_train_loss, fp64.front().mean_train_loss);
  EXPECT_LT(fp32.back().mean_train_loss, fp32.front().mean_train_loss);
  // ...and the fp32 trajectory stays within a few percent of fp64: float
  // rounding perturbs each step by ~1e-7 relative, and five epochs of a
  // stable optimizer do not amplify that into a divergent path.
  for (std::size_t e = 0; e < fp64.size(); ++e) {
    const double a = fp64[e].mean_train_loss;
    const double b = fp32[e].mean_train_loss;
    EXPECT_TRUE(std::isfinite(b)) << "epoch " << e;
    EXPECT_LE(std::abs(a - b) / std::max(std::abs(a), 1e-6), 0.05)
        << "epoch " << e << ": fp64 " << a << " vs fp32 " << b;
  }
}

// -- fp32 gradcheck ---------------------------------------------------------
//
// The gradcheck matrix over backends runs the full gradcheck_test binary
// under SGNN_BACKEND={scalar,simd} (tests/CMakeLists.txt); here we pin the
// dtype axis with float-sized steps and tolerances.

TEST(MixedPrecisionTest, GradcheckPassesUnderFp32Compute) {
  kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
  Rng rng(0xF32F32ULL);

  const auto check = [&](const char* name, auto fn,
                         std::vector<Tensor> inputs) {
    for (auto& t : inputs) t.set_requires_grad(true);
    // eps 1e-3: big enough that f(x+eps)-f(x-eps) survives float rounding,
    // small enough for the central-difference truncation term; tol 2e-2
    // absorbs the fp32 noise floor of eps^-1 * 2^-24.
    const GradcheckResult r = gradcheck(fn, inputs, 1e-3, 2e-2);
    EXPECT_TRUE(r.ok) << name << ": max rel err " << r.max_rel_error << " ("
                      << r.detail << ")";
  };

  check("matmul",
        [](const std::vector<Tensor>& in) { return matmul(in[0], in[1]); },
        {Tensor::uniform(Shape{3, 4}, rng, -1.0, 1.0),
         Tensor::uniform(Shape{4, 2}, rng, -1.0, 1.0)});
  check("mul",
        [](const std::vector<Tensor>& in) { return in[0] * in[1]; },
        {Tensor::uniform(Shape{5}, rng, 0.5, 2.0),
         Tensor::uniform(Shape{5}, rng, 0.5, 2.0)});
  check("sigmoid",
        [](const std::vector<Tensor>& in) { return sigmoid(in[0]); },
        {Tensor::uniform(Shape{7}, rng, -2.0, 2.0)});
  check("sum_axis",
        [](const std::vector<Tensor>& in) { return sum(in[0], 0, false); },
        {Tensor::uniform(Shape{4, 3}, rng, -1.0, 1.0)});
}

}  // namespace
}  // namespace sgnn
