#include "sgnn/tensor/memory_tracker.hpp"

#include <gtest/gtest.h>

#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/tensor.hpp"

namespace sgnn {
namespace {

TEST(MemoryTrackerTest, AllocationRegistersUnderCurrentCategory) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t before = tracker.live().of(MemCategory::kWeight);
  {
    const ScopedMemCategory scope(MemCategory::kWeight);
    const Tensor t = Tensor::zeros(Shape{128});
    EXPECT_EQ(tracker.live().of(MemCategory::kWeight),
              before + 128 * static_cast<std::int64_t>(sizeof(real)));
  }
  EXPECT_EQ(tracker.live().of(MemCategory::kWeight), before);
}

TEST(MemoryTrackerTest, FreeRestoresOriginalCategoryEvenAfterScopeExit) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t before = tracker.live().of(MemCategory::kOptimizerState);
  Tensor t;
  {
    const ScopedMemCategory scope(MemCategory::kOptimizerState);
    t = Tensor::zeros(Shape{64});
  }
  // Freed outside the scope: bytes must come off the category they were
  // charged to, not the ambient one.
  EXPECT_GT(tracker.live().of(MemCategory::kOptimizerState), before);
  t = Tensor();
  EXPECT_EQ(tracker.live().of(MemCategory::kOptimizerState), before);
}

TEST(MemoryTrackerTest, ScopesNest) {
  const ScopedMemCategory outer(MemCategory::kWeight);
  EXPECT_EQ(MemoryTracker::current_category(), MemCategory::kWeight);
  {
    const ScopedMemCategory inner(MemCategory::kGradient);
    EXPECT_EQ(MemoryTracker::current_category(), MemCategory::kGradient);
  }
  EXPECT_EQ(MemoryTracker::current_category(), MemCategory::kWeight);
}

TEST(MemoryTrackerTest, PeakCapturesHighWaterMark) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak();
  const std::int64_t base = tracker.peak_total();
  {
    const Tensor big = Tensor::zeros(Shape{1024});
    EXPECT_GE(tracker.peak_total(),
              base + 1024 * static_cast<std::int64_t>(sizeof(real)));
  }
  // Peak persists after the allocation is freed.
  EXPECT_GE(tracker.peak_total(),
            base + 1024 * static_cast<std::int64_t>(sizeof(real)));
  tracker.reset_peak();
  EXPECT_LT(tracker.peak_total(),
            base + 1024 * static_cast<std::int64_t>(sizeof(real)));
}

TEST(MemoryTrackerTest, PeakPhaseAttribution) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak();
  {
    const ScopedTrainPhase phase(TrainPhase::kBackward);
    const Tensor spike = Tensor::zeros(Shape{1 << 16});
    (void)spike;
  }
  EXPECT_EQ(tracker.peak_phase(), TrainPhase::kBackward);
}

TEST(MemoryTrackerTest, PerPhasePeaksAreTrackedIndependently) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak();
  {
    const ScopedTrainPhase phase(TrainPhase::kForward);
    const Tensor forward_spike = Tensor::zeros(Shape{4096});
    (void)forward_spike;
  }
  {
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    const Tensor small = Tensor::zeros(Shape{16});
    (void)small;
  }
  const auto fwd = tracker.peak_during(TrainPhase::kForward);
  const auto opt = tracker.peak_during(TrainPhase::kOptimizer);
  EXPECT_GT(fwd, opt);
  EXPECT_GE(fwd, 4096 * static_cast<std::int64_t>(sizeof(real)));
  // Backward never ran after the reset.
  EXPECT_EQ(tracker.peak_during(TrainPhase::kBackward), 0);
}

TEST(MemoryTrackerTest, SampledPhaseWithoutAllocationsRecordsItsLiveLevel) {
  auto& tracker = MemoryTracker::instance();
  const Tensor resident = Tensor::zeros(Shape{512});
  tracker.reset_peak();
  {
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    EXPECT_EQ(tracker.peak_during(TrainPhase::kOptimizer), 0);
    tracker.sample_phase();
  }
  EXPECT_GE(tracker.peak_during(TrainPhase::kOptimizer),
            512 * static_cast<std::int64_t>(sizeof(real)));
}

TEST(MemoryTrackerTest, FractionSumsToOne) {
  MemBreakdown b;
  b.bytes[0] = 300;
  b.bytes[1] = 700;
  EXPECT_EQ(b.total(), 1000);
  EXPECT_DOUBLE_EQ(b.fraction(MemCategory::kActivation), 0.3);
  EXPECT_DOUBLE_EQ(b.fraction(MemCategory::kWeight), 0.7);
}

TEST(MemoryTrackerTest, CategoryNamesAreStable) {
  EXPECT_STREQ(mem_category_name(MemCategory::kActivation), "activations");
  EXPECT_STREQ(mem_category_name(MemCategory::kOptimizerState),
               "optimizer states");
  EXPECT_STREQ(train_phase_name(TrainPhase::kOptimizer),
               "optimizer (weight update)");
}

TEST(MemoryTrackerTest, GradientsAccountedAsGradientMemory) {
  auto& tracker = MemoryTracker::instance();
  Tensor w;
  {
    const ScopedMemCategory scope(MemCategory::kWeight);
    w = Tensor::zeros(Shape{256});
    w.set_requires_grad(true);
  }
  const std::int64_t grad_before = tracker.live().of(MemCategory::kGradient);
  sum(square(w)).backward();
  // The persistent .grad buffer (at least) must be charged to gradients.
  EXPECT_GE(tracker.live().of(MemCategory::kGradient),
            grad_before + 256 * static_cast<std::int64_t>(sizeof(real)));
  w.zero_grad();
  w = Tensor();
}

}  // namespace
}  // namespace sgnn
