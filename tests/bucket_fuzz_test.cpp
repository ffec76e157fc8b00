// Randomized property suite for the gradient bucketer (FUZZ label, run
// under ASan/UBSan in CI): for random shape lists and bucket caps, the
// layout must tile the flat vector exactly, the in-place bucketed
// collectives over a parameter arena must reproduce the whole-vector
// rank-order reductions bit-for-bit, and degenerate inputs (empty
// parameter list, fewer elements than ranks, double begin_step) must throw
// or no-op cleanly — never deadlock. Everything is seeded, so a failure
// reproduces deterministically.

#include "sgnn/train/bucketer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

template <typename Body>
void run_ranks(int num_ranks, Body body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < num_ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

// -- plan() layout properties -------------------------------------------------

TEST(BucketPlanFuzz, EveryElementLandsInExactlyOneBucket) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng.uniform_index(5000);
    const std::size_t bytes = 1 + rng.uniform_index(64 * 1024);
    const auto buckets = GradBucketer::plan(n, bytes);
    if (n == 0) {
      EXPECT_TRUE(buckets.empty());
      continue;
    }
    const std::size_t cap =
        bytes / sizeof(real) == 0 ? 1 : bytes / sizeof(real);
    // Descending contiguous tiling of [0, n): bucket i+1 ends exactly where
    // bucket i begins, the first bucket reaches n, the last reaches 0.
    ASSERT_FALSE(buckets.empty()) << "n=" << n << " bytes=" << bytes;
    EXPECT_EQ(buckets.front().end, n);
    EXPECT_EQ(buckets.back().begin, 0u);
    std::size_t covered = 0;
    std::size_t prev_begin = n;
    for (const auto& bucket : buckets) {
      EXPECT_LT(bucket.begin, bucket.end) << "n=" << n << " bytes=" << bytes;
      EXPECT_EQ(bucket.end, prev_begin) << "n=" << n << " bytes=" << bytes;
      EXPECT_LE(bucket.end - bucket.begin, cap)
          << "n=" << n << " bytes=" << bytes;
      covered += bucket.end - bucket.begin;
      prev_begin = bucket.begin;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(BucketPlanFuzz, SubElementCapClampsToOneElementPerBucket) {
  const auto buckets = GradBucketer::plan(5, 0);
  ASSERT_EQ(buckets.size(), 5u);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].end - buckets[i].begin, 1u);
  }
  EXPECT_TRUE(GradBucketer::plan(0, 0).empty());
  EXPECT_TRUE(GradBucketer::plan(0, 1 << 20).empty());
}

// -- randomized end-to-end parity against the blocking collectives ------------

/// Per-rank clones of `num_params` randomly shaped parameters.
std::vector<std::vector<Tensor>> make_random_params(Rng& rng, int ranks,
                                                    std::size_t num_params) {
  Rng init_rng = rng.split();
  std::vector<Tensor> prototypes;
  for (std::size_t p = 0; p < num_params; ++p) {
    const auto len = static_cast<std::int64_t>(1 + rng.uniform_index(40));
    const Shape shape =
        rng.uniform() < 0.5 ? Shape{len} : Shape{2, (len + 1) / 2};
    prototypes.push_back(Tensor::randn(shape, init_rng));
  }
  std::vector<std::vector<Tensor>> params(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    for (const Tensor& proto : prototypes) {
      params[static_cast<std::size_t>(r)].push_back(
          proto.clone().set_requires_grad(true));
    }
  }
  return params;
}

/// Installs grad(param p, element i) = (rank+1) * (p+1) * (i+1) / 64 by
/// differentiating a linear objective.
void install_grads(std::vector<Tensor>& params, int rank) {
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor coeff = Tensor::zeros(params[p].shape());
    real* c = coeff.data();
    for (std::int64_t i = 0; i < coeff.numel(); ++i) {
      c[i] = static_cast<real>(rank + 1) * static_cast<real>(p + 1) *
             static_cast<real>(i + 1) / static_cast<real>(64);
    }
    params[p].zero_grad();
    sum(params[p] * coeff).backward();
  }
}

std::vector<real> to_vector(std::span<const real> values) {
  return {values.begin(), values.end()};
}

/// One arena per rank over that rank's parameters.
std::vector<std::unique_ptr<ParamArena>> make_arenas(
    const std::vector<std::vector<Tensor>>& params) {
  std::vector<std::unique_ptr<ParamArena>> arenas;
  for (const auto& rank_params : params) {
    arenas.push_back(std::make_unique<ParamArena>(rank_params));
  }
  return arenas;
}

/// Fixed rank-order elementwise sum of the per-rank flat gradients — the
/// exact reduction order the engine uses.
std::vector<real> rank_order_sum(
    const std::vector<std::unique_ptr<ParamArena>>& arenas) {
  std::vector<real> total = to_vector(arenas[0]->grads());
  for (std::size_t r = 1; r < arenas.size(); ++r) {
    const std::span<const real> g = arenas[r]->grads();
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += g[i];
  }
  return total;
}

TEST(BucketerFuzz, BucketedAllReduceMatchesBlockingForRandomShapes) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int R = 1 + static_cast<int>(rng.uniform_index(4));
    const std::size_t num_params = 1 + rng.uniform_index(5);
    const std::size_t bucket_bytes = 1 + rng.uniform_index(50 * sizeof(real));
    auto params = make_random_params(rng, R, num_params);
    for (int r = 0; r < R; ++r) {
      install_grads(params[static_cast<std::size_t>(r)], r);
    }
    const auto arenas = make_arenas(params);
    const std::vector<real> expected = rank_order_sum(arenas);

    Communicator comm(R);
    std::vector<std::unique_ptr<GradBucketer>> bucketers;
    for (int r = 0; r < R; ++r) {
      bucketers.push_back(std::make_unique<GradBucketer>(
          comm, *arenas[static_cast<std::size_t>(r)],
          CollectiveKind::kAllReduce, bucket_bytes));
    }
    run_ranks(R, [&](int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      bucketers[ri]->begin_step(rank);
      bucketers[ri]->post_remaining();
      bucketers[ri]->drain();
      bucketers[ri]->end_step();
    });
    for (int r = 0; r < R; ++r) {
      EXPECT_EQ(to_vector(arenas[static_cast<std::size_t>(r)]->grads()),
                expected)
          << "trial " << trial << " rank " << r << " R=" << R
          << " bucket_bytes=" << bucket_bytes;
    }
  }
}

TEST(BucketerFuzz, BucketedReduceScatterAndAllGatherMatchBlockingShards) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int R = 1 + static_cast<int>(rng.uniform_index(4));
    const std::size_t num_params = 1 + rng.uniform_index(5);
    const std::size_t bucket_bytes = 1 + rng.uniform_index(50 * sizeof(real));
    auto params = make_random_params(rng, R, num_params);
    for (int r = 0; r < R; ++r) {
      install_grads(params[static_cast<std::size_t>(r)], r);
    }
    const auto arenas = make_arenas(params);
    const std::vector<real> expected = rank_order_sum(arenas);
    const std::size_t n = expected.size();

    Communicator comm(R);
    std::vector<std::unique_ptr<GradBucketer>> bucketers;
    for (int r = 0; r < R; ++r) {
      bucketers.push_back(std::make_unique<GradBucketer>(
          comm, *arenas[static_cast<std::size_t>(r)],
          CollectiveKind::kReduceScatter, bucket_bytes));
    }
    // The refreshed parameters every rank must end up holding.
    std::vector<real> updated(n);
    for (std::size_t i = 0; i < n; ++i) {
      updated[i] = static_cast<real>(i) * static_cast<real>(0.5) -
                   static_cast<real>(1);
    }
    run_ranks(R, [&](int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      bucketers[ri]->begin_step(rank);
      bucketers[ri]->post_remaining();
      bucketers[ri]->drain();
      // The drained shard is exactly this rank's slice of the global sum —
      // shard boundaries never depend on the bucket size.
      const auto [begin, end] = Communicator::shard_range(n, rank, R);
      const std::span<real> grads = arenas[ri]->grads();
      for (std::size_t i = begin; i < end; ++i) {
        EXPECT_EQ(grads[i], expected[i])
            << "trial " << trial << " rank " << rank << " element " << i;
      }
      // The rank updates its own shard of the values; the all-gather
      // spreads every shard to every rank.
      std::copy(updated.begin() + static_cast<std::ptrdiff_t>(begin),
                updated.begin() + static_cast<std::ptrdiff_t>(end),
                arenas[ri]->values().begin() +
                    static_cast<std::ptrdiff_t>(begin));
      bucketers[ri]->all_gather_params();
      bucketers[ri]->end_step();
    });
    for (int r = 0; r < R; ++r) {
      EXPECT_EQ(to_vector(arenas[static_cast<std::size_t>(r)]->values()),
                updated)
          << "trial " << trial << " rank " << r;
    }
  }
}

// -- degenerate inputs --------------------------------------------------------

TEST(BucketerDegenerateTest, FewerElementsThanRanksLeavesEmptyShards) {
  const int R = 4;
  Communicator comm(R);
  std::vector<std::vector<Tensor>> params(R);
  for (int r = 0; r < R; ++r) {
    Tensor p = Tensor::zeros(Shape{2}).set_requires_grad(true);
    params[static_cast<std::size_t>(r)] = {p};
    install_grads(params[static_cast<std::size_t>(r)], r);
  }
  const auto arenas = make_arenas(params);
  std::vector<std::unique_ptr<GradBucketer>> bucketers;
  for (int r = 0; r < R; ++r) {
    bucketers.push_back(std::make_unique<GradBucketer>(
        comm, *arenas[static_cast<std::size_t>(r)],
        CollectiveKind::kReduceScatter, sizeof(real)));
  }
  const std::vector<real> expected = rank_order_sum(arenas);
  run_ranks(R, [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    bucketers[ri]->begin_step(rank);
    bucketers[ri]->post_remaining();
    bucketers[ri]->drain();
    const auto [begin, end] = Communicator::shard_range(2, rank, R);
    ASSERT_EQ(end - begin, rank < 2 ? 1u : 0u);  // ranks 2 and 3 own nothing
    const std::span<real> values = arenas[ri]->values();
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_EQ(arenas[ri]->grads()[i], expected[i]);
      values[i] = expected[i];
    }
    bucketers[ri]->all_gather_params();
    bucketers[ri]->end_step();
  });
  for (int r = 0; r < R; ++r) {
    EXPECT_EQ(to_vector(arenas[static_cast<std::size_t>(r)]->values()),
              expected);
  }
}

TEST(BucketerDegenerateTest, EmptyParameterListIsACleanNoOp) {
  const int R = 2;
  Communicator comm(R);
  const ParamArena empty{std::vector<Tensor>{}};
  EXPECT_EQ(empty.size(), 0u);
  std::vector<std::unique_ptr<GradBucketer>> bucketers;
  for (int r = 0; r < R; ++r) {
    bucketers.push_back(std::make_unique<GradBucketer>(
        comm, empty, CollectiveKind::kAllReduce, 1024));
    EXPECT_EQ(bucketers.back()->num_buckets(), 0u);
  }
  run_ranks(R, [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    bucketers[ri]->begin_step(rank);
    bucketers[ri]->post_remaining();
    bucketers[ri]->drain();
    bucketers[ri]->end_step();
  });
  EXPECT_EQ(comm.traffic().total_bytes(), 0u);
}

TEST(BucketerDegenerateTest, BeginStepWhileActiveThrows) {
  Communicator comm(1);
  const ParamArena arena({Tensor::zeros(Shape{3}).set_requires_grad(true)});
  GradBucketer bucketer(comm, arena, CollectiveKind::kAllReduce, 1024);
  bucketer.begin_step(0);
  EXPECT_THROW(bucketer.begin_step(0), Error);
  // The original step is still live and completes normally (the undefined
  // gradient drains as zeros).
  bucketer.post_remaining();
  bucketer.drain();
  EXPECT_EQ(to_vector(arena.grads()), (std::vector<real>{0, 0, 0}));
  bucketer.end_step();
}

}  // namespace
}  // namespace sgnn
