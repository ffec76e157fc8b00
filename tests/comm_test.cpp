#include "sgnn/comm/communicator.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sgnn/util/error.hpp"

namespace sgnn {
namespace {

/// Runs `body(rank)` on num_ranks threads and joins.
template <typename Body>
void run_ranks(int num_ranks, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

class CommRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CommRankSweep, AllReduceMatchesSequentialSum) {
  const int R = GetParam();
  Communicator comm(R);
  const std::size_t n = 37;  // deliberately not divisible by R
  std::vector<std::vector<real>> data(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(r)].push_back(
          static_cast<real>(r * 100) + static_cast<real>(i));
    }
  }
  run_ranks(R, [&](int rank) {
    comm.all_reduce_sum(rank, data[static_cast<std::size_t>(rank)]);
  });
  for (std::size_t i = 0; i < n; ++i) {
    real expected = 0;
    for (int r = 0; r < R; ++r) {
      expected += static_cast<real>(r * 100) + static_cast<real>(i);
    }
    for (int r = 0; r < R; ++r) {
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(r)][i], expected)
          << "rank " << r << " element " << i;
    }
  }
}

TEST_P(CommRankSweep, ReduceScatterThenAllGatherReconstructsSum) {
  const int R = GetParam();
  Communicator comm(R);
  const std::size_t n = 41;
  std::vector<std::vector<real>> input(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      input[static_cast<std::size_t>(r)].push_back(
          static_cast<real>((r + 1)) * static_cast<real>(i));
    }
  }
  std::vector<std::vector<real>> reconstructed(static_cast<std::size_t>(R));
  run_ranks(R, [&](int rank) {
    const auto shard =
        comm.reduce_scatter_sum(rank, input[static_cast<std::size_t>(rank)]);
    reconstructed[static_cast<std::size_t>(rank)] =
        comm.all_gather(rank, shard, n);
  });
  for (int r = 0; r < R; ++r) {
    ASSERT_EQ(reconstructed[static_cast<std::size_t>(r)].size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      real expected = 0;
      for (int s = 0; s < R; ++s) {
        expected += static_cast<real>(s + 1) * static_cast<real>(i);
      }
      EXPECT_DOUBLE_EQ(reconstructed[static_cast<std::size_t>(r)][i],
                       expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CommRankSweep, ::testing::Values(1, 2, 3, 4, 7));

TEST(CommTest, ShardRangeBalancedPartition) {
  // 10 elements over 4 ranks: 3, 3, 2, 2.
  EXPECT_EQ(Communicator::shard_range(10, 0, 4), (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(Communicator::shard_range(10, 1, 4), (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(Communicator::shard_range(10, 2, 4), (std::pair<std::size_t, std::size_t>{6, 8}));
  EXPECT_EQ(Communicator::shard_range(10, 3, 4), (std::pair<std::size_t, std::size_t>{8, 10}));
  // Full coverage property across sizes and rank counts.
  for (const std::size_t n : {0u, 1u, 5u, 16u, 97u}) {
    for (const int ranks : {1, 2, 3, 8}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (int r = 0; r < ranks; ++r) {
        const auto [begin, end] = Communicator::shard_range(n, r, ranks);
        EXPECT_EQ(begin, expected_begin);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(CommTest, TrafficCountsPayloadOncePerCall) {
  const int R = 4;
  Communicator comm(R);
  std::vector<std::vector<real>> data(
      R, std::vector<real>(100, real{1}));
  run_ranks(R, [&](int rank) {
    comm.all_reduce_sum(rank, data[static_cast<std::size_t>(rank)]);
    comm.all_reduce_sum(rank, data[static_cast<std::size_t>(rank)]);
  });
  const auto traffic = comm.traffic();
  EXPECT_EQ(traffic.all_reduce_bytes, 2 * 100 * sizeof(real));
  EXPECT_EQ(traffic.collective_calls, 2u);
  comm.reset_traffic();
  EXPECT_EQ(comm.traffic().total_bytes(), 0u);
}

TEST(CommTest, BarrierSynchronizesPhases) {
  const int R = 3;
  Communicator comm(R);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violated{false};
  run_ranks(R, [&](int) {
    phase_counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all R arrivals.
    if (phase_counter.load() != R) violated = true;
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(InterconnectModelTest, SecondsMatchesHandComputedKnownTraffic) {
  // Pins the comm-time model against hand-derived numbers so the
  // bandwidth/latency split cannot silently regress (the aggregate report
  // used to fold per-call latency into the bandwidth terms AND add it
  // again from the call counts, double-counting it).
  InterconnectModel model;
  model.link_bandwidth_bytes_per_s = 100.0;
  model.latency_seconds = 0.5;
  const int R = 4;

  // Bandwidth terms are pure: zero bytes cost zero regardless of latency.
  EXPECT_DOUBLE_EQ(model.all_reduce_seconds(0, R), 0.0);
  // Ring all-reduce: 2(R-1) steps of n/R bytes = 6 * (400/4/100) = 6 s.
  EXPECT_DOUBLE_EQ(model.all_reduce_seconds(400, R), 6.0);
  // Ring reduce-scatter / all-gather: (R-1) steps of n/R bytes.
  EXPECT_DOUBLE_EQ(model.reduce_scatter_seconds(200, R), 1.5);
  EXPECT_DOUBLE_EQ(model.all_gather_seconds(100, R), 0.75);
  // Per-call launch latency: steps x latency_seconds.
  EXPECT_DOUBLE_EQ(model.all_reduce_latency_seconds(R), 3.0);
  EXPECT_DOUBLE_EQ(model.reduce_scatter_latency_seconds(R), 1.5);
  EXPECT_DOUBLE_EQ(model.all_gather_latency_seconds(R), 1.5);

  Communicator::Traffic traffic;
  traffic.all_reduce_bytes = 400;
  traffic.all_reduce_calls = 2;
  traffic.reduce_scatter_bytes = 200;
  traffic.reduce_scatter_calls = 1;
  traffic.all_gather_bytes = 100;
  traffic.all_gather_calls = 3;
  // bandwidth: 6 + 1.5 + 0.75 = 8.25
  // latency:   2*3 + 1*1.5 + 3*1.5 = 12
  EXPECT_DOUBLE_EQ(model.seconds(traffic, R), 8.25 + 12.0);
  // A single rank never touches the fabric.
  EXPECT_DOUBLE_EQ(model.seconds(traffic, 1), 0.0);
}

TEST(InterconnectModelTest, SecondsIsAdditiveOverTrafficDeltas) {
  // The per-step accounting sums seconds(delta) over steps and must equal
  // seconds(aggregate) — the property the trainer report relies on.
  InterconnectModel model;
  model.link_bandwidth_bytes_per_s = 977.0;
  model.latency_seconds = 1.0e-3;
  Communicator::Traffic first;
  first.all_reduce_bytes = 1234;
  first.all_reduce_calls = 3;
  first.all_gather_bytes = 77;
  first.all_gather_calls = 1;
  Communicator::Traffic total = first;
  total.all_reduce_bytes += 555;
  total.all_reduce_calls += 1;
  total.all_gather_bytes += 901;
  total.all_gather_calls += 2;
  const Communicator::Traffic delta = total.since(first);
  EXPECT_EQ(delta.all_reduce_bytes, 555u);
  EXPECT_EQ(delta.all_reduce_calls, 1u);
  EXPECT_EQ(delta.all_gather_bytes, 901u);
  EXPECT_EQ(delta.reduce_scatter_bytes, 0u);
  EXPECT_DOUBLE_EQ(model.seconds(first, 8) + model.seconds(delta, 8),
                   model.seconds(total, 8));
}

TEST(CommunicatorTest, CollectivesRejectOutOfRangeRanks) {
  // The bounds checks fire before any barrier is entered, so a bad rank
  // fails fast instead of deadlocking the collective.
  Communicator comm(2);
  std::vector<real> data(4, 1.0);
  EXPECT_THROW(comm.all_reduce_sum(-1, data), Error);
  EXPECT_THROW(comm.all_reduce_sum(2, data), Error);
  EXPECT_THROW(comm.reduce_scatter_sum(5, data), Error);
  EXPECT_THROW(comm.all_gather(-3, data, 8), Error);
}

// -- non-blocking collectives -------------------------------------------------

TEST(NonBlockingCommTest, IallReduceMatchesBlockingAndCountsOncePerOp) {
  const int R = 3;
  Communicator comm(R);
  const std::size_t n = 50;
  std::vector<std::vector<real>> data(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(r)].push_back(
          static_cast<real>(r * 10) + static_cast<real>(i));
    }
  }
  run_ranks(R, [&](int rank) {
    CollectiveHandle handle =
        comm.iall_reduce_sum(rank, data[static_cast<std::size_t>(rank)]);
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_TRUE(handle.test());  // complete and still queryable after wait
  });
  for (std::size_t i = 0; i < n; ++i) {
    real expected = 0;
    for (int r = 0; r < R; ++r) {
      expected += static_cast<real>(r * 10) + static_cast<real>(i);
    }
    for (int r = 0; r < R; ++r) {
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(r)][i], expected);
    }
  }
  // One logical collective: the payload is counted once at execution, not
  // once per posting rank and not again at wait().
  const auto traffic = comm.traffic();
  EXPECT_EQ(traffic.all_reduce_bytes, n * sizeof(real));
  EXPECT_EQ(traffic.all_reduce_calls, 1u);
  EXPECT_EQ(traffic.collective_calls, 1u);
}

TEST(NonBlockingCommTest, ScatterGatherCountsTileTheVectorAndCountOnce) {
  const int R = 4;
  Communicator comm(R);
  const std::size_t n = 10;
  std::vector<std::size_t> counts;
  for (int r = 0; r < R; ++r) {
    const auto [begin, end] = Communicator::shard_range(n, r, R);
    counts.push_back(end - begin);
  }
  std::vector<std::vector<real>> input(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      input[static_cast<std::size_t>(r)].push_back(
          static_cast<real>(r + 1) * static_cast<real>(i));
    }
  }
  std::vector<real> full_sum(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int r = 0; r < R; ++r) {
      full_sum[i] += static_cast<real>(r + 1) * static_cast<real>(i);
    }
  }
  std::vector<std::vector<real>> gathered(static_cast<std::size_t>(R));
  run_ranks(R, [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    std::vector<real> piece(counts[ri]);
    comm.ireduce_scatter_counts(rank, input[ri], counts, piece).wait();
    const auto [begin, end] = Communicator::shard_range(n, rank, R);
    ASSERT_EQ(piece.size(), end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_DOUBLE_EQ(piece[i - begin], full_sum[i]);
    }
    gathered[ri].resize(n);  // the caller sizes the output
    comm.iall_gather_counts(rank, piece, counts, gathered[ri]).wait();
  });
  for (int r = 0; r < R; ++r) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)], full_sum);
  }
  const auto traffic = comm.traffic();
  EXPECT_EQ(traffic.reduce_scatter_bytes, n * sizeof(real));
  EXPECT_EQ(traffic.reduce_scatter_calls, 1u);
  EXPECT_EQ(traffic.all_gather_bytes, n * sizeof(real));
  EXPECT_EQ(traffic.all_gather_calls, 1u);
  EXPECT_EQ(traffic.collective_calls, 2u);
}

TEST(NonBlockingCommTest, MismatchedPostsFailTheHandlesInsteadOfDeadlocking) {
  // Size mismatch: the i-th posts of the two ranks form one logical op, so
  // differing lengths are an SPMD protocol violation — the engine must fail
  // both handles (deferred Error at wait) rather than hang.
  {
    Communicator comm(2);
    run_ranks(2, [&](int rank) {
      std::vector<real> data(static_cast<std::size_t>(4 + rank), real{1});
      CollectiveHandle handle = comm.iall_reduce_sum(rank, data);
      EXPECT_THROW(handle.wait(), Error);
    });
    EXPECT_EQ(comm.traffic().total_bytes(), 0u);  // rejected ops don't count
  }
  // Kind mismatch: all-reduce matched against reduce-scatter.
  {
    Communicator comm(2);
    run_ranks(2, [&](int rank) {
      if (rank == 0) {
        std::vector<real> data(4, real{1});
        EXPECT_THROW(comm.iall_reduce_sum(rank, data).wait(), Error);
      } else {
        const std::vector<real> input(4, real{1});
        std::vector<real> piece(2);
        EXPECT_THROW(
            comm.ireduce_scatter_counts(rank, input, {2, 2}, piece).wait(),
            Error);
      }
    });
  }
}

TEST(NonBlockingCommTest, DestroyingCommunicatorFailsOrphanedPosts) {
  std::vector<real> data(3, real{1});
  CollectiveHandle orphan;
  {
    Communicator comm(2);
    orphan = comm.iall_reduce_sum(0, data);  // rank 1 never posts
  }
  ASSERT_TRUE(orphan.valid());
  EXPECT_THROW(orphan.wait(), Error);
}

TEST(CommTest, TrafficSinceRejectsSnapshotFromTheFuture) {
  Communicator::Traffic earlier;
  earlier.all_reduce_bytes = 100;
  earlier.all_reduce_calls = 2;
  Communicator::Traffic later = earlier;
  later.all_reduce_bytes += 50;
  later.all_reduce_calls += 1;
  EXPECT_EQ(later.since(earlier).all_reduce_bytes, 50u);
  // Swapped arguments would "wrap" the unsigned subtraction into garbage;
  // the contract is to fail loudly instead.
  EXPECT_THROW(earlier.since(later), Error);
}

TEST(InterconnectModelTest, CallSecondsMatchesPerKindFormulas) {
  InterconnectModel model;
  model.link_bandwidth_bytes_per_s = 100.0;
  model.latency_seconds = 0.5;
  const int R = 4;
  // Each kind = its bandwidth term + its launch latency (hand numbers from
  // SecondsMatchesHandComputedKnownTraffic above).
  EXPECT_DOUBLE_EQ(model.call_seconds(CollectiveKind::kAllReduce, 400, R),
                   6.0 + 3.0);
  EXPECT_DOUBLE_EQ(model.call_seconds(CollectiveKind::kReduceScatter, 200, R),
                   1.5 + 1.5);
  EXPECT_DOUBLE_EQ(model.call_seconds(CollectiveKind::kAllGather, 100, R),
                   0.75 + 1.5);
}

TEST(InterconnectModelTest, OverlapCostSplitsExposedAndHiddenTime) {
  InterconnectModel model;
  model.link_bandwidth_bytes_per_s = 100.0;
  model.latency_seconds = 0.5;
  const int R = 4;
  // One 400-byte all-reduce models 9 s of fabric time (6 bandwidth + 3
  // latency; see CallSecondsMatchesPerKindFormulas).
  using Event = InterconnectModel::OverlapEvent;

  // Fully overlapped: the wait arrives 20 s after the post, far past the
  // modeled finish at t=9 — no stall.
  {
    const auto cost = model.overlap_cost(
        {Event{CollectiveKind::kAllReduce, 400, 0.0, 20.0}}, R);
    EXPECT_EQ(cost.ops, 1);
    EXPECT_DOUBLE_EQ(cost.total_seconds, 9.0);
    EXPECT_DOUBLE_EQ(cost.exposed_seconds, 0.0);
    EXPECT_DOUBLE_EQ(cost.overlapped_seconds, 9.0);
  }
  // Fully exposed: wait immediately at the post — the rank stalls for the
  // whole duration, like a blocking call.
  {
    const auto cost = model.overlap_cost(
        {Event{CollectiveKind::kAllReduce, 400, 0.0, 0.0}}, R);
    EXPECT_DOUBLE_EQ(cost.exposed_seconds, 9.0);
    EXPECT_DOUBLE_EQ(cost.overlapped_seconds, 0.0);
  }
  // Serial fabric: the second op cannot start before the first finishes
  // (t=9), so its finish is t=18 and a wait at t=10 exposes 8 s; the first
  // op's wait at t=10 is fully covered.
  {
    const auto cost = model.overlap_cost(
        {Event{CollectiveKind::kAllReduce, 400, 0.0, 10.0},
         Event{CollectiveKind::kAllReduce, 400, 1.0, 10.0}},
        R);
    EXPECT_EQ(cost.ops, 2);
    EXPECT_DOUBLE_EQ(cost.total_seconds, 18.0);
    EXPECT_DOUBLE_EQ(cost.exposed_seconds, 8.0);
    EXPECT_DOUBLE_EQ(cost.overlapped_seconds, 10.0);
  }
  // An earlier stall shifts every later measured timestamp: two immediate
  // back-to-back waits expose everything.
  {
    const auto cost = model.overlap_cost(
        {Event{CollectiveKind::kAllReduce, 400, 0.0, 0.0},
         Event{CollectiveKind::kAllReduce, 400, 0.0, 0.0}},
        R);
    EXPECT_DOUBLE_EQ(cost.exposed_seconds, 18.0);
    EXPECT_DOUBLE_EQ(cost.overlapped_seconds, 0.0);
  }
  // Malformed event streams fail loudly: wait before post, posts that go
  // backwards in time.
  EXPECT_THROW(model.overlap_cost(
                   {Event{CollectiveKind::kAllReduce, 400, 5.0, 1.0}}, R),
               Error);
  EXPECT_THROW(model.overlap_cost(
                   {Event{CollectiveKind::kAllReduce, 400, 5.0, 6.0},
                    Event{CollectiveKind::kAllReduce, 400, 2.0, 7.0}},
                   R),
               Error);
}

TEST(InterconnectModelTest, CostScalesWithBytesAndRanks) {
  const InterconnectModel model;
  EXPECT_EQ(model.all_reduce_seconds(1 << 20, 1), 0.0);
  const double t4 = model.all_reduce_seconds(1 << 20, 4);
  const double t4_big = model.all_reduce_seconds(1 << 24, 4);
  EXPECT_GT(t4, 0.0);
  EXPECT_GT(t4_big, t4);
  // All-reduce moves twice the data of a reduce-scatter.
  EXPECT_GT(model.all_reduce_seconds(1 << 24, 4),
            model.reduce_scatter_seconds(1 << 24, 4));
}

}  // namespace
}  // namespace sgnn
