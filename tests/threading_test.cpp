// Determinism and correctness of the shared ThreadPool: results of the
// parallel tensor kernels must be bit-identical for every pool size.

#include "sgnn/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sgnn/data/sources.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

/// Runs `body` at the given pool size, restoring the previous size after.
template <typename Fn>
auto with_pool_size(int num_threads, Fn body) {
  ThreadPool& pool = ThreadPool::instance();
  const int previous = pool.size();
  pool.resize(num_threads);
  auto result = body();
  pool.resize(previous);
  return result;
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool& pool = ThreadPool::instance();
  pool.resize(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::int64_t begin, std::int64_t end) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end - begin, 7);
    for (std::int64_t i = begin; i < end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeAndBadGrain) {
  ThreadPool& pool = ThreadPool::instance();
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
  EXPECT_THROW(pool.parallel_for(0, 10, 0, [](std::int64_t, std::int64_t) {}),
               Error);
}

TEST(ThreadPoolTest, PublishesSizeGauge) {
  ThreadPool& pool = ThreadPool::instance();
  pool.resize(3);
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("threadpool.size").value(),
            3.0);
  pool.resize(1);
}

TEST(ThreadPoolTest, ConcurrentCallersFromRankThreads) {
  // Several threads (like sgnn::comm ranks) issue parallel_for calls into
  // the shared pool at once; each call must see exactly its own range.
  ThreadPool::instance().resize(4);
  constexpr int kRanks = 4;
  std::vector<std::int64_t> totals(kRanks, 0);
  std::vector<std::thread> ranks;
  ranks.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([r, &totals] {
      std::vector<std::atomic<std::int64_t>> cells(512);
      parallel_for(0, 512, 16, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          cells[static_cast<std::size_t>(i)].fetch_add(i);
        }
      });
      std::int64_t total = 0;
      for (auto& c : cells) total += c.load();
      totals[static_cast<std::size_t>(r)] = total;
    });
  }
  for (auto& t : ranks) t.join();
  for (const auto total : totals) EXPECT_EQ(total, 512 * 511 / 2);
  ThreadPool::instance().resize(1);
}

TEST(ThreadPoolTest, ReduceSumBitIdenticalAcrossPoolSizes) {
  Rng rng(17);
  std::vector<double> values(100000);
  for (auto& v : values) v = rng.normal();
  const auto reduce = [&] {
    return parallel_reduce_sum(0, static_cast<std::int64_t>(values.size()),
                               1024,
                               [&](std::int64_t begin, std::int64_t end) {
                                 double acc = 0;
                                 for (std::int64_t i = begin; i < end; ++i) {
                                   acc += values[static_cast<std::size_t>(i)];
                                 }
                                 return acc;
                               });
  };
  const double serial = with_pool_size(1, reduce);
  const double threaded = with_pool_size(4, reduce);
  EXPECT_EQ(serial, threaded);  // bit-identical, not just close
}

TEST(ThreadingDeterminismTest, MatmulForwardBackwardBitIdentical) {
  const auto run = [] {
    Rng rng(3);
    Tensor a = Tensor::randn(Shape{67, 41}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn(Shape{41, 53}, rng).set_requires_grad(true);
    const Tensor out = matmul(a, b);
    sum(square(out)).backward();
    std::vector<real> flat = out.to_vector();
    const auto ga = a.grad().to_vector();
    const auto gb = b.grad().to_vector();
    flat.insert(flat.end(), ga.begin(), ga.end());
    flat.insert(flat.end(), gb.begin(), gb.end());
    return flat;
  };
  const auto serial = with_pool_size(1, run);
  const auto threaded = with_pool_size(4, run);
  EXPECT_EQ(serial, threaded);
}

TEST(ThreadingDeterminismTest, ScatterAddDuplicateIndicesBitIdentical) {
  // Duplicate receivers are where a naive parallel scatter loses
  // determinism; receiver-range sharding must keep input order.
  const auto run = [] {
    Rng rng(5);
    Tensor src = Tensor::randn(Shape{4096, 32}, rng).set_requires_grad(true);
    std::vector<std::int64_t> index;
    index.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      index.push_back(static_cast<std::int64_t>(
          rng.uniform_index(7)));  // 7 rows, heavy collisions
    }
    const Tensor out = scatter_add_rows(src, index, 7);
    sum(square(out)).backward();
    std::vector<real> flat = out.to_vector();
    const auto gs = src.grad().to_vector();
    flat.insert(flat.end(), gs.begin(), gs.end());
    return flat;
  };
  const auto serial = with_pool_size(1, run);
  const auto threaded = with_pool_size(4, run);
  EXPECT_EQ(serial, threaded);
}

TEST(ThreadingDeterminismTest, ReductionsAndElementwiseBitIdentical) {
  const auto run = [] {
    Rng rng(7);
    Tensor x = Tensor::randn(Shape{513, 129}, rng).set_requires_grad(true);
    Tensor loss =
        sum(silu(x)) + sum(mean(square(x), 0, false)) +
        sum(sum(exp_op(scale(x, real{0.01})), 1, true));
    loss.backward();
    std::vector<real> flat = {loss.item()};
    const auto gx = x.grad().to_vector();
    flat.insert(flat.end(), gx.begin(), gx.end());
    return flat;
  };
  const auto serial = with_pool_size(1, run);
  const auto threaded = with_pool_size(4, run);
  EXPECT_EQ(serial, threaded);
}

TEST(ThreadingDeterminismTest, EgnnTrainStepBitIdentical) {
  // Full model forward + backward + grad-norm clip + Adam step under 1 and
  // 4 threads: parameters after the step must match bit-for-bit.
  const auto run = [] {
    const ReferencePotential potential;
    Rng data_rng(11);
    std::vector<MolecularGraph> graphs;
    for (int i = 0; i < 2; ++i) {
      graphs.push_back(
          generate_sample(DataSource::kANI1x, data_rng, potential));
    }
    const GraphBatch batch = GraphBatch::from_graphs(graphs);

    ModelConfig config;
    config.hidden_dim = 16;
    config.num_layers = 2;
    const EGNNModel model(config);
    Adam optimizer(model.parameters(), Adam::Options{});
    optimizer.set_max_grad_norm(1.0);

    const auto out = model.forward(batch);
    Tensor loss = sum(square(out.energy)) + sum(square(out.forces));
    loss.backward();
    optimizer.step();

    std::vector<real> flat = {loss.item()};
    for (const auto& p : model.parameters()) {
      const auto values = p.to_vector();
      flat.insert(flat.end(), values.begin(), values.end());
    }
    return flat;
  };
  const auto serial = with_pool_size(1, run);
  const auto threaded = with_pool_size(4, run);
  ASSERT_EQ(serial.size(), threaded.size());
  EXPECT_EQ(serial, threaded);
}

}  // namespace
}  // namespace sgnn
