// Micro-benchmarks of the tensor-engine primitives that dominate EGNN
// training time (google-benchmark). Useful for regression-testing the
// kernels behind the paper-artifact benches.

#include <benchmark/benchmark.h>

#include "bench_gbench_main.hpp"

#include "sgnn/tensor/checkpoint.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/rng.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace {

using namespace sgnn;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Backend sweep on the dominant kernel. The simd:0 row is the committed
// scalar reference; the simd:1 row must hold the >= 2x items_per_second
// acceptance bar over it at the default bench scale (docs/kernels.md).
// Rows are skipped (not failed) on machines without the vector ISA.
void BM_MatmulBackend(benchmark::State& state) {
  const auto n = state.range(0);
  const bool simd = state.range(1) != 0;
  if (simd && !kernels::simd_available()) {
    state.SkipWithError("SIMD backend unavailable on this machine");
    return;
  }
  kernels::ScopedBackend scope(simd ? kernels::Backend::kSimd
                                    : kernels::Backend::kScalar);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulBackend)
    ->ArgNames({"n", "simd"})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// Float32 compute path (fp64 storage, fp32 kernel arithmetic including the
// cast in/out of the scratch buffers — the honest end-to-end cost).
void BM_MatmulFp32(benchmark::State& state) {
  const auto n = state.range(0);
  kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulFp32)->Arg(128)->Arg(256);

// The three GEMM forms a Linear runs, on one lane, through the kernel
// drivers: form 0 is the forward A·B, form 1 the input gradient A·Bᵀ
// (dX = dV·Wᵀ), form 2 the weight gradient Aᵀ·B (dW = Xᵀ·dV), for X (m,k),
// W (k,n), dV (m,n). Shapes: train_wide's φ_e layers (E≈2600 edges,
// h=128) and a narrow h=16 layer. Each form does 2·m·k·n flops.
void BM_MatmulForms(benchmark::State& state) {
  const auto form = state.range(0);
  const auto m = state.range(1);
  const auto k = state.range(2);
  const auto n = state.range(3);
  const int lanes = ThreadPool::instance().size();
  ThreadPool::instance().resize(1);
  Rng rng(1);
  const Tensor x = Tensor::randn(Shape{m, k}, rng);
  const Tensor w = Tensor::randn(Shape{k, n}, rng);
  const Tensor dv = Tensor::randn(Shape{m, n}, rng);
  Tensor out = Tensor::zeros(Shape{form == 2 ? k : m, form == 1 ? k : n});
  for (auto _ : state) {
    if (form == 0) {
      kernels::matmul(x.data(), w.data(), out.data(), m, k, n);
    } else if (form == 1) {
      kernels::matmul_a_bt(dv.data(), w.data(), out.data(), m, n, k);
    } else {
      kernels::matmul_at_b(x.data(), dv.data(), out.data(), m, k, n);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * k * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  ThreadPool::instance().resize(lanes);
}
BENCHMARK(BM_MatmulForms)
    ->ArgNames({"form", "m", "k", "n"})
    ->ArgsProduct({{0, 1, 2}, {2600}, {264}, {128}})
    ->ArgsProduct({{0, 1, 2}, {2600}, {128}, {128}})
    ->ArgsProduct({{0, 1, 2}, {5000}, {40}, {16}});

// Thread-pool scaling on the kernel that dominates wide-model training.
// Compare the threads:1 row against threads:8 at 2048 — the acceptance bar
// for the pool is >= 3x on an 8-core host. (Run standalone; resizing the
// pool is a bench/test-only hook.)
void BM_MatmulThreads(benchmark::State& state) {
  const auto n = state.range(0);
  const auto threads = static_cast<int>(state.range(1));
  ThreadPool::instance().resize(threads);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.counters["threads"] = threads;
  ThreadPool::instance().resize(1);
}
BENCHMARK(BM_MatmulThreads)
    ->ArgNames({"n", "threads"})
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Scatter under thread-count sweep: receiver-range sharding must win on
// wide feature dims without losing bit-determinism.
void BM_ScatterAddThreads(benchmark::State& state) {
  const auto edges = state.range(0);
  const auto threads = static_cast<int>(state.range(1));
  ThreadPool::instance().resize(threads);
  Rng rng(3);
  const Tensor src = Tensor::randn(Shape{edges, 64}, rng);
  std::vector<std::int64_t> index;
  const std::int64_t nodes = edges / 16 + 1;
  for (std::int64_t i = 0; i < edges; ++i) {
    index.push_back(static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(nodes))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scatter_add_rows(src, index, nodes).data());
  }
  state.SetItemsProcessed(state.iterations() * edges * 64);
  state.counters["threads"] = threads;
  ThreadPool::instance().resize(1);
}
BENCHMARK(BM_ScatterAddThreads)
    ->ArgNames({"edges", "threads"})
    ->Args({65536, 1})
    ->Args({65536, 4})
    ->Args({65536, 8})
    ->UseRealTime();

void BM_MatmulBackward(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    Tensor a = Tensor::randn(Shape{n, n}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn(Shape{n, n}, rng).set_requires_grad(true);
    Tensor loss = sum(matmul(a, b));
    state.ResumeTiming();
    loss.backward();
  }
}
BENCHMARK(BM_MatmulBackward)->Arg(64)->Arg(128);

void BM_ScatterAddRows(benchmark::State& state) {
  const auto edges = state.range(0);
  Rng rng(3);
  const Tensor src = Tensor::randn(Shape{edges, 64}, rng);
  std::vector<std::int64_t> index;
  const std::int64_t nodes = edges / 16 + 1;
  for (std::int64_t i = 0; i < edges; ++i) {
    index.push_back(static_cast<std::int64_t>(rng.uniform_index(
        static_cast<std::uint64_t>(nodes))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scatter_add_rows(src, index, nodes).data());
  }
  state.SetItemsProcessed(state.iterations() * edges * 64);
}
BENCHMARK(BM_ScatterAddRows)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_IndexSelectRows(benchmark::State& state) {
  const auto edges = state.range(0);
  Rng rng(4);
  const std::int64_t nodes = edges / 16 + 1;
  const Tensor table = Tensor::randn(Shape{nodes, 64}, rng);
  std::vector<std::int64_t> index;
  for (std::int64_t i = 0; i < edges; ++i) {
    index.push_back(static_cast<std::int64_t>(rng.uniform_index(
        static_cast<std::uint64_t>(nodes))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index_select_rows(table, index).data());
  }
  state.SetItemsProcessed(state.iterations() * edges * 64);
}
BENCHMARK(BM_IndexSelectRows)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_Silu(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(silu(x).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Silu)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// One Linear+SiLU training step (forward and backward) over 4096 edge rows:
// the fused linear_act node (arg 1 = 1) against the unfused
// silu(add(matmul(x, W), b)) chain it replaces (arg 1 = 0).
void BM_LinearAct(benchmark::State& state) {
  const auto h = state.range(0);
  const bool fused = state.range(1) != 0;
  constexpr std::int64_t kRows = 4096;
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{kRows, h}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn(Shape{h, h}, rng, 0.1).set_requires_grad(true);
  Tensor b = Tensor::randn(Shape{1, h}, rng, 0.1).set_requires_grad(true);
  const Tensor grad_out = Tensor::randn(Shape{kRows, h}, rng);
  for (auto _ : state) {
    Tensor y = fused ? linear_act(x, w, b, Activation::kSiLU)
                     : silu(add(matmul(x, w), b));
    y.backward(grad_out);
    x.zero_grad();
    w.zero_grad();
    b.zero_grad();
  }
  state.SetItemsProcessed(state.iterations() * kRows * h);
}
BENCHMARK(BM_LinearAct)->ArgsProduct({{16, 128}, {0, 1}});

// The elementwise binary kernel through its driver on one lane, out = a·b
// over n elements, in each operand form (kernels::Broadcast order: 0 a and
// b streamed, 1 a is one element, 2 b is one element) and compute dtype.
void BM_Binary(benchmark::State& state) {
  const auto form = state.range(0);
  const auto n = state.range(2);
  const int lanes = ThreadPool::instance().size();
  ThreadPool::instance().resize(1);
  kernels::ScopedComputeDtype scope(state.range(1) != 0
                                        ? kernels::ComputeDtype::kFloat32
                                        : kernels::ComputeDtype::kFloat64);
  Rng rng(9);
  const Tensor a = Tensor::uniform(Shape{n}, rng, 0.5, 2.0);
  const Tensor b = Tensor::uniform(Shape{n}, rng, 0.5, 2.0);
  Tensor out = Tensor::zeros(Shape{n});
  for (auto _ : state) {
    kernels::binary(kernels::BinaryOp::kMul, a.data(), b.data(), out.data(), n,
                    static_cast<kernels::Broadcast>(form));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  ThreadPool::instance().resize(lanes);
}
BENCHMARK(BM_Binary)
    ->ArgNames({"form", "fp32", "n"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {1 << 16}});

void BM_BroadcastMul(benchmark::State& state) {
  const auto rows = state.range(0);
  Rng rng(6);
  const Tensor a = Tensor::randn(Shape{rows, 64}, rng);
  const Tensor b = Tensor::randn(Shape{rows, 1}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_BroadcastMul)->Arg(1024)->Arg(16384);

void BM_CheckpointOverhead(benchmark::State& state) {
  // Forward+backward of a 4-layer MLP, with/without checkpointing; the
  // ratio is the recompute overhead backing Tab. II's +10% step time.
  const bool use_ckpt = state.range(0) != 0;
  Rng rng(7);
  std::vector<Tensor> weights;
  for (int i = 0; i < 4; ++i) {
    weights.push_back(
        Tensor::randn(Shape{96, 96}, rng, 0.1).set_requires_grad(true));
  }
  const Tensor x = Tensor::randn(Shape{64, 96}, rng);
  const SegmentFn body = [](const std::vector<Tensor>& in) {
    Tensor h = in[0];
    for (std::size_t i = 1; i < in.size(); ++i) h = silu(matmul(h, in[i]));
    return h;
  };
  for (auto _ : state) {
    std::vector<Tensor> inputs = {x, weights[0], weights[1], weights[2],
                                  weights[3]};
    Tensor out = use_ckpt ? checkpoint(body, inputs) : body(inputs);
    sum(square(out)).backward();
    for (auto& w : weights) w.zero_grad();
  }
}
BENCHMARK(BM_CheckpointOverhead)->Arg(0)->Arg(1);

}  // namespace

SGNN_GBENCH_MAIN("micro_tensor");
