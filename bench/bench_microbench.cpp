// google-benchmark microbenchmarks of the functional model's hot
// paths: the hardware split, dot-product steps in each mode, the exact
// accumulator, and the GEMM-based FFT. These measure the *simulation*
// library itself (host throughput of the bit-exact model), useful when
// sizing functional experiments.
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "core/fp128_mode.hpp"
#include "core/int_mode.hpp"
#include "core/multi_part.hpp"
#include "core/outer_product.hpp"
#include "core/mxu.hpp"
#include "fft/gemm_fft.hpp"
#include "gemm/plan.hpp"
#include "fp/exact_accumulator.hpp"
#include "fp/split.hpp"

using namespace m3xu;

namespace {

void BM_SplitFp32Hw(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.scaled_float();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp::split_fp32_hw(values[i++ & 4095]));
  }
}
BENCHMARK(BM_SplitFp32Hw);

void BM_ExactAccumulatorProduct(benchmark::State& state) {
  Rng rng(2);
  const fp::Unpacked a = fp::unpack(rng.scaled_float());
  const fp::Unpacked b = fp::unpack(rng.scaled_float());
  fp::ExactAccumulator acc;
  for (auto _ : state) {
    acc.add_product(a, b);
  }
  benchmark::DoNotOptimize(acc.to_double());
}
BENCHMARK(BM_ExactAccumulatorProduct);

void BM_ExactAccumulatorRound(benchmark::State& state) {
  Rng rng(3);
  fp::ExactAccumulator acc;
  for (int i = 0; i < 64; ++i) acc.add_double(rng.scaled_float());
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.round_to_precision(48));
  }
}
BENCHMARK(BM_ExactAccumulatorRound);

void BM_MmaDotFp32(benchmark::State& state) {
  const core::M3xuEngine engine;
  Rng rng(4);
  std::vector<float> a(8), b(8);
  for (auto& v : a) v = rng.scaled_float();
  for (auto& v : b) v = rng.scaled_float();
  float acc = 0.0f;
  for (auto _ : state) {
    acc = engine.mma_dot_fp32({a.data(), a.size()}, {b.data(), b.size()},
                              acc);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MmaDotFp32);

void BM_MmaDotFp32c(benchmark::State& state) {
  const core::M3xuEngine engine;
  Rng rng(5);
  std::vector<std::complex<float>> a(4), b(4);
  for (auto& v : a) v = {rng.scaled_float(), rng.scaled_float()};
  for (auto& v : b) v = {rng.scaled_float(), rng.scaled_float()};
  std::complex<float> acc{};
  for (auto _ : state) {
    acc = engine.mma_dot_fp32c({a.data(), a.size()}, {b.data(), b.size()},
                               acc);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_MmaDotFp32c);

void BM_MmaDotPassthroughFp16(benchmark::State& state) {
  const core::M3xuEngine engine;
  Rng rng(6);
  std::vector<float> a(16), b(16);
  for (auto& v : a) v = rng.scaled_float();
  for (auto& v : b) v = rng.scaled_float();
  float acc = 0.0f;
  for (auto _ : state) {
    acc = engine.mma_dot_passthrough({a.data(), a.size()},
                                     {b.data(), b.size()}, acc, fp::kFp16);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_MmaDotPassthroughFp16);

void BM_MultiPartFp64Dot(benchmark::State& state) {
  core::MultiPartConfig cfg;
  cfg.format = fp::kFp64;
  cfg.part_bits = static_cast<int>(state.range(0));
  cfg.accum_prec = 53;
  const core::MultiPartEngine engine(cfg);
  Rng rng(7);
  std::vector<double> a(4), b(4);
  for (auto& v : a) v = rng.next_double();
  for (auto& v : b) v = rng.next_double();
  double acc = 0.0;
  for (auto _ : state) {
    acc = engine.dot({a.data(), a.size()}, {b.data(), b.size()}, acc);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_MultiPartFp64Dot)->Arg(12)->Arg(27);

void BM_GemmFftForward(benchmark::State& state) {
  const core::M3xuEngine engine;
  const int n = static_cast<int>(state.range(0));
  const fft::GemmFft plan(n, 16, &engine);
  Rng rng(8);
  std::vector<std::complex<float>> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
  for (auto _ : state) {
    plan.forward(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GemmFftForward)->Arg(256)->Arg(1024);

void BM_GemmFp32Engine64(benchmark::State& state) {
  const core::M3xuEngine engine;
  Rng rng(9);
  const int n = 32;
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  for (auto& v : a) v = rng.scaled_float();
  for (auto& v : b) v = rng.scaled_float();
  for (auto _ : state) {
    engine.gemm_fp32(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmFp32Engine64);

void BM_Int32MultistepDot(benchmark::State& state) {
  Rng rng(10);
  std::vector<std::int32_t> a(8), b(8);
  for (auto& v : a) v = static_cast<std::int32_t>(rng.next_u32() >> 4);
  for (auto& v : b) v = static_cast<std::int32_t>(rng.next_u32() >> 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::IntEngine::dot_s32_multistep(
        {a.data(), a.size()}, {b.data(), b.size()}));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Int32MultistepDot);

void BM_Fp128Dot(benchmark::State& state) {
  const core::Fp128Engine engine(static_cast<int>(state.range(0)));
  Rng rng(11);
  std::vector<__float128> a(4), b(4);
  for (auto& v : a) v = static_cast<__float128>(rng.next_double());
  for (auto& v : b) v = static_cast<__float128>(rng.next_double());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.dot({a.data(), a.size()}, {b.data(), b.size()}, 0));
  }
}
BENCHMARK(BM_Fp128Dot)->Arg(8)->Arg(28);

void BM_OuterProductTile(benchmark::State& state) {
  const core::OuterProductEngine engine;
  Rng rng(12);
  const int m = 16, n = 8, k = 8;
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f), d(m * n);
  for (auto& v : a) v = rng.scaled_float();
  for (auto& v : b) v = rng.scaled_float();
  for (auto _ : state) {
    engine.mma_fp32(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                    d.data(), n);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_OuterProductTile);

void BM_TiledSgemm(benchmark::State& state) {
  Rng rng(13);
  const int n = 64;
  gemm::Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_random(a, rng);
  fill_random(b, rng);
  c.fill(0.0f);
  gemm::PlanOptions options;
  options.tile = gemm::TileConfig{32, 32, 16, 16, 16};
  const gemm::GemmPlan plan =
      gemm::GemmPlan::compile(core::M3xuConfig{}, {n, n, n, false}, options);
  for (auto _ : state) {
    plan.execute(a, b, c);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TiledSgemm);

}  // namespace

BENCHMARK_MAIN();
