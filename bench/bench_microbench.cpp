// google-benchmark microbenchmarks of the functional model's hot
// paths: the hardware split, dot-product steps in each mode, the exact
// accumulator, and the GEMM-based FFT. These measure the *simulation*
// library itself (host throughput of the bit-exact model), useful when
// sizing functional experiments.
#include <benchmark/benchmark.h>

#include <chrono>
#include <complex>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/fp128_mode.hpp"
#include "core/int_mode.hpp"
#include "core/multi_part.hpp"
#include "core/outer_product.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
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

// The flat per-dot gemm_fp32 loop at 32x32x32.
void BM_GemmFp32PerDot32(benchmark::State& state) {
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
BENCHMARK(BM_GemmFp32PerDot32);

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

/// Operands of an m x n x k probe. The timed draw is Rng::scaled_float
/// (the perfbench workloads' distribution), where an error below the
/// 48-bit register's rounding almost never reaches an FP32 output. So
/// the gate also runs a cancelling draw: A holds signed powers of two
/// (FP32C: purely real or purely imaginary), every odd K index repeats
/// the A before it against the negated B row before it, and C is 0 or
/// scaled by 2^-60. Every step's products then sum to exactly zero and
/// every output is its C, so an error in any product's low bits shows.
template <typename T>
struct ProbeOperands {
  std::vector<T> a, b, c0;

  ProbeOperands(int m, int n, int k, bool cancelling) {
    Rng rng(cancelling ? 15 : 14);
    const auto draw = [&rng] {
      if constexpr (std::is_same_v<T, float>) {
        return rng.scaled_float();
      } else {
        const float re = rng.scaled_float();
        return T(re, rng.scaled_float());
      }
    };
    const auto power_of_two = [&rng]() -> T {
      const float p = __builtin_ldexpf(rng.next_below(2) != 0 ? -1.0f : 1.0f,
                                       static_cast<int>(rng.next_below(9)) - 4);
      if constexpr (std::is_same_v<T, float>) {
        return p;
      } else {
        return rng.next_below(2) != 0 ? T(p, 0.0f) : T(0.0f, p);
      }
    };
    a.resize(static_cast<std::size_t>(m) * k);
    b.resize(static_cast<std::size_t>(k) * n);
    c0.resize(static_cast<std::size_t>(m) * n);
    for (auto& v : a) v = cancelling ? power_of_two() : draw();
    for (auto& v : b) v = draw();
    for (auto& v : c0) v = draw();
    if (!cancelling) return;
    for (int kk = 1; kk < k; kk += 2) {
      for (int i = 0; i < m; ++i) {
        a[static_cast<std::size_t>(i) * k + kk] =
            a[static_cast<std::size_t>(i) * k + kk - 1];
      }
      for (int j = 0; j < n; ++j) {
        b[static_cast<std::size_t>(kk) * n + j] =
            -b[static_cast<std::size_t>(kk - 1) * n + j];
      }
    }
    for (auto& v : c0) {
      v = rng.next_below(2) != 0 ? T{} : v * __builtin_ldexpf(1.0f, -60);
    }
  }
};

/// Gates and times one single-thread microkernel probe of an m x n x k
/// problem. `probe(operands)` packs the operands and returns `run(engine,
/// c)`, which makes the probe's engine calls into C; packing stays
/// outside the timed loop, so the time is the kernel's (the microkernel
/// route of gemm_fp32{,c}_prepacked on the host's widest variant).
/// Before timing, one run on each draw is compared bitwise with a
/// force_generic engine (the per-dot route); a mismatch skips the
/// benchmark with an error. The timed loop runs the scaled_float draw,
/// resetting C every iteration. Reports ns_per_mac: nanoseconds per real
/// or complex multiply-accumulate.
template <typename T, typename Probe>
void gate_and_time(benchmark::State& state, int m, int n, int k,
                   Probe probe) {
  const core::M3xuEngine engine;
  core::M3xuConfig generic_cfg;
  generic_cfg.force_generic = true;
  const core::M3xuEngine generic(generic_cfg);
  const auto matches_generic = [&](const ProbeOperands<T>& op,
                                   const auto& run) {
    std::vector<T> c = op.c0;
    std::vector<T> ref = op.c0;
    run(engine, c.data());
    run(generic, ref.data());
    return std::memcmp(c.data(), ref.data(), c.size() * sizeof(T)) == 0;
  };
  const ProbeOperands<T> cancelling(m, n, k, true);
  if (!matches_generic(cancelling, probe(cancelling))) {
    state.SkipWithError(
        "microkernel result differs from the per-dot route (cancelling "
        "operands)");
    return;
  }
  const ProbeOperands<T> op(m, n, k, false);
  const auto run = probe(op);
  if (!matches_generic(op, run)) {
    state.SkipWithError("microkernel result differs from the per-dot route");
    return;
  }
  std::vector<T> c = op.c0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::memcpy(c.data(), op.c0.data(), c.size() * sizeof(T));
    run(engine, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_mac"] =
      ns.count() / (static_cast<double>(m) * n * k *
                    static_cast<double>(state.iterations()));
}

/// One engine call over all of an m x n x k problem's rows, columns and
/// K, packed once.
template <typename T, typename PanelA, typename PanelB>
void run_prepacked_probe(
    benchmark::State& state, int m, int n, int k,
    void (*pack_a)(const T*, int, int, int, PanelA&),
    void (*pack_b)(const T*, int, int, int, PanelB&),
    void (core::M3xuEngine::*gemm)(const PanelA&, int, const PanelB&, int,
                                   int, int, T*, int) const) {
  gate_and_time<T>(state, m, n, k, [&](const ProbeOperands<T>& op) {
    PanelA pa;
    PanelB pb;
    pack_a(op.a.data(), k, m, k, pa);
    pack_b(op.b.data(), n, k, n, pb);
    return [=](const core::M3xuEngine& e, T* c) {
      (e.*gemm)(pa, 0, pb, 0, m, n, c, n);
    };
  });
}

void BM_MicrokernelFp32Prepacked(benchmark::State& state) {
  run_prepacked_probe(state, 128, 128, 512, core::pack_fp32_a,
                      core::pack_fp32_b,
                      &core::M3xuEngine::gemm_fp32_prepacked);
}
BENCHMARK(BM_MicrokernelFp32Prepacked)->Unit(benchmark::kMillisecond);

void BM_MicrokernelFp32cPrepacked(benchmark::State& state) {
  run_prepacked_probe(state, 128, 128, 96, core::pack_fp32c_a,
                      core::pack_fp32c_b,
                      &core::M3xuEngine::gemm_fp32c_prepacked);
}
BENCHMARK(BM_MicrokernelFp32cPrepacked)->Unit(benchmark::kMillisecond);

/// The FP32 probe's 128x128x512 problem in the tiled driver's own calls
/// at its default tile: per K-block of 32, one gemm_fp32_prepacked call
/// per 64x32 warp tile over that K-block's panels (one 128x128 block
/// tile, as each sgemm_large tile runs). Every K-block's panels are
/// packed before timing. Per-call and per-K-block costs that the
/// one-call probes above amortize over all of K show here.
void BM_MicrokernelFp32WarpTiles(benchmark::State& state) {
  constexpr int m = 128, n = 128, k = 512;
  const gemm::TileConfig tile;
  const int kblocks = k / tile.block_k;
  gate_and_time<float>(state, m, n, k, [&](const ProbeOperands<float>& op) {
    std::vector<core::PackedPanelFp32A> pa(static_cast<std::size_t>(kblocks));
    std::vector<core::PackedPanelFp32B> pb(static_cast<std::size_t>(kblocks));
    for (int q = 0; q < kblocks; ++q) {
      const int k0 = q * tile.block_k;
      core::pack_fp32_a(op.a.data() + k0, k, m, tile.block_k,
                        pa[static_cast<std::size_t>(q)]);
      core::pack_fp32_b(op.b.data() + static_cast<std::size_t>(k0) * n, n,
                        tile.block_k, n, pb[static_cast<std::size_t>(q)]);
    }
    return [=](const core::M3xuEngine& e, float* c) {
      for (int q = 0; q < kblocks; ++q) {
        for (int i = 0; i < m; i += tile.warp_m) {
          for (int j = 0; j < n; j += tile.warp_n) {
            e.gemm_fp32_prepacked(pa[static_cast<std::size_t>(q)], i,
                                  pb[static_cast<std::size_t>(q)], j,
                                  tile.warp_m, tile.warp_n,
                                  c + static_cast<std::size_t>(i) * n + j, n);
          }
        }
      }
    };
  });
}
BENCHMARK(BM_MicrokernelFp32WarpTiles)->Unit(benchmark::kMillisecond);

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
