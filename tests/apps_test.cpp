#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "apps/blackscholes.hpp"
#include "testseed.hpp"
#include "apps/hostdata.hpp"
#include "apps/ilp.hpp"
#include "apps/matrixmul.hpp"
#include "apps/mbench.hpp"
#include "apps/parboil.hpp"
#include "apps/reduction.hpp"
#include "apps/simple.hpp"
#include "apps/spmv.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"

namespace mcl::apps {
namespace {

using ocl::Buffer;
using ocl::CommandQueue;
using ocl::Context;
using ocl::CpuDevice;
using ocl::CpuDeviceConfig;
using ocl::ExecutorKind;
using ocl::Kernel;
using ocl::MemFlags;
using ocl::NDRange;
using ocl::Program;

Buffer make_in(Context& ctx, std::span<const float> data) {
  return ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                           data.size() * 4,
                           const_cast<float*>(data.data()));
}
Buffer make_out(Context& ctx, std::size_t n) {
  return ctx.create_buffer(MemFlags::ReadWrite, n * 4);
}

/// Runs every test on loop, simd and (barrier-free kernels) the simulated
/// GPU for functional agreement.
struct ExecConfig {
  const char* label;
  ExecutorKind executor;
};

class ExecutorParam : public ::testing::TestWithParam<ExecConfig> {
 protected:
  CpuDevice device{CpuDeviceConfig{.threads = 2, .executor = GetParam().executor}};
  Context ctx{device};
  CommandQueue queue{ctx};
};

INSTANTIATE_TEST_SUITE_P(Executors, ExecutorParam,
                         ::testing::Values(ExecConfig{"loop", ExecutorKind::Loop},
                                           ExecConfig{"simd", ExecutorKind::Simd},
                                           ExecConfig{"auto", ExecutorKind::Auto}),
                         [](const auto& info) { return info.param.label; });

// --- Square / VectorAdd --------------------------------------------------------

TEST_P(ExecutorParam, SquareMatchesReference) {
  for (std::size_t n : {100u, 1000u, 10000u}) {
    const FloatVec in = random_floats(n, mcl::test::seed(1), -4.0f, 4.0f);
    FloatVec expect(n);
    square_reference(in, expect);

    Buffer bin = make_in(ctx, in);
    Buffer bout = make_out(ctx, n);
    Kernel k = ctx.create_kernel(Program::builtin(), kSquareKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    (void)queue.enqueue_ndrange(k, NDRange{n});
    EXPECT_EQ(max_abs_diff({bout.as<float>(), n}, expect), 0.0) << n;
  }
}

TEST_P(ExecutorParam, SquareCoalescedAllFactors) {
  const std::size_t n = 10'000;
  const FloatVec in = random_floats(n, mcl::test::seed(2), -4.0f, 4.0f);
  FloatVec expect(n);
  square_reference(in, expect);
  for (unsigned per_item : {1u, 10u, 100u, 1000u}) {
    Buffer bin = make_in(ctx, in);
    Buffer bout = make_out(ctx, n);
    Kernel k = ctx.create_kernel(Program::builtin(), kSquareCoalescedKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    k.set_arg(2, per_item);
    (void)queue.enqueue_ndrange(k, NDRange{n / per_item});
    EXPECT_EQ(max_abs_diff({bout.as<float>(), n}, expect), 0.0)
        << "per_item=" << per_item;
  }
}

TEST_P(ExecutorParam, VectorAddMatchesReference) {
  const std::size_t n = 11'000;
  const FloatVec a = random_floats(n, mcl::test::seed(3)), b = random_floats(n, mcl::test::seed(4));
  FloatVec expect(n);
  vectoradd_reference(a, b, expect);

  Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
  Buffer bc = make_out(ctx, n);
  Kernel k = ctx.create_kernel(Program::builtin(), kVectorAddKernel);
  k.set_arg(0, ba);
  k.set_arg(1, bb);
  k.set_arg(2, bc);
  (void)queue.enqueue_ndrange(k, NDRange{n});
  EXPECT_EQ(max_abs_diff({bc.as<float>(), n}, expect), 0.0);
}

TEST_P(ExecutorParam, VectorAddCoalesced) {
  const std::size_t n = 8000;
  const FloatVec a = random_floats(n, mcl::test::seed(5)), b = random_floats(n, mcl::test::seed(6));
  FloatVec expect(n);
  vectoradd_reference(a, b, expect);
  for (unsigned per_item : {10u, 100u}) {
    Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
    Buffer bc = make_out(ctx, n);
    Kernel k = ctx.create_kernel(Program::builtin(), kVectorAddCoalescedKernel);
    k.set_arg(0, ba);
    k.set_arg(1, bb);
    k.set_arg(2, bc);
    k.set_arg(3, per_item);
    (void)queue.enqueue_ndrange(k, NDRange{n / per_item});
    EXPECT_EQ(max_abs_diff({bc.as<float>(), n}, expect), 0.0);
  }
}

// --- MatrixMul -------------------------------------------------------------------

struct MatShape {
  std::size_t m, n, k, tile;
  const char* label;
};

class MatrixMulParam : public ::testing::TestWithParam<MatShape> {};

TEST_P(MatrixMulParam, AllThreeKernelsMatchReference) {
  const auto [m, n, k, tile, label] = GetParam();
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);

  const FloatVec a = random_floats(m * k, mcl::test::seed(10), -1.0f, 1.0f);
  const FloatVec b = random_floats(k * n, mcl::test::seed(11), -1.0f, 1.0f);
  FloatVec expect(m * n);
  matmul_reference(a, b, expect, m, n, k);

  auto check = [&](const char* kernel_name, bool tiled) {
    Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
    Buffer bc = make_out(ctx, m * n);
    Kernel kr = ctx.create_kernel(Program::builtin(), kernel_name);
    kr.set_arg(0, ba);
    kr.set_arg(1, bb);
    kr.set_arg(2, bc);
    kr.set_arg(3, static_cast<unsigned>(m));
    kr.set_arg(4, static_cast<unsigned>(n));
    kr.set_arg(5, static_cast<unsigned>(k));
    if (tiled) {
      kr.set_arg_local(6, tile * tile * 4);
      kr.set_arg_local(7, tile * tile * 4);
      if (std::string(kernel_name) == kMatrixMulKernel) {
        kr.set_arg_local(8, tile * tile * 4);
      }
    }
    const NDRange local = tiled ? NDRange(tile, tile) : NDRange{};
    (void)queue.enqueue_ndrange(kr, NDRange(n, m), local);
    EXPECT_LT(max_rel_diff({bc.as<float>(), m * n}, expect, 1e-3), 5e-4)
        << kernel_name;
  };
  check(kMatrixMulNaiveKernel, false);
  check(kMatrixMulKernel, true);
  check(kMatrixMulFiberKernel, true);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixMulParam,
    ::testing::Values(MatShape{16, 16, 16, 4, "tiny"},
                      MatShape{32, 48, 16, 8, "rect"},
                      MatShape{64, 64, 32, 16, "square16"},
                      MatShape{8, 8, 8, 2, "tile2"},
                      MatShape{40, 24, 8, 8, "wide"},
                      MatShape{64, 64, 64, 32, "tile32"},
                      MatShape{32, 80, 48, 16, "rect16"}),
    [](const auto& info) { return info.param.label; });

/// Binds the tiled kernel's arguments for an m x n x k product at tile t.
Kernel tiled_matmul(Context& ctx, Buffer& a, Buffer& b, Buffer& c,
                    std::size_t m, std::size_t n, std::size_t k,
                    std::size_t t) {
  Kernel kr = ctx.create_kernel(Program::builtin(), kMatrixMulKernel);
  kr.set_arg(0, a);
  kr.set_arg(1, b);
  kr.set_arg(2, c);
  kr.set_arg(3, static_cast<unsigned>(m));
  kr.set_arg(4, static_cast<unsigned>(n));
  kr.set_arg(5, static_cast<unsigned>(k));
  for (std::size_t slot : {6u, 7u, 8u}) kr.set_arg_local(slot, t * t * 4);
  return kr;
}

// The row-vector body derives its global rows and columns from
// WorkGroupCtx::global_offset; items outside the offset sub-range must stay
// untouched. Tile 6 takes the W=1 body on every build, tile 4 on AVX builds;
// tiles 8 and 16 take the vector body.
TEST(MatrixMulTiled, HonoursGlobalOffset) {
  const std::size_t m = 48, n = 48, k = 48;
  const std::size_t off_x = 4, off_y = 8;
  const FloatVec a = random_floats(m * k, mcl::test::seed(12), -1.0f, 1.0f);
  const FloatVec b = random_floats(k * n, mcl::test::seed(13), -1.0f, 1.0f);
  FloatVec expect(m * n);
  matmul_reference(a, b, expect, m, n, k);
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  constexpr float kSentinel = -7.0f;
  for (std::size_t t : {4u, 6u, 8u, 16u}) {
    const std::size_t cols = (n - off_x) / t * t, rows = (m - off_y) / t * t;
    FloatVec init(m * n, kSentinel);
    Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
    Buffer bc = ctx.create_buffer(MemFlags::ReadWrite | MemFlags::CopyHostPtr,
                                  m * n * 4, init.data());
    Kernel kr = tiled_matmul(ctx, ba, bb, bc, m, n, k, t);
    (void)queue.enqueue_ndrange(kr, NDRange(cols, rows), NDRange(t, t),
                                NDRange(off_x, off_y));
    const float* c = bc.as<float>();
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        const bool inside = r >= off_y && r < off_y + rows && col >= off_x &&
                            col < off_x + cols;
        const float want = inside ? expect[r * n + col] : kSentinel;
        ASSERT_NEAR(c[r * n + col], want, 1e-4f)
            << "tile " << t << " at (" << r << ", " << col << ")";
      }
    }
  }
}

// The Checked executor brackets every local block with canaries and throws
// a SanitizerViolation on any finding, so a clean run proves the vector
// loads and stores stay inside each t*t local arena.
TEST(MatrixMulTiled, CheckedExecutorFindsNoLocalOverflow) {
  CpuDevice device(
      CpuDeviceConfig{.threads = 1, .executor = ExecutorKind::Checked});
  Context ctx(device);
  CommandQueue queue(ctx);
  const std::size_t m = 64, n = 96, k = 64;
  const FloatVec a = random_floats(m * k, mcl::test::seed(14), -1.0f, 1.0f);
  const FloatVec b = random_floats(k * n, mcl::test::seed(15), -1.0f, 1.0f);
  FloatVec expect(m * n);
  matmul_reference(a, b, expect, m, n, k);
  for (std::size_t t : {4u, 8u, 16u, 32u}) {
    Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
    Buffer bc = make_out(ctx, m * n);
    Kernel kr = tiled_matmul(ctx, ba, bb, bc, m, n, k, t);
    EXPECT_NO_THROW((void)queue.enqueue_ndrange(kr, NDRange(n, m),
                                                NDRange(t, t)))
        << "tile " << t;
    EXPECT_LT(max_rel_diff({bc.as<float>(), m * n}, expect, 1e-3), 5e-4)
        << "tile " << t;
  }
}

// Both Matrixmul bodies interleave several rows' dot products (naive: 8 rows
// per Simd call, tiled: 4 local rows per accumulate phase). Each item must
// still be one fused multiply-add chain over k in order, so the kernels
// must reproduce this loop exactly, not just within a tolerance.
float fma_step(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fmaf(a, b, acc);
#else
  return a * b + acc;  // the vector fmadd is a multiply then an add here
#endif
}

/// Launches `kr` over (cols, rows) at `offset` into a sentinel-filled m x n
/// C, then requires every item inside to equal the in-order chain exactly
/// and every element outside to keep the sentinel.
void expect_exact_matmul(CommandQueue& queue, Kernel& kr, Buffer& bc,
                         const FloatVec& a, const FloatVec& b, std::size_t m,
                         std::size_t n, std::size_t k, NDRange global,
                         NDRange local, NDRange offset) {
  constexpr float kSentinel = -7.0f;
  float* c = bc.as<float>();
  std::fill(c, c + m * n, kSentinel);
  (void)queue.enqueue_ndrange(kr, global, local, offset);
  const std::size_t x0 = offset.offset_component(0);
  const std::size_t y0 = offset.offset_component(1);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      float want = kSentinel;
      if (r >= y0 && r < y0 + global[1] && col >= x0 && col < x0 + global[0]) {
        want = 0.0f;
        for (std::size_t i = 0; i < k; ++i) {
          want = fma_step(a[r * k + i], b[i * n + col], want);
        }
      }
      ASSERT_EQ(c[r * n + col], want) << "local " << local[0] << "x"
                                      << local[1] << " at (" << r << ", "
                                      << col << ")";
    }
  }
}

// Locals with 8 rows run the R = 8 blocks, 3/5/6 rows only the R = 1 tail,
// 16 rows two blocks. The local widths are multiples of the SIMD width, so
// no item takes the scalar remainder.
TEST(MatrixMulNaive, SimdBodyIsTheInOrderFmaChain) {
  CpuDevice device(
      CpuDeviceConfig{.threads = 2, .executor = ExecutorKind::Simd});
  Context ctx(device);
  CommandQueue queue(ctx);
  const std::size_t m = 240, n = 48, k = 20;
  const FloatVec a = random_floats(m * k, mcl::test::seed(16), -1.0f, 1.0f);
  const FloatVec b = random_floats(k * n, mcl::test::seed(17), -1.0f, 1.0f);
  Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
  Buffer bc = make_out(ctx, m * n);
  Kernel kr = ctx.create_kernel(Program::builtin(), kMatrixMulNaiveKernel);
  kr.set_arg(0, ba);
  kr.set_arg(1, bb);
  kr.set_arg(2, bc);
  kr.set_arg(3, static_cast<unsigned>(m));
  kr.set_arg(4, static_cast<unsigned>(n));
  kr.set_arg(5, static_cast<unsigned>(k));
  for (const auto& [lx, ly] : {std::pair<std::size_t, std::size_t>{8, 8},
                               {8, 3}, {8, 5}, {16, 6}, {16, 16}}) {
    expect_exact_matmul(queue, kr, bc, a, b, m, n, k, NDRange(n, m),
                        NDRange(lx, ly), NDRange{});
  }
  for (const auto& [lx, ly] :
       {std::pair<std::size_t, std::size_t>{8, 8}, {16, 6}}) {
    expect_exact_matmul(queue, kr, bc, a, b, m, n, k, NDRange(32, 192),
                        NDRange(lx, ly), NDRange(16, 48));
  }
}

TEST(MatrixMulTiled, AccumulateIsTheInOrderFmaChain) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  const std::size_t m = 64, n = 96, k = 128;
  const FloatVec a = random_floats(m * k, mcl::test::seed(18), -1.0f, 1.0f);
  const FloatVec b = random_floats(k * n, mcl::test::seed(19), -1.0f, 1.0f);
  Buffer ba = make_in(ctx, a), bb = make_in(ctx, b);
  Buffer bc = make_out(ctx, m * n);
  for (std::size_t t : {8u, 16u, 32u}) {
    Kernel kr = tiled_matmul(ctx, ba, bb, bc, m, n, k, t);
    expect_exact_matmul(queue, kr, bc, a, b, m, n, k, NDRange(n, m),
                        NDRange(t, t), NDRange{});
    expect_exact_matmul(queue, kr, bc, a, b, m, n, k,
                        NDRange(n - 2 * t, m - t), NDRange(t, t),
                        NDRange(t, t / 2));
  }
}

// --- Reduction / Histogram / PrefixSum ----------------------------------------

TEST(Reduction, MatchesReferenceAcrossGroupSizes) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  for (std::size_t local : {4u, 16u, 48u, 256u}) {
    const std::size_t n = local * 40;
    const FloatVec in = random_floats(n, mcl::test::seed(20), 0.0f, 1.0f);
    Buffer bin = make_in(ctx, in);
    Buffer bpart = make_out(ctx, n / local);
    Kernel k = ctx.create_kernel(Program::builtin(), kReduceKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bpart);
    k.set_arg_local(2, local * 4);
    (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{local});
    double total = 0;
    for (std::size_t g = 0; g < n / local; ++g) total += bpart.as<float>()[g];
    EXPECT_NEAR(total, reduce_reference(in), n * 1e-5) << "local=" << local;
  }
}

TEST(Histogram, MatchesReference) {
  CpuDevice device(CpuDeviceConfig{.threads = 4});
  Context ctx(device);
  CommandQueue queue(ctx);
  const std::size_t n = 409'600 / 16;  // Table II shape, scaled
  UintVec in(n);
  core::Rng rng(mcl::test::seed(21));
  for (auto& v : in) v = static_cast<unsigned>(rng.next_below(256));
  std::vector<unsigned> expect(256);
  histogram_reference(in, expect);

  Buffer bin = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                 n * 4, in.data());
  Buffer bbins = ctx.create_buffer(MemFlags::ReadWrite, 256 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), kHistogramKernel);
  k.set_arg(0, bin);
  k.set_arg(1, bbins);
  k.set_arg_local(2, 256 * 4);
  (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{256});
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(bbins.as<unsigned>()[b], expect[b]) << "bin " << b;
  }
}

TEST(PrefixSum, SingleGroupScan) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  for (std::size_t n : {8u, 128u, 1024u}) {  // Table II: 1024, local 1024
    const FloatVec in = random_floats(n, mcl::test::seed(22), 0.0f, 2.0f);
    FloatVec expect(n);
    prefixsum_reference(in, expect);
    Buffer bin = make_in(ctx, in);
    Buffer bout = make_out(ctx, n);
    Kernel k = ctx.create_kernel(Program::builtin(), kPrefixSumKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    k.set_arg_local(2, n * 4);
    k.set_arg_local(3, n * 4);
    (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{n});
    EXPECT_LT(max_rel_diff({bout.as<float>(), n}, expect, 1e-3), 1e-4) << n;
  }
}

// --- BlackScholes / Binomial ------------------------------------------------------

TEST_P(ExecutorParam, BlackScholesMatchesReference) {
  const std::size_t w = 64, h = 20;
  const std::size_t n = w * h;
  const FloatVec s = random_floats(n, mcl::test::seed(30), 5.0f, 30.0f);
  const FloatVec x = random_floats(n, mcl::test::seed(31), 1.0f, 100.0f);
  const FloatVec t = random_floats(n, mcl::test::seed(32), 0.25f, 10.0f);
  const float r = 0.02f, v = 0.30f;
  FloatVec ecall(n), eput(n);
  blackscholes_reference(s, x, t, ecall, eput, r, v);

  Buffer bs = make_in(ctx, s), bx = make_in(ctx, x), bt = make_in(ctx, t);
  Buffer bc = make_out(ctx, n), bp = make_out(ctx, n);
  Kernel k = ctx.create_kernel(Program::builtin(), kBlackScholesKernel);
  k.set_arg(0, bs);
  k.set_arg(1, bx);
  k.set_arg(2, bt);
  k.set_arg(3, bc);
  k.set_arg(4, bp);
  k.set_arg(5, r);
  k.set_arg(6, v);
  (void)queue.enqueue_ndrange(k, NDRange(w, h), NDRange(16, 2));
  EXPECT_LT(max_abs_diff({bc.as<float>(), n}, ecall), 2e-4);
  EXPECT_LT(max_abs_diff({bp.as<float>(), n}, eput), 2e-4);
}

TEST(BlackScholes, PutCallParity) {
  const std::size_t n = 512;
  const FloatVec s = random_floats(n, mcl::test::seed(33), 10.0f, 20.0f);
  const FloatVec x = random_floats(n, mcl::test::seed(34), 10.0f, 20.0f);
  const FloatVec t = random_floats(n, mcl::test::seed(35), 0.5f, 2.0f);
  const float r = 0.05f, v = 0.2f;
  FloatVec call(n), put(n);
  blackscholes_reference(s, x, t, call, put, r, v);
  for (std::size_t i = 0; i < n; ++i) {
    // C - P = S - X e^{-rT}
    const float lhs = call[i] - put[i];
    const float rhs = s[i] - x[i] * std::exp(-r * t[i]);
    EXPECT_NEAR(lhs, rhs, 5e-4) << i;
  }
}

TEST(Binomial, ConvergesToBlackScholes) {
  // CRR converges to the analytic price as steps grow.
  const float s = 100.0f, x = 105.0f, t = 1.0f, r = 0.05f, v = 0.25f;
  FloatVec ss{s}, xs{x}, ts{t}, call(1), put(1);
  blackscholes_reference(ss, xs, ts, call, put, r, v);
  const float bs255 = binomial_reference(s, x, t, r, v, 255);
  EXPECT_NEAR(bs255, call[0], 0.05f);
  const float bs31 = binomial_reference(s, x, t, r, v, 31);
  EXPECT_GT(std::fabs(bs31 - call[0]) + 1e-4, std::fabs(bs255 - call[0]));
}

TEST(Binomial, KernelMatchesReference) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  const unsigned steps = 63;
  const std::size_t opts = 20;
  const FloatVec s = random_floats(opts, mcl::test::seed(40), 50.0f, 150.0f);
  const FloatVec x = random_floats(opts, mcl::test::seed(41), 50.0f, 150.0f);
  const FloatVec t = random_floats(opts, mcl::test::seed(42), 0.5f, 3.0f);
  const float r = 0.03f, v = 0.3f;

  Buffer bs = make_in(ctx, s), bx = make_in(ctx, x), bt = make_in(ctx, t);
  Buffer bout = make_out(ctx, opts);
  Kernel k = ctx.create_kernel(Program::builtin(), kBinomialKernel);
  k.set_arg(0, bs);
  k.set_arg(1, bx);
  k.set_arg(2, bt);
  k.set_arg(3, bout);
  k.set_arg(4, r);
  k.set_arg(5, v);
  k.set_arg(6, steps);
  k.set_arg_local(7, (steps + 1) * 4);
  (void)queue.enqueue_ndrange(k, NDRange{opts * steps}, NDRange{steps});
  for (std::size_t o = 0; o < opts; ++o) {
    const float expect = binomial_reference(s[o], x[o], t[o], r, v, steps);
    EXPECT_NEAR(bout.as<float>()[o], expect, 1e-2f * (1.0f + expect)) << o;
  }
}

// --- Parboil ---------------------------------------------------------------------

TEST_P(ExecutorParam, CpCenergyMatchesReference) {
  const std::size_t gx = 64, gy = 32, natoms = 50;
  const FloatVec atoms = random_floats(natoms * 4, mcl::test::seed(50), 0.5f, 10.0f);
  FloatVec expect(gx * gy);
  cp_cenergy_reference(atoms, expect, gx, gy, 0.1f, 1.5f);

  Buffer batoms = make_in(ctx, atoms);
  Buffer benergy = make_out(ctx, gx * gy);
  Kernel k = ctx.create_kernel(Program::builtin(), kCpCenergyKernel);
  k.set_arg(0, batoms);
  k.set_arg(1, benergy);
  k.set_arg(2, static_cast<unsigned>(natoms));
  k.set_arg(3, 0.1f);
  k.set_arg(4, 1.5f);
  // Sweep the Fig 2 coalescing factors; results must be identical.
  for (unsigned per : {1u, 2u, 4u}) {
    k.set_arg(5, per);
    (void)queue.enqueue_ndrange(k, NDRange(gx / per, gy), NDRange(16 / per, 8));
    EXPECT_LT(max_rel_diff({benergy.as<float>(), gx * gy}, expect), 1e-4)
        << "per_item=" << per;
  }
}

TEST_P(ExecutorParam, MriqKernelsMatchReference) {
  const std::size_t nx = 512, nk = 64;  // Table III shape, scaled
  const FloatVec phi_r = random_floats(nk, mcl::test::seed(60), -1.0f, 1.0f);
  const FloatVec phi_i = random_floats(nk, mcl::test::seed(61), -1.0f, 1.0f);
  const FloatVec x = random_floats(nx, mcl::test::seed(62), -0.5f, 0.5f);
  const FloatVec y = random_floats(nx, mcl::test::seed(63), -0.5f, 0.5f);
  const FloatVec z = random_floats(nx, mcl::test::seed(64), -0.5f, 0.5f);
  const FloatVec kx = random_floats(nk, mcl::test::seed(65), -1.0f, 1.0f);
  const FloatVec ky = random_floats(nk, mcl::test::seed(66), -1.0f, 1.0f);
  const FloatVec kz = random_floats(nk, mcl::test::seed(67), -1.0f, 1.0f);

  // computePhiMag
  FloatVec mag_expect(nk);
  mriq_phimag_reference(phi_r, phi_i, mag_expect);
  Buffer bpr = make_in(ctx, phi_r), bpi = make_in(ctx, phi_i);
  Buffer bmag = make_out(ctx, nk);
  Kernel km = ctx.create_kernel(Program::builtin(), kMriqPhiMagKernel);
  km.set_arg(0, bpr);
  km.set_arg(1, bpi);
  km.set_arg(2, bmag);
  km.set_arg(3, 1u);
  (void)queue.enqueue_ndrange(km, NDRange{nk}, NDRange{32});
  EXPECT_LT(max_rel_diff({bmag.as<float>(), nk}, mag_expect), 1e-5);

  // computeQ
  FloatVec qr_expect(nx), qi_expect(nx);
  mriq_computeq_reference(x, y, z, kx, ky, kz, mag_expect, qr_expect, qi_expect);
  Buffer bx = make_in(ctx, x), by = make_in(ctx, y), bz = make_in(ctx, z);
  Buffer bkx = make_in(ctx, kx), bky = make_in(ctx, ky), bkz = make_in(ctx, kz);
  Buffer bqr = make_out(ctx, nx), bqi = make_out(ctx, nx);
  Kernel kq = ctx.create_kernel(Program::builtin(), kMriqComputeQKernel);
  kq.set_arg(0, bx);
  kq.set_arg(1, by);
  kq.set_arg(2, bz);
  kq.set_arg(3, bkx);
  kq.set_arg(4, bky);
  kq.set_arg(5, bkz);
  kq.set_arg(6, bmag);
  kq.set_arg(7, bqr);
  kq.set_arg(8, bqi);
  kq.set_arg(9, static_cast<unsigned>(nk));
  for (unsigned per : {1u, 2u, 4u}) {
    kq.set_arg(10, per);
    (void)queue.enqueue_ndrange(kq, NDRange{nx / per}, NDRange{64});
    EXPECT_LT(max_rel_diff({bqr.as<float>(), nx}, qr_expect, 1e-2), 1e-3)
        << "per_item=" << per;
    EXPECT_LT(max_rel_diff({bqi.as<float>(), nx}, qi_expect, 1e-2), 1e-3)
        << "per_item=" << per;
  }
}

TEST_P(ExecutorParam, MrifhdKernelsMatchReference) {
  const std::size_t nx = 256, nk = 48;
  const FloatVec phi_r = random_floats(nk, mcl::test::seed(70), -1.0f, 1.0f);
  const FloatVec phi_i = random_floats(nk, mcl::test::seed(71), -1.0f, 1.0f);
  const FloatVec d_r = random_floats(nk, mcl::test::seed(72), -1.0f, 1.0f);
  const FloatVec d_i = random_floats(nk, mcl::test::seed(73), -1.0f, 1.0f);
  FloatVec rrho_expect(nk), irho_expect(nk);
  mrifhd_rhophi_reference(phi_r, phi_i, d_r, d_i, rrho_expect, irho_expect);

  Buffer bpr = make_in(ctx, phi_r), bpi = make_in(ctx, phi_i);
  Buffer bdr = make_in(ctx, d_r), bdi = make_in(ctx, d_i);
  Buffer brr = make_out(ctx, nk), bri = make_out(ctx, nk);
  Kernel kr = ctx.create_kernel(Program::builtin(), kMrifhdRhoPhiKernel);
  kr.set_arg(0, bpr);
  kr.set_arg(1, bpi);
  kr.set_arg(2, bdr);
  kr.set_arg(3, bdi);
  kr.set_arg(4, brr);
  kr.set_arg(5, bri);
  kr.set_arg(6, 1u);
  (void)queue.enqueue_ndrange(kr, NDRange{nk}, NDRange{16});
  EXPECT_LT(max_rel_diff({brr.as<float>(), nk}, rrho_expect, 1e-2), 1e-4);
  EXPECT_LT(max_rel_diff({bri.as<float>(), nk}, irho_expect, 1e-2), 1e-4);

  const FloatVec x = random_floats(nx, mcl::test::seed(74), -0.5f, 0.5f);
  const FloatVec y = random_floats(nx, mcl::test::seed(75), -0.5f, 0.5f);
  const FloatVec z = random_floats(nx, mcl::test::seed(76), -0.5f, 0.5f);
  const FloatVec kxv = random_floats(nk, mcl::test::seed(77), -1.0f, 1.0f);
  const FloatVec kyv = random_floats(nk, mcl::test::seed(78), -1.0f, 1.0f);
  const FloatVec kzv = random_floats(nk, mcl::test::seed(79), -1.0f, 1.0f);
  FloatVec rfh_expect(nx), ifh_expect(nx);
  mrifhd_fh_reference(x, y, z, kxv, kyv, kzv, rrho_expect, irho_expect,
                      rfh_expect, ifh_expect);

  Buffer bx = make_in(ctx, x), by = make_in(ctx, y), bz = make_in(ctx, z);
  Buffer bkx = make_in(ctx, kxv), bky = make_in(ctx, kyv), bkz = make_in(ctx, kzv);
  Buffer brfh = make_out(ctx, nx), bifh = make_out(ctx, nx);
  Kernel kf = ctx.create_kernel(Program::builtin(), kMrifhdFhKernel);
  kf.set_arg(0, bx);
  kf.set_arg(1, by);
  kf.set_arg(2, bz);
  kf.set_arg(3, bkx);
  kf.set_arg(4, bky);
  kf.set_arg(5, bkz);
  kf.set_arg(6, brr);
  kf.set_arg(7, bri);
  kf.set_arg(8, brfh);
  kf.set_arg(9, bifh);
  kf.set_arg(10, static_cast<unsigned>(nk));
  kf.set_arg(11, 1u);
  (void)queue.enqueue_ndrange(kf, NDRange{nx}, NDRange{256});
  EXPECT_LT(max_rel_diff({brfh.as<float>(), nx}, rfh_expect, 1e-2), 1e-3);
  EXPECT_LT(max_rel_diff({bifh.as<float>(), nx}, ifh_expect, 1e-2), 1e-3);
}

// --- ILP ---------------------------------------------------------------------------

TEST_P(ExecutorParam, IlpKernelsAllComputeSameResult) {
  const std::size_t n = 256;
  const unsigned iters = 10;
  const FloatVec in = random_floats(n, mcl::test::seed(80), 0.0f, 1.0f);

  for (int level : kIlpLevels) {
    Buffer bin = make_in(ctx, in);
    Buffer bout = make_out(ctx, n);
    Kernel k = ctx.create_kernel(Program::builtin(), ilp_kernel_name(level));
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    k.set_arg(2, iters);
    (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{64});
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(bout.as<float>()[i], ilp_reference(in[i], iters, level), 1e-4)
          << "level=" << level << " i=" << i;
    }
  }
}

TEST(Ilp, DifferentLevelsSameTotalWork) {
  // All levels perform identical flop counts by construction.
  for (int level : kIlpLevels) {
    EXPECT_EQ(ilp_flops_per_item(7), 2.0 * kIlpUnroll * 7);
    (void)level;
  }
  EXPECT_THROW((void)ilp_kernel_name(5), core::Error);
}

// --- MBench -------------------------------------------------------------------------

TEST(MBench, CatalogComplete) {
  const auto& all = all_mbenches();
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, "MBench" + std::to_string(i + 1));
    EXPECT_NE(all[i].loop_scalar, nullptr);
    EXPECT_NE(all[i].loop_simd, nullptr);
    EXPECT_GT(all[i].flops_per_elem, 0.0);
  }
}

class MBenchParam : public ::testing::TestWithParam<int> {};

TEST_P(MBenchParam, LoopSimdMatchesLoopScalar) {
  const MBenchInfo& mb = all_mbenches()[static_cast<std::size_t>(GetParam())];
  if (!mb.deterministic) GTEST_SKIP() << "schedule-dependent semantics";
  const std::size_t n = 1000;

  auto make_data = [&](FloatVec& a, FloatVec& b, FloatVec& c) {
    a = random_floats(3 * n + 1, mcl::test::seed(90), 0.25f, 1.75f);
    b = random_floats(n, mcl::test::seed(91), 0.25f, 1.75f);
    c = random_floats(2 * n, mcl::test::seed(92), 0.25f, 1.75f);
  };
  FloatVec a1, b1, c1, a2, b2, c2;
  make_data(a1, b1, c1);
  make_data(a2, b2, c2);

  MBenchData d1{a1.data(), b1.data(), c1.data(), 1.5f, n};
  MBenchData d2{a2.data(), b2.data(), c2.data(), 1.5f, n};
  mb.loop_scalar(d1, 0, n);
  mb.loop_simd(d2, 0, n);
  EXPECT_LT(max_rel_diff({a2.data(), a2.size()}, {a1.data(), a1.size()}), 1e-6)
      << mb.name;
  EXPECT_LT(max_rel_diff({c2.data(), c2.size()}, {c1.data(), c1.size()}), 1e-6)
      << mb.name;
}

TEST_P(MBenchParam, KernelMatchesLoopScalar) {
  const MBenchInfo& mb = all_mbenches()[static_cast<std::size_t>(GetParam())];
  if (!mb.deterministic) GTEST_SKIP() << "schedule-dependent semantics";
  const std::size_t n = 960;

  FloatVec a_ref = random_floats(3 * n + 1, mcl::test::seed(93), 0.25f, 1.75f);
  const FloatVec b = random_floats(n, mcl::test::seed(94), 0.25f, 1.75f);
  FloatVec c_ref = random_floats(2 * n, mcl::test::seed(95), 0.25f, 1.75f);
  FloatVec a_cl = a_ref, c_cl = c_ref;

  MBenchData dref{a_ref.data(), b.data(), c_ref.data(), 1.5f, n};
  mb.loop_scalar(dref, 0, n);

  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);
  Buffer ba = ctx.create_buffer(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                                a_cl.size() * 4, a_cl.data());
  Buffer bb = make_in(ctx, b);
  Buffer bc = ctx.create_buffer(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                                c_cl.size() * 4, c_cl.data());
  Kernel k = ctx.create_kernel(Program::builtin(), mb.kernel);
  k.set_arg(0, ba);
  k.set_arg(1, bb);
  k.set_arg(2, bc);
  k.set_arg(3, 1.5f);
  (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{64});

  EXPECT_LT(max_rel_diff({a_cl.data(), a_cl.size()},
                         {a_ref.data(), a_ref.size()}),
            1e-6)
      << mb.name;
  EXPECT_LT(max_rel_diff({c_cl.data(), c_cl.size()},
                         {c_ref.data(), c_ref.size()}),
            1e-6)
      << mb.name;
}

TEST(MBench, Race5RunsWithoutCrashing) {
  // MBench5's cross-item dependence makes results schedule-dependent (as in
  // real OpenCL); it must still execute safely under every executor.
  const MBenchInfo& mb = all_mbenches()[4];
  for (ExecutorKind ek : {ExecutorKind::Loop, ExecutorKind::Simd}) {
    CpuDevice device(CpuDeviceConfig{.threads = 2, .executor = ek});
    Context ctx(device);
    CommandQueue queue(ctx);
    const std::size_t n = 512;
    FloatVec a = random_floats(3 * n + 1, mcl::test::seed(96), 0.5f, 1.5f);
    const FloatVec b = random_floats(n, mcl::test::seed(97), 0.5f, 1.5f);
    FloatVec c(2 * n, 0.0f);
    Buffer ba = ctx.create_buffer(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                                  a.size() * 4, a.data());
    Buffer bb = make_in(ctx, b);
    Buffer bc = ctx.create_buffer(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                                  c.size() * 4, c.data());
    Kernel k = ctx.create_kernel(Program::builtin(), mb.kernel);
    k.set_arg(0, ba);
    k.set_arg(1, bb);
    k.set_arg(2, bc);
    k.set_arg(3, 1.5f);
    (void)queue.enqueue_ndrange(k, NDRange{n}, NDRange{64});
    for (std::size_t i = 0; i <= n; ++i) EXPECT_TRUE(std::isfinite(a[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(All, MBenchParam, ::testing::Range(0, 8),
                         [](const auto& info) {
                           return "MBench" + std::to_string(info.param + 1);
                         });

}  // namespace
}  // namespace mcl::apps

// --- SpMV (extension workload) ------------------------------------------------------

namespace mcl::apps {
namespace {

TEST(Spmv, MatrixGeneratorInvariants) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const CsrMatrix m = make_random_csr(200, 300, 8, seed);
    EXPECT_EQ(m.rows, 200u);
    EXPECT_EQ(m.row_ptr.size(), 201u);
    EXPECT_EQ(m.row_ptr.front(), 0u);
    EXPECT_EQ(m.row_ptr.back(), m.nnz());
    for (std::size_t r = 0; r < m.rows; ++r) {
      EXPECT_LE(m.row_ptr[r], m.row_ptr[r + 1]);       // monotone
      EXPECT_GT(m.row_ptr[r + 1], m.row_ptr[r]);       // >=1 entry per row
      for (unsigned j = m.row_ptr[r]; j + 1 < m.row_ptr[r + 1]; ++j) {
        EXPECT_LT(m.col_idx[j], m.col_idx[j + 1]);     // sorted, no dupes
      }
    }
    for (unsigned c : m.col_idx) EXPECT_LT(c, 300u);
  }
}

TEST(Spmv, GeneratorDeterministic) {
  const CsrMatrix a = make_random_csr(64, 64, 4, 5);
  const CsrMatrix b = make_random_csr(64, 64, 4, 5);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values, b.values);
}

TEST_P(ExecutorParam, SpmvMatchesReference) {
  for (std::size_t rows : {64u, 640u}) {
    const CsrMatrix m = make_random_csr(rows, rows, 6, 11);
    const FloatVec x = random_floats(rows, mcl::test::seed(12), -1.0f, 1.0f);
    FloatVec expect(rows);
    spmv_reference(m, x, expect);

    Buffer bval = make_in(ctx, m.values);
    Buffer bcol = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                    m.col_idx.size() * 4,
                                    const_cast<unsigned*>(m.col_idx.data()));
    Buffer brow = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                    m.row_ptr.size() * 4,
                                    const_cast<unsigned*>(m.row_ptr.data()));
    Buffer bx = make_in(ctx, x);
    Buffer by = make_out(ctx, rows);
    Kernel k = ctx.create_kernel(Program::builtin(), kSpmvKernel);
    k.set_arg(0, bval);
    k.set_arg(1, bcol);
    k.set_arg(2, brow);
    k.set_arg(3, bx);
    k.set_arg(4, by);
    (void)queue.enqueue_ndrange(k, NDRange{rows}, NDRange{32});
    EXPECT_LT(max_rel_diff({by.as<float>(), rows}, expect, 1e-3), 1e-5)
        << "rows=" << rows;
  }
}

TEST(Spmv, GpuCostModelUsesRealNnz) {
  // The cost callback reads row_ptr to derive nnz/row; verify via the
  // simulated device reporting a plausible (finite, positive) time.
  ocl::Platform platform;
  Context ctx(platform.gpu());
  CommandQueue q(ctx);
  const std::size_t rows = 256;
  const CsrMatrix m = make_random_csr(rows, rows, 8, 3);
  const FloatVec x = random_floats(rows, mcl::test::seed(4));

  Buffer bval = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                  m.values.size() * 4,
                                  const_cast<float*>(m.values.data()));
  Buffer bcol = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                  m.col_idx.size() * 4,
                                  const_cast<unsigned*>(m.col_idx.data()));
  Buffer brow = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                  m.row_ptr.size() * 4,
                                  const_cast<unsigned*>(m.row_ptr.data()));
  Buffer bx = ctx.create_buffer(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                                rows * 4, const_cast<float*>(x.data()));
  Buffer by = ctx.create_buffer(MemFlags::WriteOnly, rows * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), kSpmvKernel);
  k.set_arg(0, bval);
  k.set_arg(1, bcol);
  k.set_arg(2, brow);
  k.set_arg(3, bx);
  k.set_arg(4, by);
  const ocl::Event ev = q.enqueue_ndrange(k, NDRange{rows}, NDRange{64});
  EXPECT_TRUE(ev.launch.simulated);
  EXPECT_GT(ev.seconds, 0.0);

  FloatVec expect(rows);
  spmv_reference(m, x, expect);
  EXPECT_LT(max_rel_diff({by.as<float>(), rows}, expect, 1e-3), 1e-5);
}

}  // namespace
}  // namespace mcl::apps

// --- convolution (image workload) ----------------------------------------------------

#include "apps/convolution.hpp"
#include "ocl/image.hpp"

namespace mcl::apps {
namespace {

ocl::Image2D random_image(std::size_t w, std::size_t h, std::uint64_t seed) {
  ocl::Image2D img(w, h, 1);
  core::Rng rng(seed);
  for (std::size_t i = 0; i < img.float_count(); ++i) {
    img.data()[i] = rng.next_float(0.0f, 1.0f);
  }
  return img;
}

TEST(Convolution, KernelMatchesReference) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);

  for (unsigned k : {1u, 3u, 5u}) {
    const std::size_t w = 64, h = 48;
    ocl::Image2D in = random_image(w, h, mcl::test::seed(100 + k));
    ocl::Image2D out(w, h, 1);
    ocl::Image2D expect(w, h, 1);
    const std::vector<float> filter = box_filter(k);
    convolve_reference(in.view(), expect.view(), filter, k);

    Buffer bfilter(MemFlags::ReadOnly | MemFlags::CopyHostPtr,
                   filter.size() * 4, const_cast<float*>(filter.data()));
    Kernel kern = ctx.create_kernel(Program::builtin(), kConvolveKernel);
    kern.set_arg(0, in);
    kern.set_arg(1, out);
    kern.set_arg(2, bfilter);
    kern.set_arg(3, k);
    (void)queue.enqueue_ndrange(kern, NDRange(w, h), NDRange(16, 8));
    EXPECT_LT(max_abs_diff({out.data(), out.float_count()},
                           {expect.data(), expect.float_count()}),
              1e-6)
        << "k=" << k;
  }
}

TEST(Convolution, IdentityFilterIsANoop) {
  const std::size_t w = 32, h = 32;
  ocl::Image2D in = random_image(w, h, mcl::test::seed(7));
  ocl::Image2D out(w, h, 1);
  std::vector<float> identity(9, 0.0f);
  identity[4] = 1.0f;  // center tap
  convolve_reference(in.view(), out.view(), identity, 3);
  EXPECT_EQ(max_abs_diff({in.data(), in.float_count()},
                         {out.data(), out.float_count()}),
            0.0);
}

TEST(Convolution, BoxBlurPreservesConstantImage) {
  // Property: a normalized filter maps a constant image to itself
  // (clamp-to-edge makes border windows see the same constant).
  ocl::Image2D in(20, 20, 1);
  for (std::size_t i = 0; i < in.float_count(); ++i) in.data()[i] = 0.75f;
  ocl::Image2D out(20, 20, 1);
  convolve_reference(in.view(), out.view(), box_filter(5), 5);
  for (std::size_t i = 0; i < out.float_count(); ++i) {
    EXPECT_NEAR(out.data()[i], 0.75f, 1e-6);
  }
}

TEST(Convolution, GaussianSmoothsExtremes) {
  // A single bright pixel spreads; total energy is conserved away from the
  // borders (interior impulse).
  ocl::Image2D in(9, 9, 1);
  in.view().write(4, 4, 16.0f);
  ocl::Image2D out(9, 9, 1);
  convolve_reference(in.view(), out.view(), gaussian3(), 3);
  EXPECT_NEAR(out.view().read_clamped(4, 4), 4.0f, 1e-6);  // 16 * 4/16
  EXPECT_NEAR(out.view().read_clamped(3, 4), 2.0f, 1e-6);  // 16 * 2/16
  EXPECT_NEAR(out.view().read_clamped(3, 3), 1.0f, 1e-6);  // 16 * 1/16
  float total = 0.0f;
  for (std::size_t i = 0; i < out.float_count(); ++i) total += out.data()[i];
  EXPECT_NEAR(total, 16.0f, 1e-4);
}

TEST(Convolution, RunsOnSimulatedGpu) {
  ocl::Platform platform;
  Context ctx(platform.gpu());
  CommandQueue q(ctx);
  const std::size_t w = 32, h = 16;
  ocl::Image2D in = random_image(w, h, mcl::test::seed(9));
  ocl::Image2D out(w, h, 1);
  ocl::Image2D expect(w, h, 1);
  const std::vector<float> filter = gaussian3();
  convolve_reference(in.view(), expect.view(), filter, 3);

  Buffer bfilter(MemFlags::ReadOnly | MemFlags::CopyHostPtr, filter.size() * 4,
                 const_cast<float*>(filter.data()));
  Kernel kern = ctx.create_kernel(Program::builtin(), kConvolveKernel);
  kern.set_arg(0, in);
  kern.set_arg(1, out);
  kern.set_arg(2, bfilter);
  kern.set_arg(3, 3u);
  const ocl::Event ev = q.enqueue_ndrange(kern, NDRange(w, h), NDRange(16, 8));
  EXPECT_TRUE(ev.launch.simulated);
  EXPECT_LT(max_abs_diff({out.data(), out.float_count()},
                         {expect.data(), expect.float_count()}),
            1e-6);
}

}  // namespace
}  // namespace mcl::apps

// --- transpose -----------------------------------------------------------------------

#include "apps/transpose.hpp"

namespace mcl::apps {
namespace {

TEST(Transpose, BothKernelsMatchReference) {
  CpuDevice device(CpuDeviceConfig{.threads = 2});
  Context ctx(device);
  CommandQueue queue(ctx);

  struct Shape {
    std::size_t w, h, tile;
  };
  for (const Shape s : {Shape{32, 32, 8}, Shape{64, 16, 8}, Shape{48, 96, 16},
                        Shape{8, 8, 4}}) {
    const FloatVec in = random_floats(s.w * s.h, mcl::test::seed(55), -4.0f, 4.0f);
    FloatVec expect(s.w * s.h);
    transpose_reference(in, expect, s.w, s.h);

    for (const char* name : {kTransposeNaiveKernel, kTransposeTiledKernel}) {
      Buffer bin = make_in(ctx, in);
      Buffer bout = make_out(ctx, s.w * s.h);
      Kernel k = ctx.create_kernel(Program::builtin(), name);
      k.set_arg(0, bin);
      k.set_arg(1, bout);
      k.set_arg(2, static_cast<unsigned>(s.w));
      k.set_arg(3, static_cast<unsigned>(s.h));
      const bool tiled = std::string(name) == kTransposeTiledKernel;
      if (tiled) k.set_arg_local(4, s.tile * s.tile * 4);
      (void)queue.enqueue_ndrange(k, NDRange(s.w, s.h),
                                  tiled ? NDRange(s.tile, s.tile) : NDRange{});
      EXPECT_EQ(max_abs_diff({bout.as<float>(), s.w * s.h}, expect), 0.0)
          << name << " " << s.w << "x" << s.h;
    }
  }
}

TEST(Transpose, InvolutionProperty) {
  // transpose(transpose(A)) == A, via two tiled launches.
  CpuDevice device;
  Context ctx(device);
  CommandQueue queue(ctx);
  const std::size_t w = 64, h = 32, tile = 16;
  const FloatVec in = random_floats(w * h, mcl::test::seed(56));
  Buffer a = make_in(ctx, in);
  Buffer b = make_out(ctx, w * h);
  Buffer c = make_out(ctx, w * h);

  auto launch = [&](Buffer& src, Buffer& dst, std::size_t sw, std::size_t sh) {
    Kernel k = ctx.create_kernel(Program::builtin(), kTransposeTiledKernel);
    k.set_arg(0, src);
    k.set_arg(1, dst);
    k.set_arg(2, static_cast<unsigned>(sw));
    k.set_arg(3, static_cast<unsigned>(sh));
    k.set_arg_local(4, tile * tile * 4);
    (void)queue.enqueue_ndrange(k, NDRange(sw, sh), NDRange(tile, tile));
  };
  launch(a, b, w, h);   // b = A^T (h x w)
  launch(b, c, h, w);   // c = (A^T)^T = A
  EXPECT_EQ(max_abs_diff({c.as<float>(), w * h}, in), 0.0);
}

TEST(Transpose, GpuModelChargesNaiveMore) {
  // The simulated GPU must charge the uncoalesced naive kernel more time
  // than the tiled one — the canonical coalescing result.
  ocl::Platform platform;
  Context ctx(platform.gpu());
  CommandQueue q(ctx);
  const std::size_t w = 512, h = 512, tile = 16;
  Buffer bin(MemFlags::ReadWrite, w * h * 4);
  Buffer bout(MemFlags::ReadWrite, w * h * 4);

  Kernel naive = ctx.create_kernel(Program::builtin(), kTransposeNaiveKernel);
  naive.set_arg(0, bin);
  naive.set_arg(1, bout);
  naive.set_arg(2, static_cast<unsigned>(w));
  naive.set_arg(3, static_cast<unsigned>(h));
  const ocl::Event e1 = q.enqueue_ndrange(naive, NDRange(w, h),
                                          NDRange(tile, tile));

  Kernel tiled = ctx.create_kernel(Program::builtin(), kTransposeTiledKernel);
  tiled.set_arg(0, bin);
  tiled.set_arg(1, bout);
  tiled.set_arg(2, static_cast<unsigned>(w));
  tiled.set_arg(3, static_cast<unsigned>(h));
  tiled.set_arg_local(4, tile * tile * 4);
  const ocl::Event e2 = q.enqueue_ndrange(tiled, NDRange(w, h),
                                          NDRange(tile, tile));
  ASSERT_TRUE(e1.launch.simulated && e2.launch.simulated);
  EXPECT_GT(e1.seconds, 1.5 * e2.seconds);
}

}  // namespace
}  // namespace mcl::apps
