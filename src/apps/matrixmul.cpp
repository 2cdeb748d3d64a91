#include "apps/matrixmul.hpp"

#include "ocl/kernel.hpp"
#include "simd/vec.hpp"

namespace mcl::apps {

void matmul_reference(std::span<const float> a, std::span<const float> b,
                      std::span<float> c, std::size_t m, std::size_t n,
                      std::size_t k) {
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < k; ++i) acc += a[r * k + i] * b[i * n + col];
      c[r * n + col] = acc;
    }
  }
}

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkGroupCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;

/// acc[r] = fmadd(a[r * lda + i], b[i * ldb], acc[r]) for i in [0, len), in
/// order: the a element broadcasts across lanes, the b row is unit stride.
/// The R rows' chains are independent and share each b load, so R of them
/// keep the FMA units busy where one chain waits out the FMA latency. Each
/// row's own summation order is that of one row at a time, so the result
/// is bitwise the same for every R.
template <int W, int R>
void fmadd_rows(simd::vfloat<W> (&acc)[R], const float* a, std::size_t lda,
                const float* b, std::size_t ldb, std::size_t len) {
  using V = simd::vfloat<W>;
  for (std::size_t i = 0; i < len; ++i) {
    const V bv = V::load(b + i * ldb);
    for (int r = 0; r < R; ++r) {
      acc[r] = simd::fmadd(V{a[r * lda + i]}, bv, acc[r]);
    }
  }
}

// --- naive ---------------------------------------------------------------

/// Items (col .. col + W - 1, row .. row + R - 1).
template <int W, int R>
void naive_rows(const KernelArgs& args, std::size_t col, std::size_t row) {
  const float* a = args.buffer<const float>(0);
  const float* b = args.buffer<const float>(1);
  float* c = args.buffer<float>(2);
  const auto n = args.scalar<unsigned>(4);
  const auto k = args.scalar<unsigned>(5);

  simd::vfloat<W> acc[R];  // zero
  fmadd_rows<W, R>(acc, a + row * k, k, b + col, n, k);
  for (int r = 0; r < R; ++r) acc[r].store(c + (row + r) * n + col);
}

void naive_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  naive_rows<1, 1>(a, c.global_id(0), c.global_id(1));
}
void naive_simd(const KernelArgs& a, const SimdItemCtx& c) {
  constexpr std::size_t kRows = 8;
  const std::size_t row0 = c.global_id(1);
  for (std::size_t g = 0; g < c.lane_groups(); ++g) {
    const std::size_t col = c.global_base() + g * kW;
    std::size_t r = 0;
    for (; r + kRows <= c.rows(); r += kRows) {
      naive_rows<kW, kRows>(a, col, row0 + r);
    }
    for (; r < c.rows(); ++r) naive_rows<kW, 1>(a, col, row0 + r);
  }
}
gpusim::KernelCost naive_cost(const KernelArgs& a, const NDRange&,
                              const NDRange&) {
  const auto k = static_cast<double>(a.scalar<unsigned>(5));
  return {.fp_insts = k,
          .mem_insts = 2 * k,
          .other_insts = k,
          .flops_per_fp = 2.0};
}

// --- tiled, workgroup (phase) form ----------------------------------------

/// Accumulate phase for local rows ly .. ly + R - 1 of the lane-group
/// column at local x = lx.
template <int W, int R>
void tiled_accumulate(const float* as, const float* bs, float* cacc,
                      std::size_t t, std::size_t ly, std::size_t lx) {
  using V = simd::vfloat<W>;
  V sum[R];
  for (int r = 0; r < R; ++r) sum[r] = V::load(cacc + (ly + r) * t + lx);
  fmadd_rows<W, R>(sum, as + ly * t, t, bs + lx, t, t);
  for (int r = 0; r < R; ++r) sum[r].store(cacc + (ly + r) * t + lx);
}

// Each phase walks the square T x T tile row by row, W consecutive items of
// a local row per vfloat<W> (T % W == 0). Lane L of the group at local x
// is item (x + L, y), and it accumulates in the order the scalar item
// would.
template <int W>
void tiled_rows(const KernelArgs& args, const WorkGroupCtx& wg) {
  using V = simd::vfloat<W>;
  const float* a = args.buffer<const float>(0);
  const float* b = args.buffer<const float>(1);
  float* c = args.buffer<float>(2);
  const auto n = args.scalar<unsigned>(4);
  const auto k = args.scalar<unsigned>(5);
  float* as = wg.local_mem<float>(6);
  float* bs = wg.local_mem<float>(7);
  float* cacc = wg.local_mem<float>(8);

  const std::size_t t = wg.local_size(0);  // square tile: local = (T, T)
  const std::size_t tiles = k / t;
  const std::size_t col0 = wg.global_offset(0) + wg.group_id(0) * t;
  const std::size_t row0 = wg.global_offset(1) + wg.group_id(1) * t;

  for (std::size_t ly = 0; ly < t; ++ly) {
    for (std::size_t lx = 0; lx < t; lx += W) V{0.0f}.store(cacc + ly * t + lx);
  }
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    // Load phase (implicit barrier follows).
    for (std::size_t ly = 0; ly < t; ++ly) {
      const float* arow = a + (row0 + ly) * k + tile * t;
      const float* brow = b + (tile * t + ly) * n + col0;
      for (std::size_t lx = 0; lx < t; lx += W) {
        V::load(arow + lx).store(as + ly * t + lx);
        V::load(brow + lx).store(bs + ly * t + lx);
      }
    }
    // Accumulate phase, kRows local rows of a column at a time.
    constexpr std::size_t kRows = 4;
    for (std::size_t lx = 0; lx < t; lx += W) {
      std::size_t ly = 0;
      for (; ly + kRows <= t; ly += kRows) {
        tiled_accumulate<W, kRows>(as, bs, cacc, t, ly, lx);
      }
      for (; ly < t; ++ly) tiled_accumulate<W, 1>(as, bs, cacc, t, ly, lx);
    }
  }
  for (std::size_t ly = 0; ly < t; ++ly) {
    for (std::size_t lx = 0; lx < t; lx += W) {
      V::load(cacc + ly * t + lx).store(c + (row0 + ly) * n + col0 + lx);
    }
  }
}

void tiled_workgroup(const KernelArgs& args, const WorkGroupCtx& wg) {
  if (wg.local_size(0) % kW == 0) {
    tiled_rows<kW>(args, wg);
  } else {
    tiled_rows<1>(args, wg);
  }
}

gpusim::KernelCost tiled_cost(const KernelArgs& a, const NDRange&,
                              const NDRange& local) {
  const auto k = static_cast<double>(a.scalar<unsigned>(5));
  const double t = static_cast<double>(local.is_null() ? 16 : local[0]);
  // Global loads drop by the tile factor; shared-memory traffic issues as
  // cheap "other" instructions.
  return {.fp_insts = k,
          .mem_insts = 2 * k / t,
          .other_insts = 3 * k,
          .flops_per_fp = 2.0};
}

// --- tiled, true-barrier (fiber) form --------------------------------------

void tiled_fiber_scalar(const KernelArgs& args, const WorkItemCtx& it) {
  const float* a = args.buffer<const float>(0);
  const float* b = args.buffer<const float>(1);
  float* c = args.buffer<float>(2);
  const auto n = args.scalar<unsigned>(4);
  const auto k = args.scalar<unsigned>(5);
  float* as = it.local_mem<float>(6);
  float* bs = it.local_mem<float>(7);

  const std::size_t t = it.local_size(0);
  const std::size_t lx = it.local_id(0);
  const std::size_t ly = it.local_id(1);
  float acc = 0.0f;
  for (std::size_t tile = 0; tile * t < k; ++tile) {
    as[ly * t + lx] = a[it.global_id(1) * k + tile * t + lx];
    bs[ly * t + lx] = b[(tile * t + ly) * n + it.global_id(0)];
    it.barrier();
    for (std::size_t i = 0; i < t; ++i) acc += as[ly * t + i] * bs[i * t + lx];
    it.barrier();
  }
  c[it.global_id(1) * n + it.global_id(0)] = acc;
}

const KernelRegistrar reg_naive{KernelDef{.name = kMatrixMulNaiveKernel,
                                          .scalar = &naive_scalar,
                                          .simd = &naive_simd,
                                          .gpu_cost = &naive_cost}};
const KernelRegistrar reg_tiled{KernelDef{.name = kMatrixMulKernel,
                                          .workgroup = &tiled_workgroup,
                                          .gpu_cost = &tiled_cost}};
const KernelRegistrar reg_fiber{KernelDef{.name = kMatrixMulFiberKernel,
                                          .scalar = &tiled_fiber_scalar,
                                          .gpu_cost = &tiled_cost,
                                          .needs_barrier = true}};

}  // namespace
}  // namespace mcl::apps
