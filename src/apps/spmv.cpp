#include "apps/spmv.hpp"

#include <algorithm>

#include "ocl/kernel.hpp"
#include "simd/vec.hpp"

namespace mcl::apps {

CsrMatrix make_random_csr(std::size_t rows, std::size_t cols,
                          std::size_t nnz_per_row, std::uint64_t seed) {
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.resize(rows + 1);
  core::Rng rng(seed);

  m.row_ptr[0] = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    // Banded sparsity around the (scaled) diagonal keeps column indices
    // valid for any rows/cols ratio while staying irregular.
    const std::size_t center = r * cols / std::max<std::size_t>(rows, 1);
    const std::size_t band = std::max<std::size_t>(4 * nnz_per_row, 16);
    const std::size_t lo = center > band / 2 ? center - band / 2 : 0;
    const std::size_t count =
        1 + rng.next_below(2 * nnz_per_row);  // 1 .. 2*nnz_per_row
    std::size_t prev = lo;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t col = std::min(cols - 1, prev + rng.next_below(4));
      m.col_idx.push_back(static_cast<unsigned>(col));
      m.values.push_back(rng.next_float(-1.0f, 1.0f));
      prev = col + 1;
      if (prev >= cols) break;
    }
    m.row_ptr[r + 1] = static_cast<unsigned>(m.values.size());
  }
  return m;
}

void spmv_reference(const CsrMatrix& a, std::span<const float> x,
                    std::span<float> y) {
  for (std::size_t r = 0; r < a.rows; ++r) {
    float acc = 0.0f;
    for (unsigned j = a.row_ptr[r]; j < a.row_ptr[r + 1]; ++j) {
      acc += a.values[j] * x[a.col_idx[j]];
    }
    y[r] = acc;
  }
}

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;

void spmv_row(const KernelArgs& a, std::size_t row) {
  const float* values = a.buffer<const float>(0);
  const unsigned* col_idx = a.buffer<const unsigned>(1);
  const unsigned* row_ptr = a.buffer<const unsigned>(2);
  const float* x = a.buffer<const float>(3);
  float* y = a.buffer<float>(4);

  float acc = 0.0f;
  for (unsigned j = row_ptr[row]; j < row_ptr[row + 1]; ++j) {
    acc += values[j] * x[col_idx[j]];
  }
  y[row] = acc;
}

void spmv_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  spmv_row(a, c.global_id(0));
}

/// SPMD-vectorized form: lanes own consecutive rows; row lengths differ, so
/// the inner product runs per lane (the gather-and-ragged-loop shape a real
/// SPMD vectorizer emits for CSR with divergent trip counts).
void spmv_simd(const KernelArgs& a, const SimdItemCtx& c) {
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    for (std::size_t l = 0; l < kW; ++l) spmv_row(a, x + l);
  });
}

gpusim::KernelCost spmv_cost(const KernelArgs& a, const NDRange& global,
                             const NDRange&) {
  const unsigned* row_ptr = a.buffer<const unsigned>(2);
  const double rows = static_cast<double>(global[0]);
  const double nnz = static_cast<double>(row_ptr[global[0]]);
  const double per_row = rows > 0 ? nnz / rows : 0.0;
  // Per row: nnz loads of values+cols (streamed) and x (gathered,
  // uncoalesced), one FMA per nnz.
  return {.fp_insts = per_row,
          .mem_insts = 3 * per_row + 1,
          .other_insts = per_row + 2,
          .flops_per_fp = 2.0,
          .coalesced = false};
}

const KernelRegistrar reg_spmv{KernelDef{.name = kSpmvKernel,
                                         .scalar = &spmv_scalar,
                                         .simd = &spmv_simd,
                                         .gpu_cost = &spmv_cost}};

}  // namespace
}  // namespace mcl::apps
