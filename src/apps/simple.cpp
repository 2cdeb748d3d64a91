#include "apps/simple.hpp"

#include "ocl/kernel.hpp"
#include "simd/vec.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl::apps {

void square_reference(std::span<const float> in, std::span<float> out) {
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] * in[i];
}

void vectoradd_reference(std::span<const float> a, std::span<const float> b,
                         std::span<float> c) {
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
}

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;

// --- square ------------------------------------------------------------------

template <int W>
void square_at(const KernelArgs& a, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* in = a.buffer<const float>(0);
  float* out = a.buffer<float>(1);
  const V x = V::load(in + i);
  (x * x).store(out + i);
}

void square_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  square_at<1>(a, c.global_id(0));
}
void square_simd(const KernelArgs& a, const SimdItemCtx& c) {
  c.for_each_lane_group([&](std::size_t x, std::size_t) { square_at<kW>(a, x); });
}
gpusim::KernelCost square_cost(const KernelArgs&, const NDRange&,
                               const NDRange&) {
  return {.fp_insts = 1, .mem_insts = 2, .other_insts = 1};
}

// --- square_coalesced ---------------------------------------------------------

template <int W>
void square_chunk(const KernelArgs& a, std::size_t begin, std::size_t per_item) {
  using V = simd::vfloat<W>;
  const float* in = a.buffer<const float>(0);
  float* out = a.buffer<float>(1);
  // W lanes each own a contiguous chunk would gather; instead lanes cover
  // consecutive elements and the loop strides by W — same totals, unit
  // stride (what the implicit vectorizer emits for a coalesced body).
  const std::size_t total = per_item * static_cast<std::size_t>(W);
  for (std::size_t off = 0; off < total; off += W) {
    const V x = V::load(in + begin + off);
    (x * x).store(out + begin + off);
  }
}

void square_coalesced_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const auto per_item = a.scalar<unsigned>(2);
  square_chunk<1>(a, c.global_id(0) * per_item, per_item);
}
void square_coalesced_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per_item = a.scalar<unsigned>(2);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    square_chunk<kW>(a, x * per_item, per_item);
  });
}
gpusim::KernelCost square_coalesced_cost(const KernelArgs& a, const NDRange&,
                                         const NDRange&) {
  const auto per_item = static_cast<double>(a.scalar<unsigned>(2));
  return {.fp_insts = per_item,
          .mem_insts = 2 * per_item,
          .other_insts = 2 * per_item,
          .ilp = 2.0};
}

// --- vectoradd -----------------------------------------------------------------

template <int W>
void vadd_at(const KernelArgs& a, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* x = a.buffer<const float>(0);
  const float* y = a.buffer<const float>(1);
  float* z = a.buffer<float>(2);
  (V::load(x + i) + V::load(y + i)).store(z + i);
}

void vadd_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  vadd_at<1>(a, c.global_id(0));
}
void vadd_simd(const KernelArgs& a, const SimdItemCtx& c) {
  c.for_each_lane_group([&](std::size_t x, std::size_t) { vadd_at<kW>(a, x); });
}
gpusim::KernelCost vadd_cost(const KernelArgs&, const NDRange&, const NDRange&) {
  return {.fp_insts = 1, .mem_insts = 3, .other_insts = 1};
}

// --- vectoradd_coalesced --------------------------------------------------------

template <int W>
void vadd_chunk(const KernelArgs& a, std::size_t begin, std::size_t per_item) {
  using V = simd::vfloat<W>;
  const float* x = a.buffer<const float>(0);
  const float* y = a.buffer<const float>(1);
  float* z = a.buffer<float>(2);
  const std::size_t total = per_item * static_cast<std::size_t>(W);
  for (std::size_t off = 0; off < total; off += W) {
    (V::load(x + begin + off) + V::load(y + begin + off)).store(z + begin + off);
  }
}

void vadd_coalesced_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const auto per_item = a.scalar<unsigned>(3);
  vadd_chunk<1>(a, c.global_id(0) * per_item, per_item);
}
void vadd_coalesced_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per_item = a.scalar<unsigned>(3);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    vadd_chunk<kW>(a, x * per_item, per_item);
  });
}
gpusim::KernelCost vadd_coalesced_cost(const KernelArgs& a, const NDRange&,
                                       const NDRange&) {
  const auto per_item = static_cast<double>(a.scalar<unsigned>(3));
  return {.fp_insts = per_item,
          .mem_insts = 3 * per_item,
          .other_insts = 2 * per_item,
          .ilp = 2.0};
}

const KernelRegistrar reg_square{KernelDef{.name = kSquareKernel,
                                           .scalar = &square_scalar,
                                           .simd = &square_simd,
                                           .gpu_cost = &square_cost}};
const KernelRegistrar reg_square_coalesced{
    KernelDef{.name = kSquareCoalescedKernel,
              .scalar = &square_coalesced_scalar,
              .simd = &square_coalesced_simd,
              .gpu_cost = &square_coalesced_cost}};
const KernelRegistrar reg_vadd{KernelDef{.name = kVectorAddKernel,
                                         .scalar = &vadd_scalar,
                                         .simd = &vadd_simd,
                                         .gpu_cost = &vadd_cost}};
const KernelRegistrar reg_vadd_coalesced{
    KernelDef{.name = kVectorAddCoalescedKernel,
              .scalar = &vadd_coalesced_scalar,
              .simd = &vadd_coalesced_simd,
              .gpu_cost = &vadd_coalesced_cost}};

// Sanitizer descriptors. Extent 0 = launch-sized (the Checked executor takes
// it from the bound buffer); trip 0 = any global size. The coalesced
// variants index through a runtime per_item scalar, which the affine IR
// cannot express, so they carry no descriptor.
veclegal::KernelIr square_ir() {
  veclegal::KernelIr ir;
  ir.body.name = "square";
  ir.body.stmts.push_back(
      veclegal::store(veclegal::ref(1), {veclegal::ref(0), veclegal::ref(0)},
                      "out[i] = in[i] * in[i]"));
  ir.arrays = {
      veclegal::ArrayInfo{.array = 0, .arg_index = 0, .read_only = true},
      veclegal::ArrayInfo{.array = 1, .arg_index = 1},
  };
  return ir;
}
veclegal::KernelIr vadd_ir() {
  veclegal::KernelIr ir;
  ir.body.name = "vectoradd";
  ir.body.stmts.push_back(
      veclegal::store(veclegal::ref(2), {veclegal::ref(0), veclegal::ref(1)},
                      "c[i] = a[i] + b[i]"));
  ir.arrays = {
      veclegal::ArrayInfo{.array = 0, .arg_index = 0, .read_only = true},
      veclegal::ArrayInfo{.array = 1, .arg_index = 1, .read_only = true},
      veclegal::ArrayInfo{.array = 2, .arg_index = 2},
  };
  return ir;
}
const veclegal::KernelIrRegistrar ir_reg_square{kSquareKernel, square_ir()};
const veclegal::KernelIrRegistrar ir_reg_vadd{kVectorAddKernel, vadd_ir()};

}  // namespace
}  // namespace mcl::apps
