#include "apps/ilp.hpp"

#include "core/error.hpp"
#include "ocl/kernel.hpp"
#include "simd/vec.hpp"

namespace mcl::apps {

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;

/// The measured body: kIlpUnroll FMAs per iteration over K chains. K is a
/// compile-time constant so each kernel compiles to a fixed dependence
/// structure, exactly like hand-written micro-benchmark variants.
template <int W, int K>
simd::vfloat<W> ilp_body(simd::vfloat<W> x, unsigned iters) {
  using V = simd::vfloat<W>;
  static_assert(kIlpUnroll % K == 0, "unroll must divide evenly over chains");
  std::array<V, K> acc;
  for (int k = 0; k < K; ++k) acc[k] = x + V{static_cast<float>(k) * 0.25f};
  // b close to 1 keeps values finite over many iterations.
  const V b{0.9999f};
  const V c{1e-6f};
  for (unsigned it = 0; it < iters; ++it) {
#pragma GCC unroll 24
    for (int u = 0; u < kIlpUnroll; ++u) {
      const int k = u % K;  // round-robin: K independent chains
      acc[k] = simd::fmadd(acc[k], b, c);
    }
  }
  V sum{0.0f};
  for (int k = 0; k < K; ++k) sum += acc[k];
  return sum;
}

template <int W, int K>
void ilp_at(const KernelArgs& args, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* in = args.buffer<const float>(0);
  float* out = args.buffer<float>(1);
  const auto iters = args.scalar<unsigned>(2);
  ilp_body<W, K>(V::load(in + i), iters).store(out + i);
}

template <int K>
void ilp_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  ilp_at<1, K>(a, c.global_id(0));
}
template <int K>
void ilp_simd(const KernelArgs& a, const SimdItemCtx& c) {
  c.for_each_lane_group([&](std::size_t x, std::size_t) { ilp_at<kW, K>(a, x); });
}
template <int K>
gpusim::KernelCost ilp_cost(const KernelArgs& a, const NDRange&,
                            const NDRange&) {
  const auto iters = static_cast<double>(a.scalar<unsigned>(2));
  return {.fp_insts = kIlpUnroll * iters,
          .mem_insts = 2,
          .other_insts = iters,
          .flops_per_fp = 2.0,
          .ilp = static_cast<double>(K)};
}

template <int K>
KernelDef make_def(const char* name) {
  return KernelDef{.name = name,
                   .scalar = &ilp_scalar<K>,
                   .simd = &ilp_simd<K>,
                   .gpu_cost = &ilp_cost<K>};
}

const KernelRegistrar reg1{make_def<1>("ilp1")};
const KernelRegistrar reg2{make_def<2>("ilp2")};
const KernelRegistrar reg3{make_def<3>("ilp3")};
const KernelRegistrar reg4{make_def<4>("ilp4")};
const KernelRegistrar reg6{make_def<6>("ilp6")};
const KernelRegistrar reg8{make_def<8>("ilp8")};

}  // namespace

const char* ilp_kernel_name(int k) {
  switch (k) {
    case 1: return "ilp1";
    case 2: return "ilp2";
    case 3: return "ilp3";
    case 4: return "ilp4";
    case 6: return "ilp6";
    case 8: return "ilp8";
    default:
      throw core::Error(core::Status::InvalidValue,
                        "no ILP kernel with " + std::to_string(k) + " chains");
  }
}

float ilp_reference(float x, unsigned iters, int k) {
  using V = simd::vfloat<1>;
  switch (k) {
    case 1: return ilp_body<1, 1>(V{x}, iters).v;
    case 2: return ilp_body<1, 2>(V{x}, iters).v;
    case 3: return ilp_body<1, 3>(V{x}, iters).v;
    case 4: return ilp_body<1, 4>(V{x}, iters).v;
    case 6: return ilp_body<1, 6>(V{x}, iters).v;
    case 8: return ilp_body<1, 8>(V{x}, iters).v;
    default:
      throw core::Error(core::Status::InvalidValue, "bad ILP level");
  }
}

}  // namespace mcl::apps
