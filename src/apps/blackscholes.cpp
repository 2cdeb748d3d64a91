#include "apps/blackscholes.hpp"

#include <cmath>
#include <vector>

#include "ocl/kernel.hpp"
#include "simd/math.hpp"

namespace mcl::apps {

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkGroupCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;

/// Shared pricing body: the scalar reference, the scalar kernel and the SIMD
/// kernel all instantiate this template, so every path computes identically.
template <int W>
void bs_at(const float* s, const float* x, const float* t, float* call,
           float* put, float r, float v, std::size_t i) {
  using V = simd::vfloat<W>;
  const V vs = V::load(s + i);
  const V vx = V::load(x + i);
  const V vt = V::load(t + i);
  const V vr{r}, vv{v};

  const V sqrt_t = simd::sqrt(vt);
  const V d1 = (simd::vlog(vs / vx) +
                (vr + vv * vv * V{0.5f}) * vt) /
               (vv * sqrt_t);
  const V d2 = d1 - vv * sqrt_t;
  const V cnd1 = simd::normal_cdf(d1);
  const V cnd2 = simd::normal_cdf(d2);
  const V exp_rt = simd::vexp(V{0.0f} - vr * vt);
  const V c = vs * cnd1 - vx * exp_rt * cnd2;
  const V p = vx * exp_rt * (V{1.0f} - cnd2) - vs * (V{1.0f} - cnd1);
  c.store(call + i);
  p.store(put + i);
}

void bs_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const std::size_t i = c.global_id(1) * c.global_size(0) + c.global_id(0);
  bs_at<1>(a.buffer<const float>(0), a.buffer<const float>(1),
           a.buffer<const float>(2), a.buffer<float>(3), a.buffer<float>(4),
           a.scalar<float>(5), a.scalar<float>(6), i);
}
void bs_simd(const KernelArgs& a, const SimdItemCtx& c) {
  c.for_each_lane_group([&](std::size_t x, std::size_t y) {
    bs_at<kW>(a.buffer<const float>(0), a.buffer<const float>(1),
              a.buffer<const float>(2), a.buffer<float>(3), a.buffer<float>(4),
              a.scalar<float>(5), a.scalar<float>(6),
              y * c.global_size(0) + x);
  });
}
gpusim::KernelCost bs_cost(const KernelArgs&, const NDRange&, const NDRange&) {
  // log + exp + 2x CND polynomial + arithmetic: ~70 FP instructions, two
  // mostly independent chains (call/put legs).
  return {.fp_insts = 70, .mem_insts = 5, .other_insts = 5, .ilp = 2.0};
}

// --- binomial option (one option per workgroup, barrier per lattice level) --

void binomial_workgroup(const KernelArgs& args, const WorkGroupCtx& wg) {
  const float* s = args.buffer<const float>(0);
  const float* x = args.buffer<const float>(1);
  const float* t = args.buffer<const float>(2);
  float* out = args.buffer<float>(3);
  const float r = args.scalar<float>(4);
  const float v = args.scalar<float>(5);
  const unsigned steps = args.scalar<unsigned>(6);
  float* lattice = wg.local_mem<float>(7);

  const std::size_t opt = wg.group_id(0);
  const float dt = t[opt] / static_cast<float>(steps);
  const float u = std::exp(v * std::sqrt(dt));
  const float d = 1.0f / u;
  const float disc = std::exp(-r * dt);
  const float pu = (std::exp(r * dt) - d) / (u - d);
  const float pd = 1.0f - pu;

  // Terminal payoffs: node j holds S * u^j * d^(steps-j). Workitems stride
  // the lattice (local size may be < steps+1).
  wg.for_each_item([&](const WorkItemCtx& it) {
    for (std::size_t j = it.local_id(0); j <= steps; j += it.local_size(0)) {
      const float price =
          s[opt] * std::pow(u, static_cast<float>(j)) *
          std::pow(d, static_cast<float>(steps - j));
      lattice[j] = std::fmax(price - x[opt], 0.0f);
    }
  });
  // Backward induction; one barrier (phase) per level.
  for (unsigned level = steps; level > 0; --level) {
    wg.for_each_item([&](const WorkItemCtx& it) {
      for (std::size_t j = it.local_id(0); j < level; j += it.local_size(0)) {
        lattice[j] = disc * (pu * lattice[j + 1] + pd * lattice[j]);
      }
    });
  }
  wg.for_each_item([&](const WorkItemCtx& it) {
    if (it.local_id(0) == 0) out[opt] = lattice[0];
  });
}

gpusim::KernelCost binomial_cost(const KernelArgs& args, const NDRange&,
                                 const NDRange& local) {
  const auto steps = static_cast<double>(args.scalar<unsigned>(6));
  const double l = static_cast<double>(local.is_null() ? 255 : local[0]);
  // Per item: ~steps^2 / (2*l) lattice updates of 3 FP each; local-memory
  // traffic dominates "other".
  const double updates = steps * steps / (2.0 * l);
  return {.fp_insts = 3 * updates,
          .mem_insts = 2,
          .other_insts = 2 * updates,
          .flops_per_fp = 1.0,
          .ilp = 1.0};
}

const KernelRegistrar reg_bs{KernelDef{.name = kBlackScholesKernel,
                                       .scalar = &bs_scalar,
                                       .simd = &bs_simd,
                                       .gpu_cost = &bs_cost}};
const KernelRegistrar reg_binomial{KernelDef{.name = kBinomialKernel,
                                             .workgroup = &binomial_workgroup,
                                             .gpu_cost = &binomial_cost}};

}  // namespace

void blackscholes_reference(std::span<const float> s, std::span<const float> x,
                            std::span<const float> t, std::span<float> call,
                            std::span<float> put, float r, float v) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    bs_at<1>(s.data(), x.data(), t.data(), call.data(), put.data(), r, v, i);
  }
}

float binomial_reference(float s, float x, float t, float r, float v,
                         unsigned steps) {
  const float dt = t / static_cast<float>(steps);
  const float u = std::exp(v * std::sqrt(dt));
  const float d = 1.0f / u;
  const float disc = std::exp(-r * dt);
  const float pu = (std::exp(r * dt) - d) / (u - d);
  const float pd = 1.0f - pu;
  std::vector<float> lattice(steps + 1);
  for (unsigned j = 0; j <= steps; ++j) {
    const float price = s * std::pow(u, static_cast<float>(j)) *
                        std::pow(d, static_cast<float>(steps - j));
    lattice[j] = std::fmax(price - x, 0.0f);
  }
  for (unsigned level = steps; level > 0; --level) {
    for (unsigned j = 0; j < level; ++j) {
      lattice[j] = disc * (pu * lattice[j + 1] + pd * lattice[j]);
    }
  }
  return lattice[0];
}

}  // namespace mcl::apps
