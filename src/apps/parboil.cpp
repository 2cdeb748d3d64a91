#include "apps/parboil.hpp"

#include "ocl/kernel.hpp"
#include "simd/math.hpp"

namespace mcl::apps {

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkItemCtx;

constexpr int kW = simd::kNativeFloatWidth;
constexpr float kTwoPi = 6.2831853071795864769f;

// --- CP: cenergy -------------------------------------------------------------

/// W consecutive x-grid-points per call; the atom loop broadcasts.
template <int W>
void cenergy_item(const KernelArgs& args, std::size_t ix, std::size_t iy,
                  std::size_t gx) {
  using V = simd::vfloat<W>;
  const float* atoms = args.buffer<const float>(0);
  float* energy = args.buffer<float>(1);
  const auto natoms = args.scalar<unsigned>(2);
  const float spacing = args.scalar<float>(3);
  const float z = args.scalar<float>(4);

  const V x = V::iota(static_cast<float>(ix)) * V{spacing};
  const V y{static_cast<float>(iy) * spacing};
  V en{0.0f};
  for (unsigned a = 0; a < natoms; ++a) {
    const V dx = x - V{atoms[4 * a + 0]};
    const V dy = y - V{atoms[4 * a + 1]};
    const V dz = V{z} - V{atoms[4 * a + 2]};
    const V r2 = dx * dx + dy * dy + dz * dz;
    en += V{atoms[4 * a + 3]} / simd::sqrt(r2);
  }
  en.store(energy + iy * gx + ix);
}

void cenergy_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const auto per = a.scalar<unsigned>(5);
  const std::size_t gx = c.global_size(0) * per;  // true grid width
  const std::size_t base = c.global_id(0) * per;
  for (unsigned j = 0; j < per; ++j) {
    cenergy_item<1>(a, base + j, c.global_id(1), gx);
  }
}
void cenergy_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per = a.scalar<unsigned>(5);
  const std::size_t gx = c.global_size(0) * per;
  c.for_each_lane_group([&](std::size_t x, std::size_t y) {
    for (std::size_t off = 0; off < per * kW; off += kW) {
      cenergy_item<kW>(a, x * per + off, y, gx);
    }
  });
}
gpusim::KernelCost cenergy_cost(const KernelArgs& a, const NDRange&,
                                const NDRange&) {
  const auto natoms = static_cast<double>(a.scalar<unsigned>(2));
  const auto per = static_cast<double>(a.scalar<unsigned>(5));
  // ~10 FP ops per atom (3 sub, 3 mul-add, sqrt, div); atom data is cached.
  return {.fp_insts = 10 * natoms * per,
          .mem_insts = per,
          .other_insts = 2 * natoms * per,
          .flops_per_fp = 1.0,
          .ilp = 2.0};
}

// Coalescing adapter for the 1D elementwise kernels: workitem i covers
// elements [i*per, (i+1)*per); the vector form walks each lane group's
// W*per elements at unit stride, exactly like the simple-app coalesced
// kernels.
template <int W, void (*At)(const KernelArgs&, std::size_t)>
void coalesced_1d(const KernelArgs& args, std::size_t item_base, unsigned per) {
  const std::size_t base = item_base * per;
  const std::size_t total = static_cast<std::size_t>(per) * W;
  for (std::size_t off = 0; off < total; off += W) At(args, base + off);
}

// --- MRI-Q --------------------------------------------------------------------

template <int W>
void phimag_at(const KernelArgs& args, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* pr = args.buffer<const float>(0);
  const float* pi = args.buffer<const float>(1);
  float* mag = args.buffer<float>(2);
  const V r = V::load(pr + i);
  const V im = V::load(pi + i);
  (r * r + im * im).store(mag + i);
}
void phimag_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  coalesced_1d<1, &phimag_at<1>>(a, c.global_id(0), a.scalar<unsigned>(3));
}
void phimag_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per = a.scalar<unsigned>(3);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    coalesced_1d<kW, &phimag_at<kW>>(a, x, per);
  });
}
gpusim::KernelCost phimag_cost(const KernelArgs& a, const NDRange&,
                               const NDRange&) {
  const auto per = static_cast<double>(a.scalar<unsigned>(3));
  return {.fp_insts = 3 * per,
          .mem_insts = 3 * per,
          .other_insts = per,
          .ilp = 2.0};
}

template <int W>
void computeq_at(const KernelArgs& args, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* x = args.buffer<const float>(0);
  const float* y = args.buffer<const float>(1);
  const float* z = args.buffer<const float>(2);
  const float* kx = args.buffer<const float>(3);
  const float* ky = args.buffer<const float>(4);
  const float* kz = args.buffer<const float>(5);
  const float* mag = args.buffer<const float>(6);
  float* qr = args.buffer<float>(7);
  float* qi = args.buffer<float>(8);
  const auto num_k = args.scalar<unsigned>(9);

  const V xi = V::load(x + i), yi = V::load(y + i), zi = V::load(z + i);
  V acc_r{0.0f}, acc_i{0.0f};
  for (unsigned k = 0; k < num_k; ++k) {
    const V arg = V{kTwoPi} * (V{kx[k]} * xi + V{ky[k]} * yi + V{kz[k]} * zi);
    V s, c;
    simd::vsincos(arg, s, c);
    acc_r = simd::fmadd(V{mag[k]}, c, acc_r);
    acc_i = simd::fmadd(V{mag[k]}, s, acc_i);
  }
  acc_r.store(qr + i);
  acc_i.store(qi + i);
}
void computeq_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  coalesced_1d<1, &computeq_at<1>>(a, c.global_id(0), a.scalar<unsigned>(10));
}
void computeq_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per = a.scalar<unsigned>(10);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    coalesced_1d<kW, &computeq_at<kW>>(a, x, per);
  });
}
gpusim::KernelCost computeq_cost(const KernelArgs& a, const NDRange&,
                                 const NDRange&) {
  const auto num_k = static_cast<double>(a.scalar<unsigned>(9));
  const auto per = static_cast<double>(a.scalar<unsigned>(10));
  return {.fp_insts = 30 * num_k * per,
          .mem_insts = 5 * per,
          .other_insts = 4 * num_k * per,
          .ilp = 2.0};
}

// --- MRI-FHD ------------------------------------------------------------------

template <int W>
void rhophi_at(const KernelArgs& args, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* pr = args.buffer<const float>(0);
  const float* pi = args.buffer<const float>(1);
  const float* dr = args.buffer<const float>(2);
  const float* di = args.buffer<const float>(3);
  float* rr = args.buffer<float>(4);
  float* ri = args.buffer<float>(5);
  const V vpr = V::load(pr + i), vpi = V::load(pi + i);
  const V vdr = V::load(dr + i), vdi = V::load(di + i);
  (vpr * vdr + vpi * vdi).store(rr + i);
  (vpr * vdi - vpi * vdr).store(ri + i);
}
void rhophi_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  coalesced_1d<1, &rhophi_at<1>>(a, c.global_id(0), a.scalar<unsigned>(6));
}
void rhophi_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per = a.scalar<unsigned>(6);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    coalesced_1d<kW, &rhophi_at<kW>>(a, x, per);
  });
}
gpusim::KernelCost rhophi_cost(const KernelArgs& a, const NDRange&,
                               const NDRange&) {
  const auto per = static_cast<double>(a.scalar<unsigned>(6));
  return {.fp_insts = 6 * per,
          .mem_insts = 6 * per,
          .other_insts = per,
          .ilp = 2.0};
}

template <int W>
void fh_at(const KernelArgs& args, std::size_t i) {
  using V = simd::vfloat<W>;
  const float* x = args.buffer<const float>(0);
  const float* y = args.buffer<const float>(1);
  const float* z = args.buffer<const float>(2);
  const float* kx = args.buffer<const float>(3);
  const float* ky = args.buffer<const float>(4);
  const float* kz = args.buffer<const float>(5);
  const float* r_rho = args.buffer<const float>(6);
  const float* i_rho = args.buffer<const float>(7);
  float* r_fh = args.buffer<float>(8);
  float* i_fh = args.buffer<float>(9);
  const auto num_k = args.scalar<unsigned>(10);

  const V xi = V::load(x + i), yi = V::load(y + i), zi = V::load(z + i);
  V acc_r{0.0f}, acc_i{0.0f};
  for (unsigned k = 0; k < num_k; ++k) {
    const V arg = V{kTwoPi} * (V{kx[k]} * xi + V{ky[k]} * yi + V{kz[k]} * zi);
    V s, c;
    simd::vsincos(arg, s, c);
    acc_r = acc_r + (V{r_rho[k]} * c - V{i_rho[k]} * s);
    acc_i = acc_i + (V{i_rho[k]} * c + V{r_rho[k]} * s);
  }
  acc_r.store(r_fh + i);
  acc_i.store(i_fh + i);
}
void fh_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  coalesced_1d<1, &fh_at<1>>(a, c.global_id(0), a.scalar<unsigned>(11));
}
void fh_simd(const KernelArgs& a, const SimdItemCtx& c) {
  const auto per = a.scalar<unsigned>(11);
  c.for_each_lane_group([&](std::size_t x, std::size_t) {
    coalesced_1d<kW, &fh_at<kW>>(a, x, per);
  });
}
gpusim::KernelCost fh_cost(const KernelArgs& a, const NDRange&, const NDRange&) {
  const auto num_k = static_cast<double>(a.scalar<unsigned>(10));
  const auto per = static_cast<double>(a.scalar<unsigned>(11));
  return {.fp_insts = 34 * num_k * per,
          .mem_insts = 5 * per,
          .other_insts = 4 * num_k * per,
          .ilp = 2.0};
}

const KernelRegistrar reg_cenergy{KernelDef{.name = kCpCenergyKernel,
                                            .scalar = &cenergy_scalar,
                                            .simd = &cenergy_simd,
                                            .gpu_cost = &cenergy_cost}};
const KernelRegistrar reg_phimag{KernelDef{.name = kMriqPhiMagKernel,
                                           .scalar = &phimag_scalar,
                                           .simd = &phimag_simd,
                                           .gpu_cost = &phimag_cost}};
const KernelRegistrar reg_computeq{KernelDef{.name = kMriqComputeQKernel,
                                             .scalar = &computeq_scalar,
                                             .simd = &computeq_simd,
                                             .gpu_cost = &computeq_cost}};
const KernelRegistrar reg_rhophi{KernelDef{.name = kMrifhdRhoPhiKernel,
                                           .scalar = &rhophi_scalar,
                                           .simd = &rhophi_simd,
                                           .gpu_cost = &rhophi_cost}};
const KernelRegistrar reg_fh{KernelDef{.name = kMrifhdFhKernel,
                                       .scalar = &fh_scalar,
                                       .simd = &fh_simd,
                                       .gpu_cost = &fh_cost}};

}  // namespace

// --- references (scalar instantiations of the same templates) ----------------

void cp_cenergy_reference(std::span<const float> atoms, std::span<float> energy,
                          std::size_t gx, std::size_t gy, float gridspacing,
                          float z) {
  for (std::size_t iy = 0; iy < gy; ++iy) {
    for (std::size_t ix = 0; ix < gx; ++ix) {
      float en = 0.0f;
      const float x = static_cast<float>(ix) * gridspacing;
      const float y = static_cast<float>(iy) * gridspacing;
      for (std::size_t a = 0; a * 4 < atoms.size(); ++a) {
        const float dx = x - atoms[4 * a + 0];
        const float dy = y - atoms[4 * a + 1];
        const float dz = z - atoms[4 * a + 2];
        en += atoms[4 * a + 3] /
              simd::sqrt(simd::vfloat<1>{dx * dx + dy * dy + dz * dz}).v;
      }
      energy[iy * gx + ix] = en;
    }
  }
}

void mriq_phimag_reference(std::span<const float> phi_r,
                           std::span<const float> phi_i,
                           std::span<float> phi_mag) {
  for (std::size_t i = 0; i < phi_r.size(); ++i) {
    phi_mag[i] = phi_r[i] * phi_r[i] + phi_i[i] * phi_i[i];
  }
}

void mriq_computeq_reference(std::span<const float> x, std::span<const float> y,
                             std::span<const float> z,
                             std::span<const float> kx,
                             std::span<const float> ky,
                             std::span<const float> kz,
                             std::span<const float> phi_mag,
                             std::span<float> qr, std::span<float> qi) {
  using V = simd::vfloat<1>;
  for (std::size_t i = 0; i < x.size(); ++i) {
    float ar = 0.0f, ai = 0.0f;
    for (std::size_t k = 0; k < kx.size(); ++k) {
      const float arg = kTwoPi * (kx[k] * x[i] + ky[k] * y[i] + kz[k] * z[i]);
      V s, c;
      simd::vsincos(V{arg}, s, c);
      ar += phi_mag[k] * c.v;
      ai += phi_mag[k] * s.v;
    }
    qr[i] = ar;
    qi[i] = ai;
  }
}

void mrifhd_rhophi_reference(std::span<const float> phi_r,
                             std::span<const float> phi_i,
                             std::span<const float> d_r,
                             std::span<const float> d_i,
                             std::span<float> r_rho, std::span<float> i_rho) {
  for (std::size_t i = 0; i < phi_r.size(); ++i) {
    r_rho[i] = phi_r[i] * d_r[i] + phi_i[i] * d_i[i];
    i_rho[i] = phi_r[i] * d_i[i] - phi_i[i] * d_r[i];
  }
}

void mrifhd_fh_reference(std::span<const float> x, std::span<const float> y,
                         std::span<const float> z, std::span<const float> kx,
                         std::span<const float> ky, std::span<const float> kz,
                         std::span<const float> r_rho,
                         std::span<const float> i_rho, std::span<float> r_fh,
                         std::span<float> i_fh) {
  using V = simd::vfloat<1>;
  for (std::size_t i = 0; i < x.size(); ++i) {
    float ar = 0.0f, ai = 0.0f;
    for (std::size_t k = 0; k < kx.size(); ++k) {
      const float arg = kTwoPi * (kx[k] * x[i] + ky[k] * y[i] + kz[k] * z[i]);
      V s, c;
      simd::vsincos(V{arg}, s, c);
      ar += r_rho[k] * c.v - i_rho[k] * s.v;
      ai += i_rho[k] * c.v + r_rho[k] * s.v;
    }
    r_fh[i] = ar;
    i_fh[i] = ai;
  }
}

}  // namespace mcl::apps
