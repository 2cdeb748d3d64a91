#include "apps/mbench.hpp"

#include "ocl/kernel.hpp"
#include "simd/vec.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl::apps {

namespace {

using ocl::KernelArgs;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::NDRange;
using ocl::SimdItemCtx;
using ocl::WorkItemCtx;
using veclegal::assign_temp;
using veclegal::LoopBody;
using veclegal::ref;
using veclegal::store;

constexpr int kW = simd::kNativeFloatWidth;

// ---------------------------------------------------------------------------
// Element bodies, templated over width. For strided/gather benches the
// vector form does per-lane addressing, as a real vectorizer would emit.
// ---------------------------------------------------------------------------

template <int W>
void mb1_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  (V::load(d.a + i) + V::load(d.b + i)).store(d.c + i);
}

template <int W>
void mb2_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  const V b = V::load(d.b + i);
  V a = V::load(d.a + i);
  a = a * b;  // six dependent multiplies through memory location a[i]
  a = a * b;
  a = a * b;
  a = a * b;
  a = a * b;
  a = a * b;
  a.store(d.a + i);
}

template <int W>
void mb3_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  const V r = V::load(d.a + i) + V::load(d.b + i);
  if constexpr (W == 1) {
    d.c[2 * i] = r.v;
  } else {
    for (int l = 0; l < W; ++l) d.c[2 * (i + l)] = r.lane(l);  // scatter
  }
}

template <int W>
void mb4_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  const V a = V::load(d.a + i);
  const V b = V::load(d.b + i);
  const V t0 = a * b;
  const V t1 = t0 * b + a;
  const V t2 = t1 * t1 + b;
  const V t3 = t2 * a + t1;
  t3.store(d.c + i);
}

template <int W>
void mb5_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  // Loop-carried: a[i+1] = a[i] * b[i]. Vector form reads a whole lane group
  // before writing (vector semantics — the defined behavior of the SPMD
  // model, where item order is unspecified).
  (V::load(d.a + i) * V::load(d.b + i)).store(d.a + i + 1);
}

template <int W>
void mb6_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  V ga;
  if constexpr (W == 1) {
    ga = V{d.a[3 * i]};
  } else {
    alignas(64) float tmp[W];
    for (int l = 0; l < W; ++l) tmp[l] = d.a[3 * (i + l)];  // gather
    ga = V::load_aligned(tmp);
  }
  simd::fmadd(V{d.alpha}, ga, V::load(d.b + i)).store(d.c + i);
}

template <int W>
void mb7_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  const V a = V::load(d.a + i);
  const V b = V::load(d.b + i);
  if constexpr (W == 1) {
    d.c[i] = a.v > 0.5f ? a.v * a.v : b.v;  // the branchy scalar form
  } else {
    simd::select(simd::cmp_gt(a, V{0.5f}), a * a, b).store(d.c + i);
  }
}

template <int W>
void mb8_at(const MBenchData& d, std::size_t i) {
  using V = simd::vfloat<W>;
  simd::fmadd(V{d.alpha}, V::load(d.a + i), V::load(d.c + i)).store(d.c + i);
}

// ---------------------------------------------------------------------------
// Host loop wrappers (OpenMP-model codegen): scalar always exists; the simd
// one strides by W with a scalar tail.
// ---------------------------------------------------------------------------

// The modeled loop compiler *refused* to vectorize bodies run through this
// wrapper, so the real compiler must not re-vectorize them behind its back
// (GCC would happily vectorize most MBench bodies; the 2013-era fragility
// being modeled is the whole point of Fig 10).
template <void (*ScalarAt)(const MBenchData&, std::size_t)>
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
void loop_scalar_impl(const MBenchData& d, std::size_t b, std::size_t e) {
  for (std::size_t i = b; i < e; ++i) ScalarAt(d, i);
}

template <void (*ScalarAt)(const MBenchData&, std::size_t),
          void (*VecAt)(const MBenchData&, std::size_t)>
void loop_simd_impl(const MBenchData& d, std::size_t b, std::size_t e) {
  std::size_t i = b;
  if (e > b + static_cast<std::size_t>(kW)) {
    for (; i + kW <= e; i += kW) VecAt(d, i);
  }
  for (; i < e; ++i) ScalarAt(d, i);
}

// ---------------------------------------------------------------------------
// MiniCL kernels: args 0=a, 1=b, 2=c, 3=alpha.
// ---------------------------------------------------------------------------

MBenchData data_from_args(const KernelArgs& args) {
  MBenchData d;
  d.a = args.buffer<float>(0);
  d.b = args.buffer<const float>(1);
  d.c = args.buffer<float>(2);
  d.alpha = args.scalar<float>(3);
  return d;
}

template <void (*At)(const MBenchData&, std::size_t)>
void kernel_scalar(const KernelArgs& args, const WorkItemCtx& c) {
  At(data_from_args(args), c.global_id(0));
}
template <void (*At)(const MBenchData&, std::size_t)>
void kernel_simd(const KernelArgs& args, const SimdItemCtx& c) {
  const MBenchData d = data_from_args(args);
  c.for_each_lane_group([&](std::size_t x, std::size_t) { At(d, x); });
}

gpusim::KernelCost mbench_cost(const KernelArgs&, const NDRange&,
                               const NDRange&) {
  return {.fp_insts = 4, .mem_insts = 3, .other_insts = 1};
}

template <void (*ScalarAt)(const MBenchData&, std::size_t),
          void (*VecAt)(const MBenchData&, std::size_t)>
KernelDef make_kernel(const char* name) {
  return KernelDef{.name = name,
                   .scalar = &kernel_scalar<ScalarAt>,
                   .simd = &kernel_simd<VecAt>,
                   .gpu_cost = &mbench_cost};
}

const KernelRegistrar r1{make_kernel<&mb1_at<1>, &mb1_at<kW>>("mbench1")};
const KernelRegistrar r2{make_kernel<&mb2_at<1>, &mb2_at<kW>>("mbench2")};
const KernelRegistrar r3{make_kernel<&mb3_at<1>, &mb3_at<kW>>("mbench3")};
const KernelRegistrar r4{make_kernel<&mb4_at<1>, &mb4_at<kW>>("mbench4")};
const KernelRegistrar r5{make_kernel<&mb5_at<1>, &mb5_at<kW>>("mbench5")};
const KernelRegistrar r6{make_kernel<&mb6_at<1>, &mb6_at<kW>>("mbench6")};
const KernelRegistrar r7{make_kernel<&mb7_at<1>, &mb7_at<kW>>("mbench7")};
const KernelRegistrar r8{make_kernel<&mb8_at<1>, &mb8_at<kW>>("mbench8")};

// ---------------------------------------------------------------------------
// IR declarations (arrays: 0=a, 1=b, 2=c).
// ---------------------------------------------------------------------------

constexpr long long kNominalTrip = 1024;

LoopBody ir_mb1() {
  LoopBody l{.name = "MBench1", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(store(ref(2), {ref(0), ref(1)}, "c[i] = a[i] + b[i]"));
  return l;
}
LoopBody ir_mb2() {
  LoopBody l{.name = "MBench2", .stmts = {}, .trip_count = kNominalTrip};
  for (int rep = 0; rep < 6; ++rep) {
    l.stmts.push_back(store(ref(0), {ref(0), ref(1)}, "a[i] = a[i] * b[i]"));
  }
  return l;
}
LoopBody ir_mb3() {
  LoopBody l{.name = "MBench3", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(store(ref(2, 2), {ref(0), ref(1)}, "c[2i] = a[i] + b[i]"));
  return l;
}
LoopBody ir_mb4() {
  LoopBody l{.name = "MBench4", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(assign_temp(0, {ref(0), ref(1)}, {}, "t0 = a[i] * b[i]"));
  l.stmts.push_back(
      assign_temp(1, {ref(1), ref(0)}, {0}, "t1 = t0 * b[i] + a[i]"));
  l.stmts.push_back(assign_temp(2, {ref(1)}, {1}, "t2 = t1 * t1 + b[i]"));
  l.stmts.push_back(assign_temp(3, {ref(0)}, {2, 1}, "t3 = t2 * a[i] + t1"));
  l.stmts.push_back(store(ref(2), {}, "c[i] = t3", {3}));
  return l;
}
LoopBody ir_mb5() {
  LoopBody l{.name = "MBench5", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(
      store(ref(0, 1, 1), {ref(0), ref(1)}, "a[i+1] = a[i] * b[i]"));
  return l;
}
LoopBody ir_mb6() {
  LoopBody l{.name = "MBench6", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(store(ref(2), {ref(0, 3), ref(1)},
                          "c[i] = alpha * a[3i] + b[i]"));
  return l;
}
LoopBody ir_mb7() {
  LoopBody l{.name = "MBench7",
             .stmts = {},
             .trip_count = kNominalTrip,
             .single_entry_exit = true,
             .straight_line = false};
  l.stmts.push_back(store(ref(2), {ref(0), ref(1)},
                          "c[i] = a[i] > 0.5f ? a[i]*a[i] : b[i]"));
  return l;
}
LoopBody ir_mb8() {
  LoopBody l{.name = "MBench8", .stmts = {}, .trip_count = kNominalTrip};
  l.stmts.push_back(
      store(ref(2), {ref(0), ref(2)}, "c[i] = alpha * a[i] + c[i]"));
  return l;
}

// ---------------------------------------------------------------------------
// Sanitizer descriptors: the same IR, annotated with the argument binding and
// the buffer sizing contract (a: 3n+1, b: n, c: 2n — see mbench.hpp) at the
// nominal trip, so mclsan can bounds-check and replay accesses.
// ---------------------------------------------------------------------------

veclegal::KernelIr mbench_ir(LoopBody body) {
  veclegal::KernelIr ir;
  ir.body = std::move(body);
  ir.arrays = {
      veclegal::ArrayInfo{
          .array = 0, .arg_index = 0, .extent = 3 * kNominalTrip + 1},
      veclegal::ArrayInfo{
          .array = 1, .arg_index = 1, .extent = kNominalTrip, .read_only = true},
      veclegal::ArrayInfo{
          .array = 2, .arg_index = 2, .extent = 2 * kNominalTrip},
  };
  return ir;
}

const veclegal::KernelIrRegistrar ir_reg1{"mbench1", mbench_ir(ir_mb1())};
const veclegal::KernelIrRegistrar ir_reg2{"mbench2", mbench_ir(ir_mb2())};
const veclegal::KernelIrRegistrar ir_reg3{"mbench3", mbench_ir(ir_mb3())};
const veclegal::KernelIrRegistrar ir_reg4{"mbench4", mbench_ir(ir_mb4())};
const veclegal::KernelIrRegistrar ir_reg5{"mbench5", mbench_ir(ir_mb5())};
const veclegal::KernelIrRegistrar ir_reg6{"mbench6", mbench_ir(ir_mb6())};
const veclegal::KernelIrRegistrar ir_reg7{"mbench7", mbench_ir(ir_mb7())};
const veclegal::KernelIrRegistrar ir_reg8{"mbench8", mbench_ir(ir_mb8())};

}  // namespace

const std::vector<MBenchInfo>& all_mbenches() {
  static const std::vector<MBenchInfo> benches = [] {
    std::vector<MBenchInfo> v;
    v.push_back({"MBench1", "mbench1", ir_mb1(),
                 &loop_scalar_impl<&mb1_at<1>>,
                 &loop_simd_impl<&mb1_at<1>, &mb1_at<kW>>, 1.0, true});
    v.push_back({"MBench2", "mbench2", ir_mb2(),
                 &loop_scalar_impl<&mb2_at<1>>,
                 &loop_simd_impl<&mb2_at<1>, &mb2_at<kW>>, 6.0, true});
    v.push_back({"MBench3", "mbench3", ir_mb3(),
                 &loop_scalar_impl<&mb3_at<1>>,
                 &loop_simd_impl<&mb3_at<1>, &mb3_at<kW>>, 1.0, true});
    v.push_back({"MBench4", "mbench4", ir_mb4(),
                 &loop_scalar_impl<&mb4_at<1>>,
                 &loop_simd_impl<&mb4_at<1>, &mb4_at<kW>>, 7.0, true});
    v.push_back({"MBench5", "mbench5", ir_mb5(),
                 &loop_scalar_impl<&mb5_at<1>>,
                 &loop_simd_impl<&mb5_at<1>, &mb5_at<kW>>, 1.0, false});
    v.push_back({"MBench6", "mbench6", ir_mb6(),
                 &loop_scalar_impl<&mb6_at<1>>,
                 &loop_simd_impl<&mb6_at<1>, &mb6_at<kW>>, 2.0, true});
    v.push_back({"MBench7", "mbench7", ir_mb7(),
                 &loop_scalar_impl<&mb7_at<1>>,
                 &loop_simd_impl<&mb7_at<1>, &mb7_at<kW>>, 2.0, true});
    v.push_back({"MBench8", "mbench8", ir_mb8(),
                 &loop_scalar_impl<&mb8_at<1>>,
                 &loop_simd_impl<&mb8_at<1>, &mb8_at<kW>>, 2.0, true});
    return v;
  }();
  return benches;
}

}  // namespace mcl::apps
