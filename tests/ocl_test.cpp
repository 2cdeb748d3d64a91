#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simd/vec.hpp"

// Launch widths follow measured time, which ASan inflates; tests skip the
// expectations that depend on absolute speed there.
#if defined(__SANITIZE_ADDRESS__)
#define MCL_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCL_UNDER_ASAN 1
#endif
#endif
#ifndef MCL_UNDER_ASAN
#define MCL_UNDER_ASAN 0
#endif

namespace mcl::ocl {
namespace {

// ----- test kernels ------------------------------------------------------------

/// Records global/group/local ids at the linearized global index.
void record_ids(const KernelArgs& a, const WorkItemCtx& c) {
  const std::size_t idx =
      (c.global_id(2) * c.global_size(1) + c.global_id(1)) * c.global_size(0) +
      c.global_id(0);
  a.buffer<unsigned>(0)[idx] = static_cast<unsigned>(c.global_id(0));
  a.buffer<unsigned>(1)[idx] = static_cast<unsigned>(
      (c.group_id(2) * c.num_groups(1) + c.group_id(1)) * c.num_groups(0) +
      c.group_id(0));
  a.buffer<unsigned>(2)[idx] = static_cast<unsigned>(
      (c.local_id(2) * c.local_size(1) + c.local_id(1)) * c.local_size(0) +
      c.local_id(0));
}
const KernelRegistrar reg_record{{.name = "test_record_ids", .scalar = &record_ids}};

/// doubles input; has a SIMD form (validates lane/tail handling).
void dbl_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const std::size_t i = c.global_id(0);
  a.buffer<float>(1)[i] = 2.0f * a.buffer<const float>(0)[i];
}
void dbl_simd(const KernelArgs& a, const SimdItemCtx& c) {
  using V = simd::vfloatn;
  c.for_each_lane_group([&](std::size_t i, std::size_t) {
    (V{2.0f} * V::load(a.buffer<const float>(0) + i))
        .store(a.buffer<float>(1) + i);
  });
}
const KernelRegistrar reg_dbl{
    {.name = "test_double", .scalar = &dbl_scalar, .simd = &dbl_simd}};

/// Barrier kernel: neighbor exchange through local memory.
void neighbor_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  float* lmem = c.local_mem<float>(2);
  const std::size_t lid = c.local_id(0);
  lmem[lid] = static_cast<float>(c.global_id(0));
  c.barrier();
  const std::size_t n = c.local_size(0);
  a.buffer<float>(0)[c.global_id(0)] = lmem[(lid + 1) % n];
}
const KernelRegistrar reg_neighbor{{.name = "test_neighbor",
                                    .scalar = &neighbor_scalar,
                                    .needs_barrier = true}};

/// Workgroup-form kernel summing its group's elements into out[group].
void group_sum(const KernelArgs& a, const WorkGroupCtx& wg) {
  float* scratch = wg.local_mem<float>(2);
  scratch[0] = 0.0f;
  wg.for_each_item([&](const WorkItemCtx& it) {
    scratch[0] += a.buffer<const float>(0)[it.global_id(0)];
  });
  wg.for_each_item([&](const WorkItemCtx& it) {
    if (it.local_id(0) == 0) a.buffer<float>(1)[it.group_id(0)] = scratch[0];
  });
}
const KernelRegistrar reg_group_sum{
    {.name = "test_group_sum", .workgroup = &group_sum}};

// ----- NDRange & local-size policy ----------------------------------------------

TEST(NDRange, TotalsAndEquality) {
  EXPECT_EQ(NDRange{}.total(), 0u);
  EXPECT_TRUE(NDRange{}.is_null());
  EXPECT_EQ(NDRange{6}.total(), 6u);
  EXPECT_EQ(NDRange(2, 3).total(), 6u);
  EXPECT_EQ(NDRange(2, 3, 4).total(), 24u);
  EXPECT_EQ(NDRange(2, 3)[0], 2u);
  EXPECT_EQ(NDRange(2, 3)[2], 1u);  // implicit 1 for unused dims
  EXPECT_TRUE(NDRange(2, 3) == NDRange(2, 3));
  EXPECT_FALSE(NDRange(2, 3) == NDRange(3, 2));
}

TEST(DefaultLocal, OneDimensionTargets64) {
  EXPECT_EQ(pick_default_local(NDRange{1024})[0], 64u);
  EXPECT_EQ(pick_default_local(NDRange{64})[0], 64u);
  EXPECT_EQ(pick_default_local(NDRange{32})[0], 32u);
  // 10000 = 2^4 * 5^4 -> largest divisor <= 64 is 50.
  EXPECT_EQ(pick_default_local(NDRange{10000})[0], 50u);
  // Primes degrade to 1 (every size divides evenly).
  EXPECT_EQ(pick_default_local(NDRange{9973})[0], 1u);
}

TEST(DefaultLocal, TwoAndThreeDimensions) {
  const NDRange l2 = pick_default_local(NDRange(128, 256));
  EXPECT_EQ(l2[0], 8u);
  EXPECT_EQ(l2[1], 8u);
  const NDRange l3 = pick_default_local(NDRange(16, 16, 16));
  EXPECT_EQ(l3[0], 4u);
  EXPECT_EQ(l3[1], 4u);
  EXPECT_EQ(l3[2], 4u);
}

TEST(DefaultLocal, AlwaysDivides) {
  for (std::size_t g = 1; g < 700; ++g) {
    const NDRange l = pick_default_local(NDRange{g});
    EXPECT_EQ(g % l[0], 0u) << g;
  }
}

// The CPU device's rule for group-oblivious kernels, at W = 8 (AVX2), the
// resolutions DESIGN.md and docs/runtime.md quote.
TEST(CpuDefaultLocal, GrowsSimdAlignedGroupsForObliviousKernels) {
  const auto rule = [](const NDRange& g) {
    return pick_cpu_default_local(g, /*group_oblivious=*/true, 8);
  };
  EXPECT_EQ(rule(NDRange{std::size_t{1} << 20}), NDRange{4096});
  EXPECT_EQ(rule(NDRange{1'000'000}), NDRange{4000});
  EXPECT_EQ(rule(NDRange{1'100'000}), NDRange{4000});
  EXPECT_EQ(rule(NDRange(512, 512)), NDRange(512, 8));
  EXPECT_EQ(rule(NDRange(256, 256)), NDRange(128, 8));
  // Launches of <= 4096 items keep the base pick.
  EXPECT_EQ(rule(NDRange{4096}), NDRange{64});
  EXPECT_EQ(rule(NDRange{64}), NDRange{64});
  EXPECT_EQ(rule(NDRange{2048}), NDRange{64});
  // A prime has no SIMD-aligned divisor: one-item groups, as before.
  EXPECT_EQ(rule(NDRange{1'000'003}), NDRange{1});
  EXPECT_EQ(rule(NDRange{9973}), NDRange{1});
  // Dims 1 and 2 keep the base pick.
  EXPECT_EQ(rule(NDRange(64, 64, 64)), NDRange(64, 4, 4));
}

TEST(CpuDefaultLocal, OtherKernelsKeepTheBasePick) {
  for (const NDRange g : {NDRange{std::size_t{1} << 20}, NDRange{1'000'000},
                          NDRange(512, 512), NDRange(64, 64, 64)}) {
    EXPECT_EQ(pick_cpu_default_local(g, /*group_oblivious=*/false, 8),
              pick_default_local(g));
  }
}

TEST(CpuDefaultLocal, DividesAndHonoursItsBounds) {
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}}) {
    for (std::size_t g = 1; g < 20000; g += 37) {
      const NDRange l = pick_cpu_default_local(NDRange{g}, true, w);
      const std::size_t base = pick_default_local(NDRange{g})[0];
      ASSERT_EQ(g % l[0], 0u) << g;
      ASSERT_GE(l[0], base) << g;
      if (l[0] != base) {
        EXPECT_EQ(l[0] % w, 0u) << g;
        EXPECT_LE(l[0], kCpuMaxDefaultGroupItems) << g;
        EXPECT_GE(g / l[0], kCpuMinDefaultGroups) << g;
      }
    }
  }
}

// ----- buffers ------------------------------------------------------------------

TEST(Buffer, DefaultAllocZeroed) {
  Buffer b(MemFlags::ReadWrite, 256);
  EXPECT_EQ(b.size(), 256u);
  const auto* p = b.as<const unsigned char>();
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(p[i], 0);
}

TEST(Buffer, SixtyFourByteAligned) {
  for (int i = 0; i < 8; ++i) {
    Buffer b(MemFlags::ReadWrite, 100 + i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.device_ptr()) % 64, 0u);
  }
}

TEST(Buffer, CopyHostPtrCopies) {
  float src[4] = {1, 2, 3, 4};
  Buffer b(MemFlags::ReadWrite | MemFlags::CopyHostPtr, sizeof(src), src);
  src[0] = 99.0f;  // must not affect the buffer
  EXPECT_EQ(b.as<float>()[0], 1.0f);
  EXPECT_EQ(b.as<float>()[3], 4.0f);
}

TEST(Buffer, UseHostPtrAliases) {
  float src[4] = {1, 2, 3, 4};
  Buffer b(MemFlags::ReadWrite | MemFlags::UseHostPtr, sizeof(src), src);
  EXPECT_EQ(b.device_ptr(), src);
  b.as<float>()[2] = 7.0f;
  EXPECT_EQ(src[2], 7.0f);
  EXPECT_TRUE(b.host_visible());
}

TEST(Buffer, AccessFlagQueries) {
  Buffer rw(MemFlags::ReadWrite, 16);
  EXPECT_TRUE(rw.kernel_readable());
  EXPECT_TRUE(rw.kernel_writable());
  Buffer ro(MemFlags::ReadOnly, 16);
  EXPECT_TRUE(ro.kernel_readable());
  EXPECT_FALSE(ro.kernel_writable());
  Buffer wo(MemFlags::WriteOnly, 16);
  EXPECT_FALSE(wo.kernel_readable());
  EXPECT_TRUE(wo.kernel_writable());
}

TEST(Buffer, InvalidConstructionThrows) {
  EXPECT_THROW(Buffer(MemFlags::ReadWrite, 0), core::Error);
  EXPECT_THROW(Buffer(MemFlags::ReadOnly | MemFlags::WriteOnly, 16),
               core::Error);
  float x = 0;
  EXPECT_THROW(Buffer(MemFlags::ReadWrite, 4, &x), core::Error);  // stray ptr
  EXPECT_THROW(Buffer(MemFlags::UseHostPtr | MemFlags::CopyHostPtr, 4, &x),
               core::Error);
  EXPECT_THROW(Buffer(MemFlags::UseHostPtr, 4, nullptr), core::Error);
}

// ----- kernel args ----------------------------------------------------------------

TEST(KernelArgs, ScalarRoundtrip) {
  KernelArgs args;
  args.set_scalar(0, 42u);
  args.set_scalar(1, 2.5f);
  struct Pair { int a; int b; };
  args.set_scalar(2, Pair{7, 9});
  EXPECT_EQ(args.scalar<unsigned>(0), 42u);
  EXPECT_EQ(args.scalar<float>(1), 2.5f);
  EXPECT_EQ(args.scalar<Pair>(2).b, 9);
}

TEST(KernelArgs, LocalTracking) {
  KernelArgs args;
  args.set_local(0, 100);
  EXPECT_TRUE(args.is_local(0));
  EXPECT_EQ(args.local_bytes(0), 100u);
  // Total rounds each request up to 64B.
  args.set_local(1, 1);
  EXPECT_EQ(args.total_local_bytes(), 128u + 64u);
  EXPECT_THROW(args.set_local(2, 0), core::Error);
}

TEST(KernelArgs, UnsetDetection) {
  KernelArgs args;
  args.set_scalar(1, 1);  // leaves slot 0 unset
  EXPECT_FALSE(args.is_set(0));
  EXPECT_TRUE(args.is_set(1));
}

// ----- launch: coverage across shapes and executors --------------------------------

struct LaunchCase {
  NDRange global;
  NDRange local;
  ExecutorKind executor;
  const char* label;
};

class LaunchCoverage : public ::testing::TestWithParam<LaunchCase> {};

TEST_P(LaunchCoverage, EveryItemRunsOnceWithCorrectIds) {
  const LaunchCase& lc = GetParam();
  CpuDevice device(CpuDeviceConfig{.threads = 2, .executor = lc.executor});
  Context ctx(device);
  CommandQueue q(ctx);

  const std::size_t n = lc.global.total();
  Buffer g(MemFlags::ReadWrite, n * 4);
  Buffer grp(MemFlags::ReadWrite, n * 4);
  Buffer loc(MemFlags::ReadWrite, n * 4);
  std::memset(g.device_ptr(), 0xff, n * 4);

  Kernel k = ctx.create_kernel(Program::builtin(), "test_record_ids");
  k.set_arg(0, g);
  k.set_arg(1, grp);
  k.set_arg(2, loc);
  const Event ev = q.enqueue_ndrange(k, lc.global, lc.local);

  const NDRange used = ev.launch.local_used;
  const auto* gid = g.as<const unsigned>();
  const auto* lid = loc.as<const unsigned>();
  for (std::size_t z = 0; z < lc.global[2]; ++z) {
    for (std::size_t y = 0; y < lc.global[1]; ++y) {
      for (std::size_t x = 0; x < lc.global[0]; ++x) {
        const std::size_t idx = (z * lc.global[1] + y) * lc.global[0] + x;
        ASSERT_EQ(gid[idx], x) << lc.label << " idx=" << idx;
        const std::size_t expected_lid =
            ((z % used[2]) * used[1] + (y % used[1])) * used[0] + (x % used[0]);
        ASSERT_EQ(lid[idx], expected_lid) << lc.label << " idx=" << idx;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LaunchCoverage,
    ::testing::Values(
        LaunchCase{NDRange{64}, NDRange{16}, ExecutorKind::Loop, "1d_loop"},
        LaunchCase{NDRange{64}, NDRange{64}, ExecutorKind::Loop, "one_group"},
        LaunchCase{NDRange{60}, NDRange{5}, ExecutorKind::Loop, "odd_sizes"},
        LaunchCase{NDRange{64}, NDRange{}, ExecutorKind::Loop, "null_local"},
        LaunchCase{NDRange{1}, NDRange{1}, ExecutorKind::Loop, "single_item"},
        LaunchCase{NDRange(16, 8), NDRange(4, 4), ExecutorKind::Loop, "2d"},
        LaunchCase{NDRange(8, 4, 2), NDRange(2, 2, 2), ExecutorKind::Loop, "3d"},
        LaunchCase{NDRange(12, 7), NDRange{}, ExecutorKind::Loop, "2d_null"},
        LaunchCase{NDRange{64}, NDRange{16}, ExecutorKind::Fiber, "1d_fiber"},
        LaunchCase{NDRange(16, 8), NDRange(4, 2), ExecutorKind::Fiber,
                   "2d_fiber"}),
    [](const auto& info) { return info.param.label; });

TEST(Launch, SimdExecutorMatchesLoopIncludingTails) {
  // local 10 with native width 4/8 forces both full lane groups and tails.
  for (std::size_t n : {40u, 70u, 130u}) {
    CpuDevice loop_dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
    CpuDevice simd_dev(CpuDeviceConfig{.executor = ExecutorKind::Simd});
    std::vector<float> in(n);
    std::iota(in.begin(), in.end(), 1.0f);

    auto run = [&](CpuDevice& dev) {
      Context ctx(dev);
      CommandQueue q(ctx);
      Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4, in.data());
      Buffer bout(MemFlags::WriteOnly, n * 4);
      Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
      k.set_arg(0, bin);
      k.set_arg(1, bout);
      const Event ev = q.enqueue_ndrange(k, NDRange{n}, NDRange{10});
      std::vector<float> out(n);
      (void)q.enqueue_read_buffer(bout, 0, n * 4, out.data());
      return std::make_pair(out, ev.launch.executor_used);
    };
    const auto [loop_out, loop_kind] = run(loop_dev);
    const auto [simd_out, simd_kind] = run(simd_dev);
    EXPECT_EQ(loop_kind, ExecutorKind::Loop);
    EXPECT_EQ(simd_kind, ExecutorKind::Simd);
    EXPECT_EQ(loop_out, simd_out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(loop_out[i], 2.0f * in[i]);
  }
}

TEST(Launch, AutoPicksSimdWhenAvailable) {
  CpuDevice dev;  // Auto
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 64;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  const Event ev = q.enqueue_ndrange(k, NDRange{n}, NDRange{16});
  if (simd::kNativeFloatWidth > 1) {
    EXPECT_EQ(ev.launch.executor_used, ExecutorKind::Simd);
  } else {
    EXPECT_EQ(ev.launch.executor_used, ExecutorKind::Loop);
  }
}

TEST(Launch, BarrierKernelAutoSelectsFiberAndWorks) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 48, l = 8;
  Buffer out(MemFlags::ReadWrite, n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_neighbor");
  k.set_arg(0, out);
  k.set_arg(1, 0);  // unused scalar to keep arg indices stable
  k.set_arg_local(2, l * 4);
  const Event ev = q.enqueue_ndrange(k, NDRange{n}, NDRange{l});
  EXPECT_EQ(ev.launch.executor_used, ExecutorKind::Fiber);
  const float* p = out.as<const float>();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t group = i / l;
    const std::size_t expect = group * l + (i % l + 1) % l;
    EXPECT_EQ(p[i], static_cast<float>(expect)) << i;
  }
}

TEST(Launch, BarrierOnLoopExecutorThrows) {
  CpuDevice dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer out(MemFlags::ReadWrite, 16 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_neighbor");
  k.set_arg(0, out);
  k.set_arg(1, 0);
  k.set_arg_local(2, 16 * 4);
  EXPECT_THROW((void)q.enqueue_ndrange(k, NDRange{16}, NDRange{16}),
               core::Error);
}

TEST(Launch, WorkgroupFormKernel) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 32, l = 8;
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 0.0f);
  Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4, in.data());
  Buffer bout(MemFlags::ReadWrite, (n / l) * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_group_sum");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  k.set_arg_local(2, 64);
  (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{l});
  const float* p = bout.as<const float>();
  for (std::size_t g = 0; g < n / l; ++g) {
    float expect = 0;
    for (std::size_t i = 0; i < l; ++i) expect += in[g * l + i];
    EXPECT_EQ(p[g], expect);
  }
}

/// Barrier kernel without local memory: each item writes its id, then all
/// synchronize.
void barrier_ids_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  a.buffer<unsigned>(0)[c.global_id(0)] = static_cast<unsigned>(c.global_id(0));
  c.barrier();
}
const KernelRegistrar reg_barrier_ids{{.name = "test_barrier_ids",
                                       .scalar = &barrier_ids_scalar,
                                       .needs_barrier = true}};

/// Stages each item's value through its own local-memory slot, no barrier.
void local_stage_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  float* lmem = c.local_mem<float>(2);
  lmem[c.local_id(0)] = a.buffer<const float>(0)[c.global_id(0)];
  a.buffer<float>(1)[c.global_id(0)] = 2.0f * lmem[c.local_id(0)];
}
const KernelRegistrar reg_local_stage{
    {.name = "test_local_stage", .scalar = &local_stage_scalar}};

// At NULL local the CPU device grows only group-oblivious launches: a
// barrier kernel, a local-memory-arg kernel and a Fiber-configured device
// keep the base pick; every CPU launch path (pooled, Checked,
// dispatch_order) resolves the oblivious launch to the same local.
TEST(Launch, NullLocalGrowsOnlyGroupObliviousLaunches) {
  const std::size_t n = 65536;
  const NDRange base = pick_default_local(NDRange{n});
  const NDRange grown = pick_cpu_default_local(
      NDRange{n}, true, static_cast<std::size_t>(simd::kNativeFloatWidth));
  ASSERT_EQ(base, NDRange{64});
  ASSERT_EQ(grown, NDRange{1024});
  std::vector<float> in(n, 1.5f);

  const auto local_used = [&](CpuDeviceConfig cfg, const char* kernel,
                              bool local_arg) {
    CpuDevice dev(std::move(cfg));
    Context ctx(dev);
    CommandQueue q(ctx);
    Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4, in.data());
    Buffer bout(MemFlags::ReadWrite, n * 4);
    Kernel k = ctx.create_kernel(Program::builtin(), kernel);
    if (std::string(kernel) == "test_barrier_ids") {
      k.set_arg(0, bout);
    } else {
      k.set_arg(0, bin);
      k.set_arg(1, bout);
      if (local_arg) k.set_arg_local(2, 4096 * sizeof(float));
    }
    const Event ev = q.enqueue_ndrange(k, NDRange{n}, NDRange{});
    if (std::string(kernel) == "test_barrier_ids") {
      EXPECT_EQ(bout.as<const unsigned>()[n - 1], n - 1);
    } else {
      EXPECT_EQ(bout.as<const float>()[n - 1], 3.0f) << kernel;
    }
    return ev.launch.local_used;
  };

  EXPECT_EQ(local_used({}, "test_barrier_ids", false), base);
  EXPECT_EQ(local_used({}, "test_local_stage", true), base);
  EXPECT_EQ(local_used({.executor = ExecutorKind::Fiber}, "test_double", false),
            base);
  EXPECT_EQ(local_used({}, "test_double", false), grown);
  EXPECT_EQ(local_used({.executor = ExecutorKind::Loop}, "test_double", false),
            grown);
  EXPECT_EQ(local_used({.executor = ExecutorKind::Checked}, "test_double",
                       false),
            grown);
  EXPECT_EQ(local_used({.threads = 1,
                        .dispatch_order =
                            [](std::size_t k, std::size_t total) {
                              return total - 1 - k;
                            }},
                       "test_double", false),
            grown);
}

TEST(Launch, ValidationErrors) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  // indivisible local size
  EXPECT_THROW((void)q.enqueue_ndrange(k, NDRange{10}, NDRange{3}), core::Error);
  // zero global size
  EXPECT_THROW((void)q.enqueue_ndrange(k, NDRange{}, NDRange{}), core::Error);
  // dims mismatch
  EXPECT_THROW((void)q.enqueue_ndrange(k, NDRange{16}, NDRange(4, 4)),
               core::Error);
  // unset arg
  Kernel k2 = ctx.create_kernel(Program::builtin(), "test_double");
  k2.set_arg(1, b);
  EXPECT_THROW((void)q.enqueue_ndrange(k2, NDRange{16}, NDRange{4}), core::Error);
  // unknown kernel name
  EXPECT_THROW((void)ctx.create_kernel(Program::builtin(), "nope"), core::Error);
}

TEST(Launch, PinnedExtensionRunsAllGroups) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 64, l = 8;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);
  for (std::size_t i = 0; i < n; ++i) bin.as<float>()[i] = static_cast<float>(i);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  std::vector<int> map(n / l, 0);  // all groups on CPU 0
  const Event ev = q.enqueue_ndrange_pinned(k, NDRange{n}, NDRange{l}, map);
  EXPECT_GT(ev.seconds, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bout.as<float>()[i], 2.0f * static_cast<float>(i));
  }
  // wrong map size rejected
  std::vector<int> bad(3, 0);
  EXPECT_THROW((void)q.enqueue_ndrange_pinned(k, NDRange{n}, NDRange{l}, bad),
               core::Error);
}

// ----- launch width ----------------------------------------------------------

/// The device whose pool the where_* kernels report worker indices of.
const CpuDevice* g_where_device = nullptr;

/// out[i] = in[i]^2, like the builtin square, and where[i] = the pool worker
/// that ran item i (-1 for the launching thread).
void where_square_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  const std::size_t i = c.global_id(0);
  const float x = a.buffer<const float>(0)[i];
  a.buffer<float>(1)[i] = x * x;
  a.buffer<int>(2)[i] = g_where_device->pool_worker_index();
}
void where_square_simd(const KernelArgs& a, const SimdItemCtx& c) {
  using V = simd::vfloatn;
  const int worker = g_where_device->pool_worker_index();
  c.for_each_lane_group([&](std::size_t i, std::size_t) {
    const V x = V::load(a.buffer<const float>(0) + i);
    (x * x).store(a.buffer<float>(1) + i);
    std::fill_n(a.buffer<int>(2) + i, V::width, worker);
  });
}
const KernelRegistrar reg_where_square{{.name = "test_where_square",
                                        .scalar = &where_square_scalar,
                                        .simd = &where_square_simd}};

/// Thousands of operations per item (the sub-device suite's
/// subdev_record_worker body): every participant pays for its wake.
void where_heavy(const KernelArgs& a, const WorkItemCtx& c) {
  volatile int sink = 0;
  for (int i = 0; i < 4000; ++i) sink = sink + i;
  a.buffer<int>(2)[c.global_id(0)] = g_where_device->pool_worker_index();
}
const KernelRegistrar reg_where_heavy{
    {.name = "test_where_heavy", .scalar = &where_heavy}};

TEST(Launch, WidthFollowsWork) {
  CpuDevice dev(CpuDeviceConfig{.threads = 4});
  g_where_device = &dev;
  const std::size_t full = 5;  // 4 workers + the launching thread
  constexpr std::size_t n = 4096;
  std::vector<float> in(n, 1.5f);
  Buffer bin(MemFlags::ReadOnly | MemFlags::UseHostPtr, n * 4, in.data());
  Buffer bout(MemFlags::ReadWrite, n * 4);
  Buffer bwhere(MemFlags::ReadWrite, n * 4);
  KernelArgs args;
  args.set_buffer(0, bin);
  args.set_buffer(1, bout);
  args.set_buffer(2, bwhere);
  const KernelDef& square = Program::builtin().lookup("test_where_square");
  const KernelDef& heavy = Program::builtin().lookup("test_where_heavy");
  const auto launch = [&](Device& on, const KernelDef& def) {
    std::fill_n(bwhere.as<int>(), n, -2);
    LaunchResult r = on.launch(def, args, NDRange{n}, NDRange{});
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NE(bwhere.as<const int>()[i], -2) << "item " << i << " skipped";
    }
    return r;
  };

  // A new shape starts at full width; the measured cost then narrows a
  // light one within a few launches.
  EXPECT_EQ(launch(dev, heavy).schedule.width, full);
  EXPECT_EQ(launch(dev, square).schedule.width, full);
  for (int rep = 0; rep < 50; ++rep) {
    (void)launch(dev, square);
    (void)launch(dev, heavy);
  }

  for (int rep = 0; rep < 200; ++rep) {
    const LaunchResult light = launch(dev, square);
    EXPECT_EQ(bout.as<const float>()[n - 1], 2.25f);
    // A few us of work: one participant, and no item leaves the caller.
    // ASan multiplies the work, and the width follows it.
    if (!MCL_UNDER_ASAN) {
      ASSERT_EQ(light.schedule.width, 1u) << "repeat " << rep;
      EXPECT_EQ(light.schedule.participants, 1u);
      EXPECT_EQ(light.schedule.max_per_participant,
                n / light.local_used.total());
      EXPECT_EQ(light.schedule.imbalance, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bwhere.as<const int>()[i], -1) << "item " << i;
      }
    }
    // Milliseconds of work: every participant pays for its wake.
    ASSERT_EQ(launch(dev, heavy).schedule.width, full) << "repeat " << rep;
  }

  // A sub-device launch offers work to its own span's workers only.
  auto subs = dev.partition_equally(2);
  ASSERT_EQ(subs.size(), 2u);
  for (const auto& sub : subs) {
    const threading::WorkerSpan span = sub->span();
    for (int rep = 0; rep < 20; ++rep) {
      const LaunchResult r = launch(*sub, heavy);
      EXPECT_LE(r.schedule.width, span.size() + 1);
      for (std::size_t i = 0; i < n; ++i) {
        const int w = bwhere.as<const int>()[i];
        if (w < 0) continue;  // the launching thread
        ASSERT_TRUE(span.contains(static_cast<std::size_t>(w))) << w;
      }
    }
  }
  g_where_device = nullptr;
}

// ----- queue transfers ---------------------------------------------------------

TEST(Queue, WriteReadRoundtripWithOffsets) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  const char msg[] = "hello minicl!";
  (void)q.enqueue_write_buffer(b, 8, sizeof(msg), msg);
  char out[sizeof(msg)] = {};
  (void)q.enqueue_read_buffer(b, 8, sizeof(msg), out);
  EXPECT_STREQ(out, msg);
}

TEST(Queue, TransferRangeValidation) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16);
  char tmp[32];
  EXPECT_THROW((void)q.enqueue_write_buffer(b, 0, 32, tmp), core::Error);
  EXPECT_THROW((void)q.enqueue_write_buffer(b, 8, 9, tmp), core::Error);
  EXPECT_THROW((void)q.enqueue_write_buffer(b, 0, 4, nullptr), core::Error);
  // Zero-byte transfers are no-ops (clEnqueueWriteBuffer size==0 handling).
  EXPECT_NO_THROW((void)q.enqueue_read_buffer(b, 0, 0, tmp));
  EXPECT_NO_THROW((void)q.enqueue_write_buffer(b, 16, 0, tmp));
}

TEST(Queue, TransferRangeOverflowRejected) {
  // offset + bytes used to be checked as a sum, which wraps for huge offsets
  // and waved the range through; the rewritten check must reject it.
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16);
  char tmp[16];
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 4;
  EXPECT_THROW((void)q.enqueue_write_buffer(b, huge, 8, tmp), core::Error);
  EXPECT_THROW((void)q.enqueue_read_buffer(b, huge, 8, tmp), core::Error);
  EXPECT_THROW((void)q.enqueue_read_buffer(
                   b, 8, std::numeric_limits<std::size_t>::max() - 2, tmp),
               core::Error);
}

TEST(Queue, RectPitchOverflowRejected) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 256);
  char host[256] = {};
  BufferRect rect;
  rect.region[0] = 8;
  rect.region[1] = 4;
  rect.region[2] = 1;
  rect.row_pitch = std::numeric_limits<std::size_t>::max() / 2;
  BufferRect host_rect;
  host_rect.region[0] = 8;
  host_rect.region[1] = 4;
  host_rect.region[2] = 1;
  EXPECT_THROW((void)q.enqueue_write_buffer_rect(b, rect, host_rect, host),
               core::Error);
  BufferRect huge_origin = host_rect;
  huge_origin.origin[1] = std::numeric_limits<std::size_t>::max() - 1;
  EXPECT_THROW((void)q.enqueue_read_buffer_rect(b, host_rect, huge_origin, host),
               core::Error);
}

TEST(Queue, FillOffsetMustAlignToPattern) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  const std::uint32_t pattern = 0xa5a5a5a5u;
  // OpenCL 1.2 §5.2.2: offset must be a multiple of the pattern size.
  EXPECT_THROW((void)q.enqueue_fill_buffer(b, &pattern, 4, 2, 8), core::Error);
  EXPECT_NO_THROW((void)q.enqueue_fill_buffer(b, &pattern, 4, 4, 8));
  EXPECT_EQ(b.as<std::uint32_t>()[1], pattern);
  EXPECT_EQ(b.as<std::uint32_t>()[2], pattern);
}

TEST(Queue, MapReturnsCanonicalPointerOnCpu) {
  // The Fig 7/8 mechanism: mapping is zero-copy on the CPU device.
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  Event ev;
  void* p = q.enqueue_map_buffer(b, MapFlags::ReadWrite, 16, 32, &ev);
  EXPECT_EQ(p, static_cast<std::byte*>(b.device_ptr()) + 16);
  EXPECT_EQ(ev.type, CommandType::MapBuffer);
  static_cast<float*>(p)[0] = 3.5f;  // writes through, no copy-back needed
  EXPECT_EQ(b.as<float>()[4], 3.5f);
  (void)q.enqueue_unmap(b, p);
}

TEST(Queue, UnmapValidation) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  float stray = 0;
  EXPECT_THROW((void)q.enqueue_unmap(b, &stray), core::Error);
  void* p = q.enqueue_map_buffer(b, MapFlags::Read, 0, 64);
  (void)q.enqueue_unmap(b, p);
  EXPECT_THROW((void)q.enqueue_unmap(b, p), core::Error);  // double unmap
}

TEST(Queue, MapCountTracksNesting) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  void* p1 = q.enqueue_map_buffer(b, MapFlags::Read, 0, 32);
  void* p2 = q.enqueue_map_buffer(b, MapFlags::Read, 32, 32);
  EXPECT_EQ(b.map_count(), 2);
  (void)q.enqueue_unmap(b, p1);
  (void)q.enqueue_unmap(b, p2);
  EXPECT_EQ(b.map_count(), 0);
}

// ----- devices & platform --------------------------------------------------------

TEST(Platform, ExposesBothDevices) {
  Platform platform;
  EXPECT_EQ(platform.devices().size(), 2u);
  EXPECT_EQ(platform.cpu().type(), DeviceType::Cpu);
  EXPECT_EQ(platform.gpu().type(), DeviceType::SimulatedGpu);
  EXPECT_EQ(platform.device_by_type(DeviceType::Cpu), &platform.cpu());
  EXPECT_GE(platform.cpu().compute_units(), 1);
  EXPECT_EQ(platform.gpu().compute_units(), 16);
}

TEST(SimGpu, FunctionalResultsMatchCpu) {
  Platform platform;
  Context cctx(platform.cpu());
  Context gctx(platform.gpu());
  CommandQueue cq(cctx);
  CommandQueue gq(gctx);
  const std::size_t n = 256;
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 0.5f);

  auto run = [&](Context& ctx, CommandQueue& q) {
    Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4, in.data());
    Buffer bout(MemFlags::WriteOnly, n * 4);
    Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{64});
    std::vector<float> out(n);
    (void)q.enqueue_read_buffer(bout, 0, n * 4, out.data());
    return out;
  };
  EXPECT_EQ(run(cctx, cq), run(gctx, gq));
}

TEST(SimGpu, KernelWithoutCostModelIsMeasured) {
  Platform platform;
  Context ctx(platform.gpu());
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  const Event ev = q.enqueue_ndrange(k, NDRange{64}, NDRange{16});
  EXPECT_FALSE(ev.launch.simulated);
}

TEST(SimGpu, TransferOverheadModelsPcie) {
  Platform platform;
  const std::size_t mb = 1 << 20;
  const double t = platform.gpu().copy_overhead_seconds(mb);
  EXPECT_GT(t, platform.gpu().spec().pcie_latency_s);
  // Pinned buffers map free; device buffers pay a crossing.
  Buffer pinned(MemFlags::ReadWrite | MemFlags::AllocHostPtr, mb);
  Buffer devbuf(MemFlags::ReadWrite, mb);
  EXPECT_EQ(platform.gpu().map_overhead_seconds(pinned, mb), 0.0);
  EXPECT_GT(platform.gpu().map_overhead_seconds(devbuf, mb), 0.0);
}

TEST(CpuDevice, NameAndUnits) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  EXPECT_FALSE(dev.name().empty());
  EXPECT_EQ(dev.compute_units(), 2);
}

}  // namespace
}  // namespace mcl::ocl

// ----- extended buffer & queue API ----------------------------------------------

namespace mcl::ocl {
namespace {

TEST(SubBuffer, SharesParentStorage) {
  Buffer parent(MemFlags::ReadWrite, 256);
  Buffer sub = parent.sub_buffer(64, 128);
  EXPECT_TRUE(sub.is_sub_buffer());
  EXPECT_EQ(sub.parent(), &parent);
  EXPECT_EQ(sub.size(), 128u);
  sub.as<float>()[0] = 7.5f;
  EXPECT_EQ(parent.as<float>()[16], 7.5f);  // 64 bytes = 16 floats in
}

TEST(SubBuffer, RegionValidation) {
  Buffer parent(MemFlags::ReadWrite, 100);
  EXPECT_THROW((void)parent.sub_buffer(90, 20), core::Error);
  EXPECT_THROW((void)parent.sub_buffer(0, 0), core::Error);
  EXPECT_NO_THROW((void)parent.sub_buffer(0, 100));
}

TEST(SubBuffer, UsableAsKernelArg) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 64;
  Buffer big(MemFlags::ReadWrite, 2 * n * 4);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    big.as<float>()[i] = static_cast<float>(i);
  }
  // Double only the second half, in place through two views.
  Buffer in = big.sub_buffer(n * 4, n * 4);
  Buffer out = big.sub_buffer(n * 4, n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, in);
  k.set_arg(1, out);
  (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{16});
  EXPECT_EQ(big.as<float>()[0], 0.0f);                       // untouched
  EXPECT_EQ(big.as<float>()[n], 2.0f * static_cast<float>(n));  // doubled
}

TEST(Queue, CopyBuffer) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer src(MemFlags::ReadWrite, 64);
  Buffer dst(MemFlags::ReadWrite, 64);
  for (int i = 0; i < 16; ++i) src.as<float>()[i] = static_cast<float>(i);
  const Event ev = q.enqueue_copy_buffer(src, dst, 16, 32, 32);
  EXPECT_EQ(ev.type, CommandType::CopyBuffer);
  EXPECT_EQ(dst.as<float>()[8], 4.0f);  // dst byte 32 = float 8 <- src float 4
  // overlap via sub-buffers rejected
  Buffer lo = src.sub_buffer(0, 48);
  Buffer hi = src.sub_buffer(16, 48);
  EXPECT_THROW((void)q.enqueue_copy_buffer(lo, hi, 0, 0, 48), core::Error);
}

TEST(Queue, FillBuffer) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  const float pattern = 2.5f;
  (void)q.enqueue_fill_buffer(b, &pattern, sizeof(pattern), 16, 32);
  EXPECT_EQ(b.as<float>()[3], 0.0f);
  EXPECT_EQ(b.as<float>()[4], 2.5f);
  EXPECT_EQ(b.as<float>()[11], 2.5f);
  EXPECT_EQ(b.as<float>()[12], 0.0f);
  EXPECT_THROW((void)q.enqueue_fill_buffer(b, &pattern, 4, 0, 30), core::Error);
  EXPECT_THROW((void)q.enqueue_fill_buffer(b, nullptr, 4, 0, 32), core::Error);
}

TEST(Queue, BufferRectRoundtrip) {
  // Write a 2x3-row block into a 8-float-wide "image", then read it back.
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  constexpr std::size_t kWidthBytes = 8 * 4;
  Buffer b(MemFlags::ReadWrite, kWidthBytes * 4);  // 4 rows

  const float host_block[6] = {1, 2, 3, 4, 5, 6};  // 3 rows x 2 floats, packed
  BufferRect host_rect;
  host_rect.region[0] = 2 * 4;  // 2 floats per row
  host_rect.region[1] = 3;
  BufferRect buf_rect = host_rect;
  buf_rect.origin[0] = 2 * 4;  // start at column 2
  buf_rect.origin[1] = 1;      // row 1
  buf_rect.row_pitch = kWidthBytes;
  (void)q.enqueue_write_buffer_rect(b, buf_rect, host_rect, host_block);

  // Spot-check placement: row 1 columns 2..3 = {1,2}; row 3 = {5,6}.
  EXPECT_EQ(b.as<float>()[1 * 8 + 2], 1.0f);
  EXPECT_EQ(b.as<float>()[1 * 8 + 3], 2.0f);
  EXPECT_EQ(b.as<float>()[3 * 8 + 2], 5.0f);
  EXPECT_EQ(b.as<float>()[1 * 8 + 1], 0.0f);  // outside the rect untouched

  float out[6] = {};
  (void)q.enqueue_read_buffer_rect(b, buf_rect, host_rect, out);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], host_block[i]);
}

TEST(Queue, BufferRectValidation) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  float tmp[64];
  BufferRect big;
  big.region[0] = 16;
  big.region[1] = 8;  // 128 bytes > 64
  BufferRect host = big;
  EXPECT_THROW((void)q.enqueue_write_buffer_rect(b, big, host, tmp),
               core::Error);
  BufferRect mismatched = big;
  mismatched.region[1] = 2;
  BufferRect small;
  small.region[0] = 16;
  small.region[1] = 2;
  EXPECT_THROW((void)q.enqueue_write_buffer_rect(b, small, big, tmp),
               core::Error);
}

TEST(Queue, MarkerCompletesImmediately) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const Event ev = q.enqueue_marker();
  EXPECT_EQ(ev.type, CommandType::Marker);
  EXPECT_EQ(ev.seconds, 0.0);
}

TEST(KernelWorkGroupInfo, CpuReportsSimdMultiple) {
  Platform platform;
  Context ctx(platform.cpu());
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  const KernelWorkGroupInfo info = kernel_workgroup_info(k, platform.cpu());
  if (simd::kNativeFloatWidth > 1) {
    EXPECT_EQ(info.preferred_work_group_size_multiple,
              static_cast<std::size_t>(simd::kNativeFloatWidth));
  } else {
    EXPECT_EQ(info.preferred_work_group_size_multiple, 1u);
  }
  EXPECT_GT(info.max_work_group_size, 1024u);
}

TEST(KernelWorkGroupInfo, BarrierKernelBounded) {
  Platform platform;
  Context ctx(platform.cpu());
  Kernel k = ctx.create_kernel(Program::builtin(), "test_neighbor");
  k.set_arg_local(2, 256);
  const KernelWorkGroupInfo info = kernel_workgroup_info(k, platform.cpu());
  EXPECT_EQ(info.max_work_group_size, 4096u);
  EXPECT_EQ(info.local_mem_bytes, 256u);
}

TEST(KernelWorkGroupInfo, GpuReportsWarpMultiple) {
  Platform platform;
  Context ctx(platform.gpu());
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  const KernelWorkGroupInfo info = kernel_workgroup_info(k, platform.gpu());
  EXPECT_EQ(info.preferred_work_group_size_multiple, 32u);
  EXPECT_EQ(info.max_work_group_size, 1024u);
}

}  // namespace
}  // namespace mcl::ocl

// ----- asynchronous commands -----------------------------------------------------

namespace mcl::ocl {
namespace {

TEST(AsyncQueue, KernelCompletesAndReportsEvent) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 1024;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);
  for (std::size_t i = 0; i < n; ++i) bin.as<float>()[i] = static_cast<float>(i);

  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  const AsyncEventPtr ev = q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64});
  const Event done = ev->result();
  EXPECT_EQ(done.type, CommandType::NDRangeKernel);
  EXPECT_TRUE(ev->complete());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bout.as<float>()[i], 2.0f * static_cast<float>(i));
  }
}

TEST(AsyncQueue, InOrderSemantics) {
  // write -> kernel -> read, all async; the read must observe the kernel's
  // output because one queue executes in order.
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 4096;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);
  std::vector<float> host_in(n, 3.0f), host_out(n, 0.0f);

  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  (void)q.enqueue_write_buffer_async(bin, 0, n * 4, host_in.data());
  (void)q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64});
  const AsyncEventPtr read =
      q.enqueue_read_buffer_async(bout, 0, n * 4, host_out.data());
  read->wait();
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(host_out[i], 6.0f);
}

TEST(AsyncQueue, ArgumentsSnapshotAtEnqueue) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 256;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout1(MemFlags::ReadWrite, n * 4);
  Buffer bout2(MemFlags::ReadWrite, n * 4);
  for (std::size_t i = 0; i < n; ++i) bin.as<float>()[i] = 1.0f;

  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout1);
  const AsyncEventPtr ev1 = q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64});
  k.set_arg(1, bout2);  // must NOT redirect the in-flight command
  const AsyncEventPtr ev2 = q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64});
  ev1->wait();
  ev2->wait();
  EXPECT_EQ(bout1.as<float>()[0], 2.0f);
  EXPECT_EQ(bout2.as<float>()[0], 2.0f);
}

TEST(AsyncQueue, CrossQueueWaitList) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue producer(ctx);
  CommandQueue consumer(ctx);
  const std::size_t n = 2048;
  Buffer a(MemFlags::ReadWrite, n * 4);
  Buffer b(MemFlags::ReadWrite, n * 4);
  Buffer c(MemFlags::ReadWrite, n * 4);
  for (std::size_t i = 0; i < n; ++i) a.as<float>()[i] = 5.0f;

  Kernel k1 = ctx.create_kernel(Program::builtin(), "test_double");
  k1.set_arg(0, a);
  k1.set_arg(1, b);
  Kernel k2 = ctx.create_kernel(Program::builtin(), "test_double");
  k2.set_arg(0, b);
  k2.set_arg(1, c);

  const AsyncEventPtr first =
      producer.enqueue_ndrange_async(k1, NDRange{n}, NDRange{64});
  const AsyncEventPtr second =
      consumer.enqueue_ndrange_async(k2, NDRange{n}, NDRange{64}, {first});
  second->wait();
  EXPECT_EQ(c.as<float>()[n - 1], 20.0f);
}

TEST(AsyncQueue, FinishDrainsEverything) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 512;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  std::vector<AsyncEventPtr> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64}));
  }
  q.finish();
  for (const auto& ev : events) EXPECT_TRUE(ev->complete());
}

TEST(AsyncQueue, FinishWithoutAsyncUseIsNoop) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  q.finish();  // dispatcher never started
}

TEST(AsyncQueue, ErrorsSurfaceOnWait) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  // indivisible local size -> the dispatcher hits the validation error
  const AsyncEventPtr ev = q.enqueue_ndrange_async(k, NDRange{10}, NDRange{3});
  EXPECT_THROW(ev->wait(), core::Error);
  // the queue survives and continues processing
  const AsyncEventPtr ok = q.enqueue_ndrange_async(k, NDRange{16}, NDRange{4});
  EXPECT_NO_THROW(ok->wait());
}

}  // namespace
}  // namespace mcl::ocl

// ----- randomized NDRange coverage fuzz --------------------------------------------

#include "core/rng.hpp"
#include "testseed.hpp"

namespace mcl::ocl {
namespace {

/// Property: for arbitrary (global, local, executor) combinations, every
/// workitem runs exactly once with self-consistent ids. 60 random shapes
/// per executor, seeded deterministically.
class NDRangeFuzz : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(NDRangeFuzz, RandomShapesCoverExactlyOnce) {
  core::Rng rng(mcl::test::seed(0xF00D));
  CpuDevice device(CpuDeviceConfig{.threads = 2, .executor = GetParam()});
  Context ctx(device);
  CommandQueue q(ctx);

  for (int trial = 0; trial < 60; ++trial) {
    const auto dims = 1 + rng.next_below(3);
    NDRange global, local;
    global.dims = local.dims = dims;
    for (std::size_t d = 0; d < 3; ++d) {
      if (d < dims) {
        // local in [1, 8], global = local * [1, 12]
        local.size[d] = 1 + rng.next_below(8);
        global.size[d] = local.size[d] * (1 + rng.next_below(12));
      } else {
        global.size[d] = local.size[d] = 1;
      }
    }
    const std::size_t n = global.total();
    Buffer g(MemFlags::ReadWrite, n * 4);
    Buffer grp(MemFlags::ReadWrite, n * 4);
    Buffer loc(MemFlags::ReadWrite, n * 4);
    const unsigned sentinel = 0xdeadbeef;
    (void)q.enqueue_fill_buffer(g, &sentinel, 4, 0, n * 4);

    Kernel k = ctx.create_kernel(Program::builtin(), "test_record_ids");
    k.set_arg(0, g);
    k.set_arg(1, grp);
    k.set_arg(2, loc);
    (void)q.enqueue_ndrange(k, global, local);

    const auto* gid = g.as<const unsigned>();
    for (std::size_t z = 0; z < global[2]; ++z) {
      for (std::size_t y = 0; y < global[1]; ++y) {
        for (std::size_t x = 0; x < global[0]; ++x) {
          const std::size_t idx = (z * global[1] + y) * global[0] + x;
          ASSERT_EQ(gid[idx], x)
              << "trial " << trial << " global=" << global[0] << "x"
              << global[1] << "x" << global[2] << " local=" << local[0] << "x"
              << local[1] << "x" << local[2] << " idx=" << idx;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Executors, NDRangeFuzz,
                         ::testing::Values(ExecutorKind::Loop,
                                           ExecutorKind::Fiber),
                         [](const auto& info) {
                           return info.param == ExecutorKind::Loop ? "Loop"
                                                                   : "Fiber";
                         });

TEST(NDRangeFuzz, SimdExecutorRandomShapesMatchLoop) {
  // The SIMD executor runs kernels with a simd form; compare outputs of
  // test_double against the loop executor over random 1D/2D shapes.
  core::Rng rng(mcl::test::seed(0xBEEF));
  CpuDevice loop_dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  CpuDevice simd_dev(CpuDeviceConfig{.executor = ExecutorKind::Simd});

  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t local = 1 + rng.next_below(40);
    const std::size_t n = local * (1 + rng.next_below(20));
    std::vector<float> in(n);
    for (auto& v : in) v = rng.next_float(-8.0f, 8.0f);

    auto run = [&](CpuDevice& dev) {
      Context ctx(dev);
      CommandQueue q(ctx);
      Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4, in.data());
      Buffer bout(MemFlags::WriteOnly, n * 4);
      Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
      k.set_arg(0, bin);
      k.set_arg(1, bout);
      (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{local});
      std::vector<float> out(n);
      (void)q.enqueue_read_buffer(bout, 0, n * 4, out.data());
      return out;
    };
    ASSERT_EQ(run(loop_dev), run(simd_dev))
        << "trial " << trial << " n=" << n << " local=" << local;
  }
}

}  // namespace
}  // namespace mcl::ocl

// ----- Image2D objects --------------------------------------------------------------

#include "ocl/image.hpp"

namespace mcl::ocl {
namespace {

TEST(Image2D, ConstructionAndLayout) {
  Image2D gray(16, 8, 1);
  EXPECT_EQ(gray.width(), 16u);
  EXPECT_EQ(gray.height(), 8u);
  EXPECT_EQ(gray.float_count(), 128u);
  Image2D rgba(4, 4, 4);
  EXPECT_EQ(rgba.float_count(), 64u);
  EXPECT_THROW(Image2D(0, 4, 1), core::Error);
  EXPECT_THROW(Image2D(4, 4, 3), core::Error);  // only 1 or 4 channels
}

TEST(Image2D, ZeroInitialized) {
  Image2D img(8, 8, 1);
  for (std::size_t i = 0; i < img.float_count(); ++i) {
    EXPECT_EQ(img.data()[i], 0.0f);
  }
}

TEST(ImageView, ClampToEdgeSampling) {
  Image2D img(4, 3, 1);
  for (std::size_t y = 0; y < 3; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      img.view().write(x, y, static_cast<float>(y * 10 + x));
    }
  }
  const ImageView& v = img.view();
  EXPECT_EQ(v.read_clamped(1, 1), 11.0f);       // interior
  EXPECT_EQ(v.read_clamped(-5, 0), 0.0f);       // left edge clamps to x=0
  EXPECT_EQ(v.read_clamped(99, 0), 3.0f);       // right edge
  EXPECT_EQ(v.read_clamped(0, -2), 0.0f);       // top
  EXPECT_EQ(v.read_clamped(2, 50), 22.0f);      // bottom
  EXPECT_EQ(v.read_clamped(-1, -1), 0.0f);      // corner
}

TEST(ImageView, MultiChannelAccess) {
  Image2D img(2, 2, 4);
  img.view().write(1, 1, 7.0f, 2);
  EXPECT_EQ(img.view().read_clamped(1, 1, 2), 7.0f);
  EXPECT_EQ(img.view().read_clamped(1, 1, 3), 0.0f);
}

TEST(KernelArgs, ImageSlots) {
  Image2D img(4, 4, 1);
  KernelArgs args;
  args.set_image(0, img);
  EXPECT_TRUE(args.is_image(0));
  EXPECT_TRUE(args.is_set(0));
  EXPECT_FALSE(args.is_buffer(0));
  EXPECT_EQ(args.image(0).data, img.data());
  EXPECT_EQ(args.image(0).width, 4u);
}

}  // namespace
}  // namespace mcl::ocl

// ----- global work offsets -----------------------------------------------------------

namespace mcl::ocl {
namespace {

/// Kernel writing its global id relative to the offset region start.
void offset_probe(const KernelArgs& a, const WorkItemCtx& c) {
  // store global_id(0) into out[global_id(0) - base], where base comes from
  // a scalar arg so the test controls addressing.
  const auto base = a.scalar<unsigned>(1);
  a.buffer<unsigned>(0)[c.global_id(0) - base] =
      static_cast<unsigned>(c.global_id(0) + 1000 * c.global_id(1));
}
const KernelRegistrar reg_offset_probe{
    {.name = "test_offset_probe", .scalar = &offset_probe}};

TEST(GlobalOffset, ShiftsGlobalIds1D) {
  CpuDevice dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 64, base = 100;
  Buffer out(MemFlags::ReadWrite, n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_offset_probe");
  k.set_arg(0, out);
  k.set_arg(1, static_cast<unsigned>(base));
  (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{16}, NDRange{base});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.as<unsigned>()[i], static_cast<unsigned>(base + i)) << i;
  }
}

TEST(GlobalOffset, ShiftsGlobalIds2D) {
  CpuDevice dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  Context ctx(dev);
  CommandQueue q(ctx);
  // 8x4 region at offset (16, 2); ids recorded as x + 1000*y.
  Buffer out(MemFlags::ReadWrite, 8 * 4 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_record_ids");
  Buffer grp(MemFlags::ReadWrite, 8 * 4 * 4);
  Buffer loc(MemFlags::ReadWrite, 8 * 4 * 4);
  k.set_arg(0, out);
  k.set_arg(1, grp);
  k.set_arg(2, loc);
  // test_record_ids indexes by global ids, which now exceed the buffer —
  // so use offset (0,0) sanity via the probe kernel instead for the 2D case:
  Buffer probe_out(MemFlags::ReadWrite, 8 * 4 * 4);
  Kernel pk = ctx.create_kernel(Program::builtin(), "test_offset_probe");
  pk.set_arg(0, probe_out);
  pk.set_arg(1, 16u);
  (void)q.enqueue_ndrange(pk, NDRange(8, 4), NDRange(4, 2), NDRange(16, 2));
  // Rows share output slots (the probe indexes by x only), so slot 0 holds
  // x=16 from whichever row wrote last: check both components' ranges.
  const unsigned v = probe_out.as<unsigned>()[0];
  EXPECT_EQ(v % 1000u, 16u);            // gid(0) = offset_x + 0
  EXPECT_GE(v / 1000u, 2u);             // gid(1) in [2, 6)
  EXPECT_LT(v / 1000u, 6u);
}

TEST(GlobalOffset, FiberAndSimdExecutorsAgree) {
  const std::size_t n = 48, base = 8;
  auto run = [&](ExecutorKind kind) {
    CpuDevice dev(CpuDeviceConfig{.executor = kind});
    Context ctx(dev);
    CommandQueue q(ctx);
    Buffer bin(MemFlags::ReadWrite, (n + base) * 4);
    Buffer bout(MemFlags::ReadWrite, (n + base) * 4);
    for (std::size_t i = 0; i < n + base; ++i) {
      bin.as<float>()[i] = static_cast<float>(i);
    }
    Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{8}, NDRange{base});
    std::vector<float> out(n + base);
    (void)q.enqueue_read_buffer(bout, 0, (n + base) * 4, out.data());
    return out;
  };
  const auto loop = run(ExecutorKind::Loop);
  const auto simd = run(ExecutorKind::Simd);
  const auto fiber = run(ExecutorKind::Fiber);
  EXPECT_EQ(loop, simd);
  EXPECT_EQ(loop, fiber);
  // items [base, base+n) doubled; [0, base) untouched.
  EXPECT_EQ(loop[base], 2.0f * static_cast<float>(base));
  EXPECT_EQ(loop[0], 0.0f);
}

TEST(GlobalOffset, DimsMismatchRejected) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  EXPECT_THROW(
      (void)q.enqueue_ndrange(k, NDRange{16}, NDRange{4}, NDRange(2, 2)),
      core::Error);
}

}  // namespace
}  // namespace mcl::ocl

// ----- host error paths (H1-H3) and transfer range checks ----------------------
//
// A malformed host plan must surface as a core::Error carrying a precise
// Status — never an abort, a hang, or a silent wrong launch. These mirror
// the mclsan host-lint rules H1 (unset args), H2 (executor routing), and
// H3 (NDRange shape), plus the overflow-safe transfer range check.

#include <functional>

#include "core/error.hpp"

namespace mcl::ocl {
namespace {

core::Status launch_status(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const core::Error& e) {
    return e.status();
  }
  return core::Status::Success;
}

TEST(HostErrors, H1UnsetKernelArgReturnsInvalidKernelArgs) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_record_ids");
  // Bind slots 0 and 2, leaving a hole at slot 1 — the detectable H1 shape
  // (MiniCL has no arity metadata, so a missing *trailing* arg is invisible
  // to the host; only gaps below the highest bound slot can be linted).
  k.set_arg(0, b);
  k.set_arg(2, b);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_ndrange(k, NDRange{16}, NDRange{4});
            }),
            core::Status::InvalidKernelArgs);
}

TEST(HostErrors, H2BarrierKernelOnLoopExecutorReturnsInvalidLaunch) {
  CpuDevice dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_neighbor");
  k.set_arg(0, b);
  k.set_arg(1, 0);  // unused scalar to keep arg indices stable
  k.set_arg_local(2, 4 * 4);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_ndrange(k, NDRange{16}, NDRange{4});
            }),
            core::Status::InvalidLaunch);
}

TEST(HostErrors, H3NonDivisibleGlobalReturnsInvalidWorkGroupSize) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64 * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), "test_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_ndrange(k, NDRange{10}, NDRange{4});
            }),
            core::Status::InvalidWorkGroupSize);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_ndrange(k, NDRange{16}, NDRange(4, 4));
            }),
            core::Status::InvalidWorkGroupSize);
}

TEST(TransferRange, ZeroByteTransfersAreNoOps) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16);
  float unused = 0.0f;
  // Zero-size reads/writes succeed at any offset, including one past the
  // end — nothing is touched, so there is nothing to range-check.
  EXPECT_NO_THROW((void)q.enqueue_write_buffer(b, 16, 0, &unused));
  EXPECT_NO_THROW((void)q.enqueue_read_buffer(b, 16, 0, &unused));
  EXPECT_NO_THROW((void)q.enqueue_copy_buffer(b, b, 0, 8, 0));
}

TEST(TransferRange, OverflowAdjacentOffsetsRejectedNotWrapped) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16);
  std::vector<std::byte> host(16);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // offset + bytes wraps to a small number; the naive `offset + bytes <=
  // size` check would wave these through.
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_write_buffer(b, kMax, 2, host.data());
            }),
            core::Status::InvalidValue);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_read_buffer(b, kMax - 1, 2, host.data());
            }),
            core::Status::InvalidValue);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_write_buffer(b, 8, kMax, host.data());
            }),
            core::Status::InvalidValue);
  // Exact fit passes; one byte past fails.
  EXPECT_NO_THROW((void)q.enqueue_write_buffer(b, 0, 16, host.data()));
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_write_buffer(b, 1, 16, host.data());
            }),
            core::Status::InvalidValue);
}

TEST(TransferRange, MapRangeCheckedLikeTransfers) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 16);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_map_buffer(b, MapFlags::Read, kMax, 2);
            }),
            core::Status::InvalidValue);
  EXPECT_EQ(launch_status([&] {
              (void)q.enqueue_map_buffer(b, MapFlags::Read, 8, 9);
            }),
            core::Status::InvalidValue);
}

}  // namespace
}  // namespace mcl::ocl
