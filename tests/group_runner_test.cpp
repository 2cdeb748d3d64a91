// GroupRunner::run_groups range semantics: running [0, total_groups) as any
// split into consecutive ranges must give bitwise the same output as one
// run_groups(g, g + 1) per group, for every executor and NDRange rank. The
// splits are enumerated exhaustively, so ranges that wrap dim 0 and dim 1
// (group-id carry) and ranges that reuse the local-memory arena across
// groups are all covered.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/hostdata.hpp"
#include "apps/matrixmul.hpp"
#include "ocl/detail/group_runner.hpp"
#include "ocl/kernel.hpp"
#include "simd/vec.hpp"

namespace mcl::ocl {
namespace {

using detail::GroupRunner;

constexpr std::size_t kW = static_cast<std::size_t>(simd::kNativeFloatWidth);

// ----- id-recording kernels ----------------------------------------------------
//
// Args: 0 out (uint32, two words per item), 1..3 global offset (unsigned).
// Word 0 encodes the item's global id, word 1 its group and local ids; the
// slot is the item's row-major index within the un-offset NDRange.

std::uint32_t encode_global(std::size_t g0, std::size_t g1, std::size_t g2) {
  return static_cast<std::uint32_t>(g0 | g1 << 10 | g2 << 20);
}
std::uint32_t encode_group_local(const std::size_t grp[3],
                                 const std::size_t loc[3]) {
  return static_cast<std::uint32_t>(grp[0] | grp[1] << 5 | grp[2] << 10 |
                                    loc[0] << 15 | loc[1] << 20 |
                                    loc[2] << 25);
}

/// Writes both words for the item at global id (g0, g1, g2).
void store_item(const KernelArgs& a, std::size_t g0, std::size_t g1,
                std::size_t g2, const std::size_t gsize[3],
                const std::size_t lsize[3], std::uint32_t value0) {
  const std::size_t off[3] = {a.scalar<unsigned>(1), a.scalar<unsigned>(2),
                              a.scalar<unsigned>(3)};
  const std::size_t rel[3] = {g0 - off[0], g1 - off[1], g2 - off[2]};
  const std::size_t grp[3] = {rel[0] / lsize[0], rel[1] / lsize[1],
                              rel[2] / lsize[2]};
  const std::size_t loc[3] = {rel[0] % lsize[0], rel[1] % lsize[1],
                              rel[2] % lsize[2]};
  const std::size_t slot = (rel[2] * gsize[1] + rel[1]) * gsize[0] + rel[0];
  a.buffer<std::uint32_t>(0)[2 * slot] = value0;
  a.buffer<std::uint32_t>(0)[2 * slot + 1] = encode_group_local(grp, loc);
}

void ids_scalar(const KernelArgs& a, const WorkItemCtx& c) {
  // Word 1 comes from the context's own group and local ids, so a wrong
  // group decode shows even where the global id happens to be right.
  const std::size_t off[3] = {a.scalar<unsigned>(1), a.scalar<unsigned>(2),
                              a.scalar<unsigned>(3)};
  const std::size_t grp[3] = {c.group_id(0), c.group_id(1), c.group_id(2)};
  const std::size_t loc[3] = {c.local_id(0), c.local_id(1), c.local_id(2)};
  const std::size_t slot =
      ((c.global_id(2) - off[2]) * c.global_size(1) + c.global_id(1) -
       off[1]) * c.global_size(0) +
      c.global_id(0) - off[0];
  a.buffer<std::uint32_t>(0)[2 * slot] =
      encode_global(c.global_id(0), c.global_id(1), c.global_id(2));
  a.buffer<std::uint32_t>(0)[2 * slot + 1] = encode_group_local(grp, loc);
}

/// Simd body calls so far: the executor makes one per (group, z) plane.
std::atomic<std::size_t> g_simd_calls{0};

void ids_simd(const KernelArgs& a, const SimdItemCtx& c) {
  g_simd_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t gsize[3] = {c.global_size(0), c.global_size(1),
                                c.global_size(2)};
  const std::size_t lsize[3] = {c.local_size(0), c.local_size(1),
                                c.local_size(2)};
  const std::size_t width = static_cast<std::size_t>(c.width());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    const std::size_t g1 = c.global_id(1) + r;
    for (std::size_t g = 0; g < c.lane_groups(); ++g) {
      for (std::size_t lane = 0; lane < width; ++lane) {
        const std::size_t g0 = c.global_base() + g * width + lane;
        store_item(a, g0, g1, c.global_id(2), gsize, lsize,
                   encode_global(g0, g1, c.global_id(2)));
      }
    }
  }
}

void ids_workgroup(const KernelArgs& a, const WorkGroupCtx& wg) {
  const std::size_t gsize[3] = {wg.global_size(0), wg.global_size(1),
                                wg.global_size(2)};
  const std::size_t lsize[3] = {wg.local_size(0), wg.local_size(1),
                                wg.local_size(2)};
  wg.for_each_item([&](const WorkItemCtx& c) {
    store_item(a, c.global_id(0), c.global_id(1), c.global_id(2), gsize,
               lsize,
               encode_global(c.global_id(0), c.global_id(1), c.global_id(2)));
  });
}

/// Barrier kernel: each item publishes its word-0 value in local memory
/// (arg 4) and, after the barrier, stores its dim-0 neighbor's instead.
void ids_barrier(const KernelArgs& a, const WorkItemCtx& c) {
  auto* lmem = c.local_mem<std::uint32_t>(4);
  const std::size_t lx = c.local_size(0);
  const std::size_t row =
      (c.local_id(2) * c.local_size(1) + c.local_id(1)) * lx;
  lmem[row + c.local_id(0)] =
      encode_global(c.global_id(0), c.global_id(1), c.global_id(2));
  c.barrier();
  const std::size_t gsize[3] = {c.global_size(0), c.global_size(1),
                                c.global_size(2)};
  const std::size_t lsize[3] = {lx, c.local_size(1), c.local_size(2)};
  store_item(a, c.global_id(0), c.global_id(1), c.global_id(2), gsize, lsize,
             lmem[row + (c.local_id(0) + 1) % lx]);
}

const KernelDef kIdsDef{.name = "runner_ids",
                        .scalar = &ids_scalar,
                        .simd = &ids_simd};
const KernelDef kIdsWorkgroupDef{.name = "runner_ids_wg",
                                 .scalar = &ids_scalar,
                                 .workgroup = &ids_workgroup};
const KernelDef kIdsBarrierDef{.name = "runner_ids_barrier",
                               .scalar = &ids_barrier,
                               .needs_barrier = true};

// ----- split enumeration -----------------------------------------------------------

/// Calls fn(ranges) for each of the 2^(total-1) ways to cut [0, total) into
/// consecutive non-empty ranges: bit i of the mask cuts after group i.
template <typename Fn>
void for_each_split(std::size_t total, Fn&& fn) {
  ASSERT_LE(total, 16u);
  const std::size_t masks = std::size_t{1} << (total - 1);
  for (std::size_t mask = 0; mask < masks; ++mask) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t begin = 0;
    for (std::size_t i = 0; i + 1 < total; ++i) {
      if ((mask >> i) & 1) {
        ranges.emplace_back(begin, i + 1);
        begin = i + 1;
      }
    }
    ranges.emplace_back(begin, total);
    fn(mask, ranges);
  }
}

/// Runs `runner` once per group (the reference) and then once per split,
/// requiring every split's output bytes in `out` to equal the reference.
/// Returns the reference output.
std::vector<std::byte> check_all_splits(const GroupRunner& runner,
                                        Buffer& out) {
  auto* bytes = static_cast<std::byte*>(out.device_ptr());
  std::memset(bytes, 0, out.size());
  for (std::size_t g = 0; g < runner.total_groups(); ++g) {
    runner.run_groups(g, g + 1);
  }
  std::vector<std::byte> reference(bytes, bytes + out.size());
  for_each_split(runner.total_groups(), [&](std::size_t mask,
                                            const auto& ranges) {
    std::memset(bytes, 0, out.size());
    for (const auto& [begin, end] : ranges) runner.run_groups(begin, end);
    ASSERT_EQ(std::memcmp(bytes, reference.data(), out.size()), 0)
        << "split mask " << mask << " of " << runner.total_groups()
        << " groups";
  });
  return reference;
}

// ----- id kernels over 1-D, 2-D and 3-D NDRanges -------------------------------------

struct RangeCase {
  const char* name;
  NDRange global;
  NDRange local;
  NDRange offset;
};

// local[0] = W + 3: a Simd group runs one lane group plus a scalar remainder
// in every row (on a W = 1 build every item is a lane group). In the plane
// cases one Simd call covers 3 or 5 rows; "3d_plane" has no remainder.
const RangeCase kCases[] = {
    {"1d", NDRange{6 * (kW + 3)}, NDRange{kW + 3}, NDRange{7}},
    {"2d", NDRange(3 * (kW + 3), 3 * 2), NDRange(kW + 3, 2), NDRange(5, 3)},
    {"3d", NDRange(2 * (kW + 3), 2 * 2, 2 * 3), NDRange(kW + 3, 2, 3),
     NDRange(4, 1, 2)},
    {"2d_plane", NDRange(2 * (kW + 3), 2 * 3), NDRange(kW + 3, 3),
     NDRange(1, 2)},
    {"3d_plane", NDRange(2 * kW, 2 * 5, 2 * 2), NDRange(kW, 5, 2),
     NDRange(3, 0, 1)},
};

struct ExecCase {
  const char* name;
  const KernelDef* def;
  ExecutorKind kind;
};

void PrintTo(const RangeCase& c, std::ostream* os) { *os << c.name; }
void PrintTo(const ExecCase& c, std::ostream* os) { *os << c.name; }

const ExecCase kExecs[] = {
    {"loop", &kIdsDef, ExecutorKind::Loop},
    {"simd", &kIdsDef, ExecutorKind::Simd},
    {"fiber", &kIdsBarrierDef, ExecutorKind::Fiber},
    {"workgroup", &kIdsWorkgroupDef, ExecutorKind::Auto},
};

/// Word 0 the kernel must store for the item at un-offset position `rel`.
std::uint32_t expected_word0(const ExecCase& exec, const RangeCase& rc,
                             const std::size_t rel[3]) {
  std::size_t g[3];
  for (std::size_t d = 0; d < 3; ++d) {
    g[d] = rc.offset.offset_component(d) + rel[d];
  }
  if (exec.kind == ExecutorKind::Fiber) {
    // The barrier kernel stores its dim-0 neighbor within the group.
    const std::size_t lx = rc.local[0];
    g[0] = g[0] - rel[0] % lx + (rel[0] % lx + 1) % lx;
  }
  return encode_global(g[0], g[1], g[2]);
}

class RunGroupsSplit
    : public ::testing::TestWithParam<std::tuple<RangeCase, ExecCase>> {};

TEST_P(RunGroupsSplit, EverySplitMatchesPerGroupRuns) {
  const auto& [rc, exec] = GetParam();
  const std::size_t items = rc.global.total();
  Buffer out(MemFlags::ReadWrite, items * 2 * sizeof(std::uint32_t));
  KernelArgs args;
  args.set_buffer(0, out);
  for (std::size_t d = 0; d < 3; ++d) {
    args.set_scalar(1 + d, static_cast<unsigned>(rc.offset.offset_component(d)));
  }
  if (exec.def->needs_barrier) {
    args.set_local(4, rc.local.total() * sizeof(std::uint32_t));
  }
  const GroupRunner runner(*exec.def, args, rc.global, rc.local, exec.kind,
                           64 * 1024, rc.offset);
  ASSERT_EQ(runner.executor(), exec.kind == ExecutorKind::Auto
                                   ? ExecutorKind::Loop
                                   : exec.kind);

  g_simd_calls = 0;
  const std::vector<std::byte> reference = check_all_splits(runner, out);
  if (exec.kind == ExecutorKind::Simd) {
    // One call per (group, z) plane: the per-group reference pass plus one
    // pass per split, 2^(groups - 1) splits.
    const std::size_t passes =
        1 + (std::size_t{1} << (runner.total_groups() - 1));
    EXPECT_EQ(g_simd_calls.load(),
              passes * runner.total_groups() * rc.local[2]);
  }

  // The per-group reference itself must hold every item's exact ids.
  std::vector<std::uint32_t> words(items * 2);
  std::memcpy(words.data(), reference.data(), reference.size());
  const std::size_t gs[3] = {rc.global[0], rc.global[1], rc.global[2]};
  const std::size_t ls[3] = {rc.local[0], rc.local[1], rc.local[2]};
  for (std::size_t z = 0; z < gs[2]; ++z) {
    for (std::size_t y = 0; y < gs[1]; ++y) {
      for (std::size_t x = 0; x < gs[0]; ++x) {
        const std::size_t rel[3] = {x, y, z};
        const std::size_t grp[3] = {x / ls[0], y / ls[1], z / ls[2]};
        const std::size_t loc[3] = {x % ls[0], y % ls[1], z % ls[2]};
        const std::size_t slot = (z * gs[1] + y) * gs[0] + x;
        ASSERT_EQ(words[2 * slot], expected_word0(exec, rc, rel))
            << "item (" << x << "," << y << "," << z << ")";
        ASSERT_EQ(words[2 * slot + 1], encode_group_local(grp, loc))
            << "item (" << x << "," << y << "," << z << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndExecutors, RunGroupsSplit,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::ValuesIn(kExecs)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::get<1>(info.param).name;
    });

// ----- tiled Matrixmul: the local arena is reused across one range's groups --

class RunGroupsTiledMatrixmul : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunGroupsTiledMatrixmul, EverySplitMatchesPerGroupRuns) {
  const std::size_t t = GetParam();
  const std::size_t n = 3 * t;  // 3 x 3 = 9 groups
  apps::FloatVec a = apps::random_floats(n * n, 11, -1.0f, 1.0f);
  apps::FloatVec b = apps::random_floats(n * n, 12, -1.0f, 1.0f);
  Buffer ba(MemFlags::ReadOnly | MemFlags::UseHostPtr, n * n * 4, a.data());
  Buffer bb(MemFlags::ReadOnly | MemFlags::UseHostPtr, n * n * 4, b.data());
  Buffer bc(MemFlags::ReadWrite, n * n * 4);
  KernelArgs args;
  args.set_buffer(0, ba);
  args.set_buffer(1, bb);
  args.set_buffer(2, bc);
  for (std::size_t slot : {3u, 4u, 5u}) args.set_scalar(slot, static_cast<unsigned>(n));
  for (std::size_t slot : {6u, 7u, 8u}) args.set_local(slot, t * t * 4);
  const KernelDef& def = Program::builtin().lookup("matrixmul");
  ASSERT_NE(def.workgroup, nullptr);
  const GroupRunner runner(def, args, NDRange(n, n), NDRange(t, t),
                           ExecutorKind::Auto, 64 * 1024);
  ASSERT_EQ(runner.total_groups(), 9u);

  const std::vector<std::byte> reference = check_all_splits(runner, bc);
  std::vector<float> c(n * n);
  std::memcpy(c.data(), reference.data(), reference.size());
  std::vector<float> expected(n * n);
  apps::matmul_reference(a, b, expected, n, n, n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-4f) << "element " << i;
  }
}

// T = 4 runs the scalar row body on wide-SIMD builds, T = 8 the vector one.
INSTANTIATE_TEST_SUITE_P(Tiles, RunGroupsTiledMatrixmul,
                         ::testing::Values(std::size_t{4}, std::size_t{8}));

}  // namespace
}  // namespace mcl::ocl
