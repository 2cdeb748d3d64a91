// mclsan tests: static IR analysis (races, bounds, barrier placement),
// host-API lint, the Checked executor's dynamic findings, and the
// num_groups/enqueue-validation regressions that ride along.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <vector>

#include "apps/mbench.hpp"
#include "apps/simple.hpp"
#include "core/error.hpp"
#include "ocl/detail/ctx_access.hpp"
#include "ocl/device.hpp"
#include "ocl/queue.hpp"
#include "san/lint.hpp"
#include "san/static_analysis.hpp"
#include "veclegal/analysis.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl {
namespace {

using ocl::Buffer;
using ocl::CommandQueue;
using ocl::Context;
using ocl::CpuDevice;
using ocl::CpuDeviceConfig;
using ocl::CtxAccess;
using ocl::ExecutorKind;
using ocl::Kernel;
using ocl::KernelDef;
using ocl::KernelRegistrar;
using ocl::MemFlags;
using ocl::NDRange;
using ocl::Program;
using ocl::WorkItemCtx;
using san::Rule;
using veclegal::ArrayInfo;
using veclegal::barrier_stmt;
using veclegal::KernelIr;
using veclegal::KernelIrRegistry;
using veclegal::ref;
using veclegal::store;

// ----- test kernels -----------------------------------------------------------

/// Only even-numbered workitems reach the barrier: divergence.
void divergent_kernel(const ocl::KernelArgs& a, const WorkItemCtx& c) {
  if (c.local_id(0) % 2 == 0) c.barrier();
  a.buffer<float>(0)[c.global_id(0)] = 1.0f;
}
const KernelRegistrar reg_divergent{{.name = "san_test_divergent",
                                     .scalar = &divergent_kernel,
                                     .needs_barrier = true}};

/// Uniform barrier: every item passes it once (control case).
void uniform_barrier_kernel(const ocl::KernelArgs& a, const WorkItemCtx& c) {
  c.barrier();
  a.buffer<float>(0)[c.global_id(0)] = 1.0f;
}
const KernelRegistrar reg_uniform{{.name = "san_test_uniform_barrier",
                                   .scalar = &uniform_barrier_kernel,
                                   .needs_barrier = true}};

/// Writes whatever arg 0 is bound to; tests bind a ReadOnly buffer.
void write_arg0_kernel(const ocl::KernelArgs& a, const WorkItemCtx& c) {
  a.buffer<float>(0)[c.global_id(0)] += 1.0f;
}
const KernelRegistrar reg_write_arg0{
    {.name = "san_test_write_arg0", .scalar = &write_arg0_kernel}};

/// Requests 8 floats of local memory at arg 1 but stores to slot 10.
void local_overflow_kernel(const ocl::KernelArgs& a, const WorkItemCtx& c) {
  (void)a;
  c.local_mem<float>(1)[10] = 1.0f;
}
const KernelRegistrar reg_local_overflow{
    {.name = "san_test_local_overflow", .scalar = &local_overflow_kernel}};

/// Appends its workgroup's id to arg 0 when the group's first item runs;
/// arg 1 holds the next free slot, so only a serial device may run it.
void group_order_kernel(const ocl::KernelArgs& a, const WorkItemCtx& c) {
  if (c.local_id(0) != 0) return;
  unsigned& next = a.buffer<unsigned>(1)[0];
  a.buffer<unsigned>(0)[next++] = static_cast<unsigned>(c.group_id(0));
}
const KernelRegistrar reg_group_order{
    {.name = "san_test_group_order", .scalar = &group_order_kernel}};

// ----- static analysis: table-driven race/bounds/barrier cases -----------------

KernelIr one_stmt_ir(veclegal::Stmt stmt, std::vector<ArrayInfo> arrays,
                     long long trip = 1024) {
  KernelIr ir;
  ir.body.trip_count = trip;
  ir.body.stmts.push_back(std::move(stmt));
  ir.arrays = std::move(arrays);
  return ir;
}

TEST(SanStatic, RaceAndBoundsTable) {
  struct Case {
    const char* name;
    KernelIr ir;
    bool clean;
    Rule expected;  // meaningful when !clean
  };
  std::vector<Case> cases;
  // Race-free elementwise body.
  cases.push_back({"elementwise",
                   one_stmt_ir(store(ref(2), {ref(0), ref(1)}, "c[i]=a[i]+b[i]"),
                               {{.array = 0, .arg_index = 0, .extent = 1024},
                                {.array = 1, .arg_index = 1, .extent = 1024},
                                {.array = 2, .arg_index = 2, .extent = 1024}}),
                   true, Rule::S2WriteWriteRace});
  // Loop-carried read of the neighbor: inter-item read-write race.
  cases.push_back({"carried",
                   one_stmt_ir(store(ref(0, 1, 1), {ref(0)}, "a[i+1]=f(a[i])"),
                               {{.array = 0, .arg_index = 0, .extent = 2048}}),
                   false, Rule::S3ReadWriteRace});
  // Scale-0 store: every item writes one element (the S1 generalization).
  cases.push_back({"broadcast-store",
                   one_stmt_ir(store(ref(0, 0, 7), {ref(1)}, "a[7]=b[i]"),
                               {{.array = 0, .arg_index = 0, .extent = 1024},
                                {.array = 1, .arg_index = 1, .extent = 1024}}),
                   false, Rule::S2WriteWriteRace});
  // Strided write beyond the declared extent.
  cases.push_back({"oob-strided",
                   one_stmt_ir(store(ref(0, 2), {}, "a[2i]=0"),
                               {{.array = 0, .arg_index = 0, .extent = 1024}}),
                   false, Rule::B1OutOfBounds});
  // Write through an array declared read-only.
  cases.push_back(
      {"readonly-write",
       one_stmt_ir(store(ref(0), {}, "a[i]=0"),
                   {{.array = 0, .arg_index = 0, .extent = 1024,
                     .read_only = true}}),
       false, Rule::W1ReadOnlyWrite});
  // Divergent barrier.
  {
    KernelIr ir;
    ir.body.trip_count = 1024;
    ir.body.straight_line = false;
    ir.body.stmts.push_back(barrier_stmt(/*divergent=*/true,
                                         "if (lid&1) barrier()"));
    cases.push_back({"divergent-barrier", std::move(ir), false,
                     Rule::P1BarrierDivergence});
  }

  for (Case& c : cases) {
    const san::Report report = san::analyze_kernel(c.name, c.ir);
    EXPECT_EQ(report.clean(), c.clean) << c.name << ":\n" << report.to_string();
    if (!c.clean) {
      EXPECT_TRUE(report.has_rule(c.expected))
          << c.name << ":\n" << report.to_string();
    }
  }
}

TEST(SanStatic, BarrierEpochSeparatesLocalNotGlobal) {
  // write lm[i]; barrier; read lm[i+1] — the classic neighbor exchange.
  auto body = [](bool local) {
    KernelIr ir;
    ir.body.trip_count = 64;
    ir.body.stmts.push_back(store(ref(0), {}, "m[i] = gid"));
    ir.body.stmts.push_back(barrier_stmt());
    ir.body.stmts.push_back(store(ref(1), {ref(0, 1, 1)}, "out[i] = m[i+1]"));
    // extent 65: the m[i+1] read must stay in bounds so only race rules fire
    ir.arrays = {{.array = 0, .arg_index = 2, .extent = 65, .local = local},
                 {.array = 1, .arg_index = 0, .extent = 64}};
    return ir;
  };
  // Local array: the barrier orders the write epoch before the read epoch.
  EXPECT_TRUE(san::analyze_kernel("neighbor-local", body(true)).clean());
  // Global array: groups don't synchronize at barriers — still a race.
  const san::Report global_report =
      san::analyze_kernel("neighbor-global", body(false));
  EXPECT_FALSE(global_report.clean());
  EXPECT_TRUE(global_report.has_rule(Rule::S3ReadWriteRace));
}

TEST(SanStatic, ItemsCollideSolver) {
  using veclegal::Subscript;
  // Same stride, distance 1 within range.
  EXPECT_TRUE(san::items_collide({1, 0}, {1, 1}, 1024));
  // Same stride, distance 0: one item only, never inter-item.
  EXPECT_FALSE(san::items_collide({1, 0}, {1, 0}, 1024));
  // Distance beyond the item count.
  EXPECT_FALSE(san::items_collide({1, 0}, {1, 2048}, 1024));
  // Pinned element vs stride that hits it.
  EXPECT_TRUE(san::items_collide({0, 6}, {2, 0}, 1024));
  // Pinned element the stride can never reach.
  EXPECT_FALSE(san::items_collide({0, 7}, {2, 0}, 1024));
  // Different strides, exact solve: 2i == 3j + 1 at (i=2, j=1).
  EXPECT_TRUE(san::items_collide({2, 0}, {3, 1}, 16));
  // Different strides with no solution in range: 2i == 2j + 1 is odd vs even.
  EXPECT_FALSE(san::items_collide({2, 0}, {2, 1}, 16));
  // Huge space falls back to gcd solvability (conservative).
  EXPECT_TRUE(san::items_collide({2, 0}, {3, 1}, 1 << 30));
  EXPECT_FALSE(san::items_collide({2, 0}, {4, 1}, 1 << 30));
}

TEST(SanStatic, ItemsCollideEdgeCases) {
  using san::items_collide;
  // Negative strides mirror positive ones: -i+1023 meets j at i+j = 1023.
  EXPECT_TRUE(items_collide({-1, 1023}, {1, 0}, 1024));
  EXPECT_FALSE(items_collide({-2, 0}, {-2, 1}, 1024));  // parity again
  EXPECT_TRUE(items_collide({-2, 0}, {2, -4}, 16));     // (i=0, j=2) -> 0
  // n == 0 means unknown launch size: any stride-divisible distance collides,
  // including pinned elements every item touches.
  EXPECT_TRUE(items_collide({1, 0}, {1, 5}, 0));
  EXPECT_TRUE(items_collide({0, 3}, {0, 3}, 0));
  EXPECT_FALSE(items_collide({0, 3}, {0, 4}, 0));
  // A single workitem has no distinct partner, pinned or not.
  EXPECT_FALSE(items_collide({0, 3}, {0, 3}, 1));
  EXPECT_FALSE(items_collide({1, 0}, {1, 0}, 1));
}

TEST(SanStatic, ItemsCollideExactVsGcdAgreeAtTheLimit) {
  using san::items_collide;
  // The same (a, b, n) queried one element under and exactly at the
  // exact-solve threshold exercises the Diophantine loop and the gcd
  // fallback on identical inputs; both paths must agree on these pairs.
  const long long n = 512;
  struct Pair {
    veclegal::Subscript a, b;
    bool collide;
  };
  const Pair pairs[] = {
      {{2, 0}, {4, 2}, true},    // 2i == 4j+2 at (i=3, j=1)
      {{2, 0}, {4, 1}, false},   // parity mismatch
      {{3, 1}, {6, 4}, true},    // i = 2j+1
      {{6, 0}, {10, 3}, false},  // gcd(6,10) = 2 does not divide 3
  };
  for (const Pair& p : pairs) {
    EXPECT_EQ(items_collide(p.a, p.b, n, /*exact_solve_limit=*/n), p.collide);
    EXPECT_EQ(items_collide(p.a, p.b, n, /*exact_solve_limit=*/n - 1),
              p.collide);
  }
}

TEST(SanStatic, ItemsCollideNoOverflowNearLlongMax) {
  using san::items_collide;
  // Opposite-sign offsets near the extremes: the offset difference exceeds
  // long long; the __int128 solver must widen instead of wrapping to a
  // small (colliding-looking) distance. Regression for the signed-overflow
  // bug in the original long-long solver.
  EXPECT_FALSE(
      items_collide({1, LLONG_MAX - 512}, {1, LLONG_MIN + 512}, 1024));
  // Same magnitudes, genuinely reachable distance: still detected.
  EXPECT_TRUE(
      items_collide({1, LLONG_MAX - 512}, {1, LLONG_MAX - 256}, 1024));
  // LLONG_MIN scale: |scale| negation must not overflow either.
  EXPECT_FALSE(items_collide({LLONG_MIN, 0}, {LLONG_MIN, 1}, 16));
  EXPECT_TRUE(items_collide({LLONG_MIN, 0}, {LLONG_MIN, LLONG_MIN}, 16));
}

TEST(SanStatic, BoundsExactAtLlongMaxAdjacentExtents) {
  // a[i + (LLONG_MAX - 1024)] over trip 1024 ends at LLONG_MAX - 1: legal
  // for extent LLONG_MAX, but offset + trip overflows long long — the
  // interval domain must evaluate it exactly (it runs in __int128).
  auto huge = [](long long offset) {
    return one_stmt_ir(store(ref(0, 1, offset), {}, "a[i+K] = 0"),
                       {{.array = 0, .arg_index = 0, .extent = LLONG_MAX}},
                       1024);
  };
  EXPECT_TRUE(san::analyze_kernel("huge-clean", huge(LLONG_MAX - 1024)).clean());
  const san::Report oob = san::analyze_kernel("huge-oob", huge(LLONG_MAX - 10));
  EXPECT_FALSE(oob.clean());
  EXPECT_TRUE(oob.has_rule(Rule::B1OutOfBounds));
}

TEST(SanStatic, VerifyLintRulesSurfaceAsWarnings) {
  // A dead store (a[i] overwritten unread) and a barrier separating no
  // communication: both V-rules report at Warning severity, so the report
  // stays clean() — lint never fails the mclsan --all gate.
  KernelIr ir;
  ir.body.trip_count = 64;
  ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 1"));
  ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 2"));
  ir.body.stmts.push_back(barrier_stmt());
  ir.body.stmts.push_back(store(ref(1), {}, "b[i] = 3"));
  ir.arrays = {{.array = 0, .arg_index = 0, .extent = 64},
               {.array = 1, .arg_index = 1, .extent = 64}};
  const san::Report r = san::analyze_kernel("lint-demo", ir);
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_TRUE(r.has_rule(Rule::V1DeadStore)) << r.to_string();
  EXPECT_TRUE(r.has_rule(Rule::V2RedundantBarrier)) << r.to_string();
  for (const san::Diagnostic& d : r.diagnostics) {
    if (d.rule == Rule::V1DeadStore || d.rule == Rule::V2RedundantBarrier) {
      EXPECT_EQ(d.severity, san::Severity::Warning) << d.to_string();
    }
  }
}

TEST(SanStatic, Mbench2StaysSpmdLegalButLoopIllegal) {
  // Fig 11's FMUL body: the SPMD model vectorizes it (no inter-item race),
  // the loop model refuses (RMW chain through a[i]); mclsan agrees with the
  // SPMD verdict — no race between distinct workitems.
  const auto& benches = apps::all_mbenches();
  const auto it = std::find_if(benches.begin(), benches.end(),
                               [](const auto& b) {
                                 return std::string(b.kernel) == "mbench2";
                               });
  ASSERT_NE(it, benches.end());
  EXPECT_TRUE(veclegal::analyze(it->ir, veclegal::Model::Spmd).vectorizable);
  EXPECT_FALSE(veclegal::analyze(it->ir, veclegal::Model::Loop).vectorizable);

  const KernelIr* ir = KernelIrRegistry::instance().find("mbench2");
  ASSERT_NE(ir, nullptr);
  EXPECT_TRUE(san::analyze_kernel("mbench2", *ir).clean());
}

TEST(SanStatic, ShippedKernelsOnlyMbench5Flagged) {
  std::vector<std::string> flagged;
  for (const std::string& name : KernelIrRegistry::instance().names()) {
    if (name.rfind("san_test", 0) == 0) continue;  // this file's seeds
    const KernelIr* ir = KernelIrRegistry::instance().find(name);
    ASSERT_NE(ir, nullptr) << name;
    if (!san::analyze_kernel(name, *ir).clean()) flagged.push_back(name);
  }
  EXPECT_EQ(flagged, std::vector<std::string>{"mbench5"});
}

// ----- host-API lint -----------------------------------------------------------

TEST(SanLint, UnsetArgExecutorAndNDRange) {
  const KernelDef& def = Program::builtin().lookup("san_test_divergent");
  // MiniCL has no arity metadata, so H1 sees gaps below the highest bound
  // slot: bind arg 1, leave arg 0 unset.
  ocl::KernelArgs args;
  Buffer buf(MemFlags::ReadWrite, 64 * sizeof(float));
  args.set_buffer(1, buf);
  san::Report r = san::lint_launch(def, args, NDRange{64}, NDRange{},
                                   ExecutorKind::Fiber);
  EXPECT_TRUE(r.has_rule(Rule::H1UnsetArg));

  args.set_buffer(0, buf);
  r = san::lint_launch(def, args, NDRange{64}, NDRange{}, ExecutorKind::Fiber);
  EXPECT_TRUE(r.clean()) << r.to_string();

  // Barrier kernel on a loop executor.
  r = san::lint_launch(def, args, NDRange{64}, NDRange{}, ExecutorKind::Loop);
  EXPECT_TRUE(r.has_rule(Rule::H2BarrierExecutor));

  // Local size that does not divide the global size.
  r = san::lint_launch(def, args, NDRange{64}, NDRange{48},
                       ExecutorKind::Fiber);
  EXPECT_TRUE(r.has_rule(Rule::H3BadNDRange));
}

// ----- enqueue-time enforcement (satellite regressions) ------------------------

TEST(SanEnqueue, UnsetArgRejectedWithKernelName) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Kernel k = ctx.create_kernel(Program::builtin(), apps::kVectorAddKernel);
  Buffer a = ctx.create_buffer(MemFlags::ReadWrite, 64 * sizeof(float));
  Buffer c = ctx.create_buffer(MemFlags::ReadWrite, 64 * sizeof(float));
  k.set_arg(0, a);
  k.set_arg(2, c);  // arg 1 left unset (a gap — detectable without arity info)
  try {
    q.enqueue_ndrange(k, NDRange{64});
    FAIL() << "launch with unset args must throw";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::InvalidKernelArgs);
    EXPECT_NE(std::string(e.what()).find(apps::kVectorAddKernel),
              std::string::npos)
        << e.what();
  }
}

TEST(SanEnqueue, BarrierKernelOnLoopExecutorRejected) {
  CpuDevice dev(CpuDeviceConfig{.executor = ExecutorKind::Loop});
  Context ctx(dev);
  CommandQueue q(ctx);
  Kernel k = ctx.create_kernel(Program::builtin(), "san_test_divergent");
  Buffer buf = ctx.create_buffer(MemFlags::ReadWrite, 64 * sizeof(float));
  k.set_arg(0, buf);
  try {
    q.enqueue_ndrange(k, NDRange{64}, NDRange{16});
    FAIL() << "barrier kernel on Loop executor must throw";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::InvalidLaunch);
    EXPECT_NE(std::string(e.what()).find("san_test_divergent"),
              std::string::npos)
        << e.what();
  }
}

// ----- num_groups regression ---------------------------------------------------

TEST(NumGroups, RoundsUpWithPartialFinalGroup) {
  WorkItemCtx item;
  CtxAccess::set_sizes(item, NDRange{10}, NDRange{4});
  EXPECT_EQ(item.num_groups(0), 3u);  // was 2 with truncating division
  EXPECT_EQ(item.num_groups(1), 1u);

  ocl::WorkGroupCtx group;
  CtxAccess::init_group(group, NDRange{10, 6}, NDRange{4, 4}, nullptr);
  EXPECT_EQ(group.num_groups(0), 3u);
  EXPECT_EQ(group.num_groups(1), 2u);
}

// ----- dynamic mode: the Checked executor --------------------------------------

using DispatchOrder = decltype(CpuDeviceConfig::dispatch_order);

CpuDevice checked_device(DispatchOrder order = nullptr) {
  return CpuDevice(CpuDeviceConfig{.threads = 1,
                                   .executor = ExecutorKind::Checked,
                                   .dispatch_order = std::move(order)});
}

std::size_t reverse_order(std::size_t k, std::size_t total) {
  return total - 1 - k;
}

/// Runs `kernel` under the Checked executor (in `order`, when set),
/// expecting a SanitizerViolation whose message mentions `expect_tag` (e.g.
/// "[P1]").
template <typename Setup>
void expect_violation(const std::string& kernel, const char* expect_tag,
                      const NDRange& global, const NDRange& local,
                      Setup&& setup, DispatchOrder order = nullptr) {
  CpuDevice dev = checked_device(std::move(order));
  Context ctx(dev);
  CommandQueue q(ctx);
  Kernel k = ctx.create_kernel(Program::builtin(), kernel);
  std::vector<Buffer> buffers;
  setup(ctx, k, buffers);
  try {
    q.enqueue_ndrange(k, global, local);
    FAIL() << kernel << ": expected a SanitizerViolation";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::SanitizerViolation) << e.what();
    EXPECT_NE(std::string(e.what()).find(expect_tag), std::string::npos)
        << e.what();
  }
}

TEST(SanChecked, CatchesBarrierDivergence) {
  expect_violation("san_test_divergent", "[P1]", NDRange{128}, NDRange{16},
                   [](Context& ctx, Kernel& k, std::vector<Buffer>& bufs) {
                     bufs.push_back(ctx.create_buffer(
                         MemFlags::ReadWrite, 128 * sizeof(float)));
                     k.set_arg(0, bufs.back());
                   });
}

TEST(SanChecked, CatchesReadOnlyBufferWrite) {
  for (DispatchOrder order : {DispatchOrder{}, DispatchOrder{&reverse_order}}) {
    expect_violation(
        "san_test_write_arg0", "[W1]", NDRange{64}, NDRange{},
        [](Context& ctx, Kernel& k, std::vector<Buffer>& bufs) {
          bufs.push_back(
              ctx.create_buffer(MemFlags::ReadOnly, 64 * sizeof(float)));
          k.set_arg(0, bufs.back());
        },
        std::move(order));
  }
}

TEST(SanChecked, FollowsDispatchOrder) {
  CpuDevice dev = checked_device(&reverse_order);
  Context ctx(dev);
  CommandQueue q(ctx);
  Kernel k = ctx.create_kernel(Program::builtin(), "san_test_group_order");
  std::vector<unsigned> order(4, 99), next(1, 0);
  Buffer order_buf(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                   order.size() * sizeof(unsigned), order.data());
  Buffer next_buf(MemFlags::ReadWrite | MemFlags::UseHostPtr,
                  sizeof(unsigned), next.data());
  k.set_arg(0, order_buf);
  k.set_arg(1, next_buf);
  (void)q.enqueue_ndrange(k, NDRange{64}, NDRange{16});
  EXPECT_EQ(order, (std::vector<unsigned>{3, 2, 1, 0}));
}

TEST(SanChecked, CatchesLocalOverflow) {
  expect_violation("san_test_local_overflow", "[M1]", NDRange{64}, NDRange{16},
                   [](Context& ctx, Kernel& k, std::vector<Buffer>& bufs) {
                     bufs.push_back(ctx.create_buffer(MemFlags::ReadWrite,
                                                      64 * sizeof(float)));
                     k.set_arg(0, bufs.back());
                     k.set_arg_local(1, 8 * sizeof(float));
                   });
}

TEST(SanChecked, CatchesMbench5RaceViaIrReplay) {
  const std::size_t n = 1024;  // descriptor extents assume the nominal trip
  expect_violation("mbench5", "[S3]", NDRange{n}, NDRange{},
                   [n](Context& ctx, Kernel& k, std::vector<Buffer>& bufs) {
                     bufs.push_back(ctx.create_buffer(
                         MemFlags::ReadWrite, (3 * n + 1) * sizeof(float)));
                     bufs.push_back(ctx.create_buffer(MemFlags::ReadOnly,
                                                      n * sizeof(float)));
                     bufs.push_back(ctx.create_buffer(MemFlags::ReadWrite,
                                                      2 * n * sizeof(float)));
                     k.set_arg(0, bufs[0]);
                     k.set_arg(1, bufs[1]);
                     k.set_arg(2, bufs[2]);
                     k.set_arg(3, 1.5f);
                   });
}

TEST(SanChecked, CleanKernelsPassAndProduceCorrectOutput) {
  for (const char* name : {"square", "san_test_uniform_barrier"}) {
    CpuDevice dev = checked_device();
    Context ctx(dev);
    CommandQueue q(ctx);
    Kernel k = ctx.create_kernel(Program::builtin(), name);
    const std::size_t n = 256;
    Buffer a = ctx.create_buffer(MemFlags::ReadWrite, n * sizeof(float));
    std::vector<float> init(n, 3.0f);
    q.enqueue_write_buffer(a, 0, n * sizeof(float), init.data());
    k.set_arg(0, a);
    if (std::string(name) == "square") {
      // square reads arg 0, writes arg 1.
      Buffer out = ctx.create_buffer(MemFlags::ReadWrite, n * sizeof(float));
      k.set_arg(1, out);
      EXPECT_NO_THROW(q.enqueue_ndrange(k, NDRange{n}, NDRange{64}));
      std::vector<float> got(n, 0.0f);
      q.enqueue_read_buffer(out, 0, n * sizeof(float), got.data());
      EXPECT_EQ(got[7], 9.0f);
    } else {
      EXPECT_NO_THROW(q.enqueue_ndrange(k, NDRange{n}, NDRange{64}));
    }
  }
}

TEST(SanChecked, ReportsCheckedAsExecutorUsed) {
  CpuDevice dev = checked_device();
  const KernelDef& def = Program::builtin().lookup("square");
  ocl::KernelArgs args;
  Buffer in(MemFlags::ReadOnly, 64 * sizeof(float));
  Buffer out(MemFlags::ReadWrite, 64 * sizeof(float));
  args.set_buffer(0, in);
  args.set_buffer(1, out);
  const auto result = dev.launch(def, args, NDRange{64}, NDRange{});
  EXPECT_EQ(result.executor_used, ExecutorKind::Checked);
}

TEST(SanChecked, SlowdownStaysBounded) {
  // The CLI's --slowdown mode tracks the real <10x budget on the 1M-element
  // kernel; this regression keeps a generous bound so CI timing noise (and
  // instrumented builds) don't flake.
  const KernelDef& def = Program::builtin().lookup("square");
  const std::size_t n = 1 << 18;
  Buffer in(MemFlags::ReadOnly, n * sizeof(float));
  Buffer out(MemFlags::ReadWrite, n * sizeof(float));
  ocl::KernelArgs args;
  args.set_buffer(0, in);
  args.set_buffer(1, out);
  auto best_of = [&](ExecutorKind kind) {
    CpuDevice dev(CpuDeviceConfig{.threads = 1, .executor = kind});
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, dev.launch(def, args, NDRange{n}, NDRange{}).seconds);
    }
    return best;
  };
  const double loop_s = best_of(ExecutorKind::Loop);
  const double checked_s = best_of(ExecutorKind::Checked);
  EXPECT_LT(checked_s, 50.0 * loop_s + 0.02) << "loop " << loop_s
                                             << "s checked " << checked_s << "s";
}

}  // namespace
}  // namespace mcl
