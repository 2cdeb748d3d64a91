// Micro-benchmark regression guards (google-benchmark): the primitive costs
// the figure-level results are built from — SIMD math throughput, thread-
// pool dispatch, NDRange launch overhead, fiber barrier switches, and the
// map-vs-copy primitive gap.
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/hostdata.hpp"
#include "obs/obs.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simd/math.hpp"
#include "prof/metrics.hpp"
#include "threading/fiber.hpp"
#include "threading/thread_pool.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcl;

// --- SIMD math vs libm -------------------------------------------------------

void BM_ExpScalarLibm(benchmark::State& state) {
  const apps::FloatVec in = apps::random_floats(4096, 1, -10.0f, 10.0f);
  apps::FloatVec out(4096);
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::exp(in[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ExpScalarLibm);

void BM_ExpSimd(benchmark::State& state) {
  const apps::FloatVec in = apps::random_floats(4096, 1, -10.0f, 10.0f);
  apps::FloatVec out(4096);
  constexpr int w = simd::kNativeFloatWidth;
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.size(); i += w) {
      simd::vexp(simd::vfloatn::load_aligned(in.data() + i))
          .store_aligned(out.data() + i);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ExpSimd);

void BM_NormalCdfSimd(benchmark::State& state) {
  const apps::FloatVec in = apps::random_floats(4096, 2, -5.0f, 5.0f);
  apps::FloatVec out(4096);
  constexpr int w = simd::kNativeFloatWidth;
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.size(); i += w) {
      simd::normal_cdf(simd::vfloatn::load_aligned(in.data() + i))
          .store_aligned(out.data() + i);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_NormalCdfSimd);

// --- thread pool dispatch -----------------------------------------------------

void BM_PoolParallelRun(benchmark::State& state) {
  threading::ThreadPool pool(2);
  const auto tasks = static_cast<std::size_t>(state.range(0));
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_run(tasks, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_PoolParallelRun)->Arg(1)->Arg(64)->Arg(4096);

// --- NDRange launch overhead ---------------------------------------------------

/// Blocking launches of `square` over state.range(0) items on a device with
/// `threads` pool workers.
void ndrange_launch_loop(benchmark::State& state, std::size_t threads) {
  ocl::CpuDevice device(ocl::CpuDeviceConfig{.threads = threads});
  ocl::Context ctx(device);
  ocl::CommandQueue q(ctx);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ocl::Buffer bin(ocl::MemFlags::ReadWrite, n * 4);
  ocl::Buffer bout(ocl::MemFlags::ReadWrite, n * 4);
  ocl::Kernel k = ctx.create_kernel(ocl::Program::builtin(), "square");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue_ndrange(k, ocl::NDRange{n}).seconds);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_NDRangeLaunch(benchmark::State& state) {
  // Tiny kernel: the launch cost (validation + partition + dispatch)
  // dominates; this is the per-launch constant the Fig 1/3 effects sit on.
  ndrange_launch_loop(state, 2);
}
// 1 << 20 is mclbench suite_default's Square size. Its NULL local resolves
// to 4096-item groups (256 of them); 4096 itself keeps 64-item groups.
BENCHMARK(BM_NDRangeLaunch)->Arg(64)->Arg(4096)->Arg(262144)->Arg(1 << 20);

void BM_NDRangeLaunchOneWorker(benchmark::State& state) {
  // The same launch on a one-worker pool: the floor a launch whose work is
  // too light to share (the width rule's width 1) should reach.
  ndrange_launch_loop(state, 1);
}
BENCHMARK(BM_NDRangeLaunchOneWorker)->Arg(4096);

/// An n x n x n product bound to one of the Matrixmul kernels (args 0..5).
struct MatmulSetup {
  MatmulSetup(const char* kernel, std::size_t n)
      : a(apps::random_floats(n * n, 3, -1.0f, 1.0f)),
        b(apps::random_floats(n * n, 4, -1.0f, 1.0f)),
        ba(ocl::MemFlags::ReadOnly | ocl::MemFlags::UseHostPtr, n * n * 4,
           a.data()),
        bb(ocl::MemFlags::ReadOnly | ocl::MemFlags::UseHostPtr, n * n * 4,
           b.data()),
        bc(ocl::MemFlags::ReadWrite, n * n * 4),
        k(ctx.create_kernel(ocl::Program::builtin(), kernel)) {
    k.set_arg(0, ba);
    k.set_arg(1, bb);
    k.set_arg(2, bc);
    for (std::size_t slot : {3u, 4u, 5u}) k.set_arg(slot, static_cast<unsigned>(n));
  }
  void run(benchmark::State& state, std::size_t n, ocl::NDRange local) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          q.enqueue_ndrange(k, ocl::NDRange(n, n), local).seconds);
      benchmark::DoNotOptimize(bc.as<float>());
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * n * n));
  }

  ocl::CpuDevice device{ocl::CpuDeviceConfig{.threads = 2}};
  ocl::Context ctx{device};
  ocl::CommandQueue q{ctx};
  apps::FloatVec a, b;
  ocl::Buffer ba, bb, bc;
  ocl::Kernel k;
};

void BM_MatrixmulTiled(benchmark::State& state) {
  // Workgroup-form kernel at tile T = arg: T=4 runs the scalar (W=1) row
  // body on AVX builds, T=8 and T=16 the vfloat<kNativeFloatWidth> body.
  constexpr std::size_t n = 128;
  const auto t = static_cast<std::size_t>(state.range(0));
  MatmulSetup m("matrixmul", n);
  for (std::size_t slot : {6u, 7u, 8u}) m.k.set_arg_local(slot, t * t * 4);
  m.run(state, n, ocl::NDRange(t, t));
}
BENCHMARK(BM_MatrixmulTiled)->Arg(4)->Arg(8)->Arg(16);

void BM_MatrixmulNaive(benchmark::State& state) {
  // The Simd executor at mclbench suite_default's size and NULL-local
  // resolution (8 x 8): one body call per group covers its 8 rows.
  constexpr std::size_t n = 256;
  MatmulSetup m("matrixmul_naive", n);
  m.run(state, n, ocl::NDRange(8, 8));
}
BENCHMARK(BM_MatrixmulNaive);

// --- fiber switches --------------------------------------------------------------

void BM_FiberBarrierRound(benchmark::State& state) {
  const auto fibers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    threading::run_fiber_group(fibers,
                               [](std::size_t, threading::FiberYield& y) {
                                 y.barrier();
                                 y.barrier();
                               });
  }
  // two barriers + start/finish per fiber per iteration
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fibers) * 4);
}
BENCHMARK(BM_FiberBarrierRound)->Arg(16)->Arg(256);

// --- map vs copy primitive --------------------------------------------------------

void BM_TransferCopy(benchmark::State& state) {
  ocl::CpuDevice device;
  ocl::Context ctx(device);
  ocl::CommandQueue q(ctx);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  ocl::Buffer buf(ocl::MemFlags::ReadWrite, bytes);
  std::vector<std::byte> host(bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        q.enqueue_write_buffer(buf, 0, bytes, host.data()).seconds);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TransferCopy)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 24);

void BM_TransferMap(benchmark::State& state) {
  ocl::CpuDevice device;
  ocl::Context ctx(device);
  ocl::CommandQueue q(ctx);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  ocl::Buffer buf(ocl::MemFlags::ReadWrite, bytes);
  for (auto _ : state) {
    void* p = q.enqueue_map_buffer(buf, ocl::MapFlags::Write, 0, bytes);
    benchmark::DoNotOptimize(p);
    (void)q.enqueue_unmap(buf, p);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TransferMap)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 24);

// --- mcltrace overhead -------------------------------------------------------

// The always-on contract: with tracing off, an instrumentation site costs
// one relaxed atomic load. This guard is the "no measurable regression with
// MCL_TRACE unset" acceptance check in code form.
void BM_TraceScopeDisabled(benchmark::State& state) {
  for (auto _ : state) {
    MCL_TRACE_SCOPE("bench.disabled", "i", 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

// mclobs shares the contract: with observability off, the launch-path gate
// (obs::enabled()) is one relaxed atomic load and a not-taken branch. The
// body mirrors the real instrumentation sites in queue.cpp/serve.cpp.
void BM_ObsDisabled(benchmark::State& state) {
  obs::set_enabled(false);
  std::uint64_t ctx = 0;
  for (auto _ : state) {
    if (obs::enabled()) ctx = obs::ensure_context();
    benchmark::DoNotOptimize(ctx);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsDisabled);

// Enabled cost per span: two clock reads + one SPSC ring push. start(0)
// disables the drainer thread; the ring wraps and drops, which is fine —
// push cost is identical either way.
void BM_TraceScopeEnabled(benchmark::State& state) {
  trace::start(0);
  for (auto _ : state) {
    MCL_TRACE_SCOPE("bench.enabled", "i", 1);
    benchmark::ClobberMemory();
  }
  trace::stop();
}
BENCHMARK(BM_TraceScopeEnabled);

// --- mclprof overhead --------------------------------------------------------

// Same always-on contract as MCL_TRACE_SCOPE: with metrics off, a counter
// site costs one relaxed atomic load and a not-taken branch (the ISSUE's
// "counters-disabled site <= 2 ns" acceptance guard).
void BM_MetricsDisabled(benchmark::State& state) {
  prof::set_enabled(false);
  for (auto _ : state) {
    MCL_PROF_COUNT("bench.prof_disabled", 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsDisabled);

// Enabled cost: one relaxed fetch_add in this thread's shard (counters) or
// a bucket index + fetch_add (histograms). No locks on the hot path.
void BM_MetricsEnabled(benchmark::State& state) {
  prof::set_enabled(true);
  for (auto _ : state) {
    MCL_PROF_COUNT("bench.prof_enabled", 1);
    benchmark::ClobberMemory();
  }
  prof::set_enabled(false);
}
BENCHMARK(BM_MetricsEnabled);

void BM_MetricsHistEnabled(benchmark::State& state) {
  prof::set_enabled(true);
  std::uint64_t v = 1;
  for (auto _ : state) {
    MCL_PROF_HIST("bench.prof_hist", v);
    v = (v * 2) | 1;
    benchmark::ClobberMemory();
  }
  prof::set_enabled(false);
}
BENCHMARK(BM_MetricsHistEnabled);

}  // namespace

BENCHMARK_MAIN();
