// Sub-device sharding tests (run under TSan via the `subdev` ctest label).
//
// Covers the uniform multi-device layer of the CL shim and the pool-sharding
// machinery under it:
//  - partition spans are disjoint and cover the pool,
//  - work launched on a shard executes only on that shard's workers
//    (no cross-shard stealing),
//  - two sub-device queues created through clCreateSubDevices run
//    concurrently without races and produce correct results,
//  - clReleaseDevice on a sub-device with live queues is safe (the queue and
//    context keep the shard alive until the last release),
//  - tuner entries are keyed on the SUB-DEVICE width, not the parent pool
//    width (regression for the shard-width keying fix),
//  - pinned (enqueue_ndrange_pinned) and pooled launches on one device,
//    from two host threads, run race-free and compute correctly.
//
// ctest sets MCL_CPU_THREADS=4 so the pool is partitionable even on
// single-core CI hosts; when run by hand on a narrower pool the sharding
// tests skip.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <CL/cl.h>

#include "ocl/buffer.hpp"
#include "ocl/device.hpp"
#include "ocl/kernel.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "ocl/types.hpp"
#include "threading/affinity.hpp"
#include "tune/tune.hpp"

namespace {

using mcl::ocl::CpuDevice;
using mcl::ocl::CpuSubDevice;
using mcl::ocl::KernelArgs;
using mcl::ocl::KernelDef;
using mcl::ocl::KernelRegistrar;
using mcl::ocl::NDRange;
using mcl::ocl::Platform;
using mcl::ocl::WorkItemCtx;

CpuDevice& cpu() { return Platform::default_instance().cpu(); }

/// Records the pool worker index that executed each item (-1 when the item
/// ran on the enqueuing thread, which participates in its shard's launches).
void record_worker(const KernelArgs& a, const WorkItemCtx& c) {
  // Enough work per item that the shard's pool workers actually pick up
  // batches instead of the caller draining the whole range.
  volatile int sink = 0;
  for (int i = 0; i < 4000; ++i) sink = sink + i;
  a.buffer<int>(0)[c.global_id(0)] = cpu().pool_worker_index();
}
const KernelRegistrar reg_record{
    {.name = "subdev_record_worker", .scalar = &record_worker}};

bool pool_too_narrow() { return cpu().compute_units() < 4; }

// ---------------------------------------------------------------------------

TEST(SubDevicePartition, SpansDisjointAndCoverPool) {
  if (pool_too_narrow()) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";
  const std::size_t total = static_cast<std::size_t>(cpu().compute_units());

  auto subs = cpu().partition_equally(2);
  ASSERT_EQ(total / 2, subs.size());
  std::vector<bool> covered(total, false);
  for (const auto& sub : subs) {
    auto span = sub->span();
    EXPECT_LT(span.begin, span.end);
    EXPECT_EQ(2u, span.end - span.begin);
    for (std::size_t w = span.begin; w < span.end; ++w) {
      EXPECT_FALSE(covered[w]) << "worker " << w << " in two shards";
      covered[w] = true;
    }
  }

  const std::size_t counts[] = {1, 3};
  auto uneven = cpu().partition_by_counts(counts);
  ASSERT_EQ(2u, uneven.size());
  EXPECT_EQ(1u, uneven[0]->span().end - uneven[0]->span().begin);
  EXPECT_EQ(3u, uneven[1]->span().end - uneven[1]->span().begin);
  EXPECT_LE(uneven[0]->span().end, uneven[1]->span().begin);
  EXPECT_EQ(1, uneven[0]->compute_units());
  EXPECT_EQ(3, uneven[1]->compute_units());
}

TEST(SubDevicePartition, ShardExecutionStaysInSpan) {
  if (pool_too_narrow()) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";
  auto subs = cpu().partition_equally(2);
  ASSERT_GE(subs.size(), 2u);
  ASSERT_TRUE(mcl::ocl::Program::builtin().contains("subdev_record_worker"));
  const KernelDef& def =
      mcl::ocl::Program::builtin().lookup("subdev_record_worker");

  constexpr std::size_t kItems = 1 << 12;
  std::vector<std::vector<int>> out(2, std::vector<int>(kItems, -2));

  // Launch on both shards at once; each shard must only ever touch its own
  // workers, so the two launches cannot contend (TSan verifies).
  std::vector<std::thread> hosts;
  for (int s = 0; s < 2; ++s) {
    hosts.emplace_back([&, s] {
      mcl::ocl::Buffer buf(mcl::ocl::MemFlags::UseHostPtr,
                           kItems * sizeof(int), out[s].data());
      KernelArgs args;
      args.set_buffer(0, buf);
      for (int rep = 0; rep < 4; ++rep) {
        subs[s]->launch(def, args, NDRange{kItems}, NDRange{}, NDRange{});
      }
    });
  }
  for (auto& h : hosts) h.join();

  std::set<int> seen[2];
  for (int s = 0; s < 2; ++s) {
    const auto span = subs[s]->span();
    for (std::size_t i = 0; i < kItems; ++i) {
      const int w = out[s][i];
      ASSERT_NE(-2, w) << "item " << i << " never executed";
      if (w < 0) continue;  // ran on the enqueuing host thread
      EXPECT_GE(w, static_cast<int>(span.begin));
      EXPECT_LT(w, static_cast<int>(span.end));
      seen[s].insert(w);
    }
  }
  // Disjoint shards => disjoint observed worker sets.
  for (int w : seen[0]) EXPECT_EQ(0u, seen[1].count(w));
}

// ---------------------------------------------------------------------------
// Through the CL shim: clCreateSubDevices -> one context -> two queues.

struct ShimFix {
  cl_device_id root = nullptr;
  cl_device_id sub[2] = {nullptr, nullptr};
  cl_context context = nullptr;
  cl_command_queue queue[2] = {nullptr, nullptr};

  static ShimFix create() {
    ShimFix f;
    cl_platform_id platform;
    EXPECT_EQ(CL_SUCCESS, clGetPlatformIDs(1, &platform, nullptr));
    EXPECT_EQ(CL_SUCCESS, clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1,
                                         &f.root, nullptr));
    cl_device_partition_property props[] = {CL_DEVICE_PARTITION_EQUALLY, 2,
                                            0};
    cl_uint n = 0;
    EXPECT_EQ(CL_SUCCESS, clCreateSubDevices(f.root, props, 2, f.sub, &n));
    EXPECT_GE(n, 2u);
    cl_int err = CL_SUCCESS;
    f.context = clCreateContext(nullptr, 2, f.sub, nullptr, nullptr, &err);
    EXPECT_EQ(CL_SUCCESS, err);
    for (int i = 0; i < 2; ++i) {
      f.queue[i] = clCreateCommandQueue(f.context, f.sub[i],
                                        CL_QUEUE_PROFILING_ENABLE, &err);
      EXPECT_EQ(CL_SUCCESS, err);
    }
    return f;
  }
};

TEST(SubDeviceShim, ConcurrentQueuesComputeCorrectly) {
  if (pool_too_narrow()) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";
  ShimFix f = ShimFix::create();

  const char* src =
      "__kernel void square(__global const float* in, __global float* out) "
      "{ out[get_global_id(0)] = in[get_global_id(0)] * "
      "in[get_global_id(0)]; }";
  cl_int err = CL_SUCCESS;
  cl_program program =
      clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS,
            clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr));

  constexpr size_t kN = 1 << 14;
  std::vector<float> in(kN);
  for (size_t i = 0; i < kN; ++i) in[i] = static_cast<float>(i % 256);

  // Each shard gets its own kernel handle, buffers and queue; the host
  // threads enqueue concurrently.
  std::vector<std::vector<float>> out(2, std::vector<float>(kN, -1.0f));
  std::vector<std::thread> hosts;
  std::atomic<int> failures{0};
  for (int s = 0; s < 2; ++s) {
    hosts.emplace_back([&, s] {
      cl_int e = CL_SUCCESS;
      cl_kernel kernel = clCreateKernel(program, "square", &e);
      if (e != CL_SUCCESS) { ++failures; return; }
      cl_mem in_buf = clCreateBuffer(
          f.context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
          kN * sizeof(float), in.data(), &e);
      if (e != CL_SUCCESS) { ++failures; return; }
      cl_mem out_buf = clCreateBuffer(f.context, CL_MEM_WRITE_ONLY,
                                      kN * sizeof(float), nullptr, &e);
      if (e != CL_SUCCESS) { ++failures; return; }
      clSetKernelArg(kernel, 0, sizeof(cl_mem), &in_buf);
      clSetKernelArg(kernel, 1, sizeof(cl_mem), &out_buf);
      size_t global = kN;
      for (int rep = 0; rep < 4 && failures == 0; ++rep) {
        cl_event ev;
        if (clEnqueueNDRangeKernel(f.queue[s], kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, &ev) != CL_SUCCESS) {
          ++failures;
          break;
        }
        if (clEnqueueReadBuffer(f.queue[s], out_buf, CL_TRUE, 0,
                                kN * sizeof(float), out[s].data(), 1, &ev,
                                nullptr) != CL_SUCCESS) {
          ++failures;
        }
        clReleaseEvent(ev);
      }
      clReleaseMemObject(in_buf);
      clReleaseMemObject(out_buf);
      clReleaseKernel(kernel);
    });
  }
  for (auto& h : hosts) h.join();
  ASSERT_EQ(0, failures.load());

  for (int s = 0; s < 2; ++s) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(in[i] * in[i], out[s][i]) << "shard " << s << " item " << i;
    }
  }

  for (int i = 0; i < 2; ++i) clReleaseCommandQueue(f.queue[i]);
  clReleaseProgram(program);
  clReleaseContext(f.context);
  for (int i = 0; i < 2; ++i) clReleaseDevice(f.sub[i]);
}

TEST(SubDeviceShim, ReleaseDeviceWithLiveQueuesIsSafe) {
  if (pool_too_narrow()) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";
  ShimFix f = ShimFix::create();

  // Drop the application's device references first: the context and the
  // queues must keep the shards alive.
  ASSERT_EQ(CL_SUCCESS, clReleaseDevice(f.sub[0]));
  ASSERT_EQ(CL_SUCCESS, clReleaseDevice(f.sub[1]));

  const char* src = "__kernel void square(__global const float* a, "
                    "__global float* b) { }";
  cl_int err = CL_SUCCESS;
  cl_program program =
      clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS,
            clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr));
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(CL_SUCCESS, err);

  constexpr size_t kN = 4096;
  std::vector<float> host(kN, 1.0f);
  cl_mem buf = clCreateBuffer(f.context,
                              CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                              kN * sizeof(float), host.data(), &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_mem out = clCreateBuffer(f.context, CL_MEM_READ_WRITE,
                              kN * sizeof(float), nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  clSetKernelArg(kernel, 0, sizeof(cl_mem), &buf);
  clSetKernelArg(kernel, 1, sizeof(cl_mem), &out);

  // The shards must still execute after the user refs are gone.
  size_t global = kN;
  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(CL_SUCCESS,
              clEnqueueNDRangeKernel(f.queue[s], kernel, 1, nullptr, &global,
                                     nullptr, 0, nullptr, nullptr));
    ASSERT_EQ(CL_SUCCESS, clFinish(f.queue[s]));
  }

  // Teardown in the adversarial order: queues last hold the shards.
  clReleaseMemObject(buf);
  clReleaseMemObject(out);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  ASSERT_EQ(CL_SUCCESS, clReleaseContext(f.context));
  ASSERT_EQ(CL_SUCCESS, clReleaseCommandQueue(f.queue[0]));
  ASSERT_EQ(CL_SUCCESS, clReleaseCommandQueue(f.queue[1]));
}

// ---------------------------------------------------------------------------
// Regression: tuner entries must be keyed on the SUB-DEVICE width. Two
// shards of unequal width launching the same kernel shape must produce two
// tuner entries (before the fix, both keyed on the parent pool width and
// collided in one entry).

TEST(SubDeviceTuner, EntriesKeyedOnShardWidth) {
  if (pool_too_narrow()) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";
  namespace tune = mcl::tune;
  auto& tuner = tune::Tuner::instance();
  tuner.set_mode(tune::Mode::Online);
  tuner.reset();

  const std::size_t counts[] = {1, 3};
  auto subs = cpu().partition_by_counts(counts);
  ASSERT_EQ(2u, subs.size());
  const KernelDef& def =
      mcl::ocl::Program::builtin().lookup("subdev_record_worker");

  constexpr std::size_t kItems = 1 << 10;
  std::vector<int> out(kItems, 0);
  mcl::ocl::Buffer buf(mcl::ocl::MemFlags::UseHostPtr, kItems * sizeof(int),
                       out.data());
  KernelArgs args;
  args.set_buffer(0, buf);
  for (const auto& sub : subs) {
    sub->launch(def, args, NDRange{kItems}, NDRange{}, NDRange{});
  }

  // Same kernel, same shape, different shard widths => two distinct tuner
  // entries. Before the shard-width keying fix, both launches keyed on the
  // parent pool width and collided in a single entry.
  EXPECT_EQ(2u, tuner.entry_count("subdev_record_worker"));

  tuner.reset();
  tuner.set_mode(tune::Mode::Off);
}

// ---------------------------------------------------------------------------
// The pinned placement takes the device's launch mutex like the pooled one:
// one host thread issuing pinned launches and another issuing pooled ones on
// the same device must run race-free (the TSan stage runs this label) and
// both stay correct.

TEST(SubDevicePinned, PinnedAndPooledLaunchesShareOneDevice) {
  CpuDevice dev(mcl::ocl::CpuDeviceConfig{.threads = 2});
  mcl::ocl::Context ctx(dev);
  constexpr std::size_t kItems = 1024, kLocal = 64;
  constexpr int kLaunches = 50;
  std::vector<int> map(kItems / kLocal);
  for (std::size_t g = 0; g < map.size(); ++g) {
    map[g] = static_cast<int>(g) % mcl::threading::logical_cpu_count();
  }

  struct Host {
    std::vector<float> in = std::vector<float>(kItems);
    std::vector<float> out = std::vector<float>(kItems);
    mcl::ocl::Buffer bin{mcl::ocl::MemFlags::ReadOnly |
                             mcl::ocl::MemFlags::UseHostPtr,
                         kItems * sizeof(float), in.data()};
    mcl::ocl::Buffer bout{mcl::ocl::MemFlags::ReadWrite |
                              mcl::ocl::MemFlags::UseHostPtr,
                          kItems * sizeof(float), out.data()};
  };
  Host hosts[2];
  std::vector<mcl::ocl::Kernel> kernels;
  for (int h = 0; h < 2; ++h) {
    for (std::size_t i = 0; i < kItems; ++i) {
      hosts[h].in[i] = static_cast<float>(i % 256 + h);
    }
    kernels.push_back(
        ctx.create_kernel(mcl::ocl::Program::builtin(), "square"));
    kernels.back().set_arg(0, hosts[h].bin);
    kernels.back().set_arg(1, hosts[h].bout);
  }

  std::atomic<int> failures{0};
  const auto run = [&](int h) {
    const bool pinned = h == 0;
    mcl::ocl::CommandQueue q(ctx);
    for (int rep = 0; rep < kLaunches; ++rep) {
      std::fill(hosts[h].out.begin(), hosts[h].out.end(), -1.0f);
      if (pinned) {
        (void)q.enqueue_ndrange_pinned(kernels[h], NDRange{kItems},
                                       NDRange{kLocal}, map);
      } else {
        (void)q.enqueue_ndrange(kernels[h], NDRange{kItems}, NDRange{kLocal});
      }
      for (std::size_t i = 0; i < kItems; ++i) {
        if (hosts[h].out[i] != hosts[h].in[i] * hosts[h].in[i]) ++failures;
      }
    }
  };
  std::thread pinned_host(run, 0);
  std::thread pooled_host(run, 1);
  pinned_host.join();
  pooled_host.join();
  EXPECT_EQ(0, failures.load());
}

}  // namespace
