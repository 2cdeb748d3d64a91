// Compute devices.
//
// MiniCL exposes two devices, mirroring the paper's platform pair:
//  - CpuDevice: executes kernels on host threads (Intel-CPU-runtime
//    analogue); reported kernel time is measured wall time.
//  - SimGpuDevice: executes kernels functionally on the host but reports
//    *simulated* time from the gpusim analytical model (GTX 580 analogue).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "gpusim/gpusim.hpp"
#include "ocl/kernel.hpp"
#include "ocl/types.hpp"
#include "prof/profiler.hpp"
#include "threading/thread_pool.hpp"

namespace mcl::ocl {

/// Outcome of one NDRange execution.
struct LaunchResult {
  core::Seconds seconds = 0.0;   ///< kernel time (measured or simulated)
  NDRange local_used;            ///< local size after NULL resolution
  ExecutorKind executor_used = ExecutorKind::Loop;
  bool simulated = false;        ///< seconds came from a timing model
  gpusim::SimResult sim;         ///< populated when simulated
  threading::RunStats schedule;  ///< workgroup load balance (CPU device)
  /// Per-launch hardware-counter profile (CPU device, while prof::profiling()
  /// is active; launches == 0 otherwise). Rides the event DAG: AsyncEvent
  /// exposes it as kernel_profile() next to profiling_ns().
  prof::KernelProfile profile;
};

class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual DeviceType type() const = 0;
  [[nodiscard]] virtual int compute_units() const = 0;

  /// Validates and executes an NDRange. `local` may be null (NullRange) to
  /// let the device pick (pick_cpu_default_local on the CPU device,
  /// pick_default_local on the simulated GPU); `offset` (null = 0)
  /// shifts every global id, as clEnqueueNDRangeKernel's
  /// global_work_offset does.
  virtual LaunchResult launch(const KernelDef& def, const KernelArgs& args,
                              const NDRange& global, const NDRange& local,
                              const NDRange& offset = NDRange{}) = 0;

  /// Extra seconds a `bytes`-byte explicit copy costs on top of the host
  /// memcpy (PCIe time on the simulated GPU; 0 on the CPU).
  [[nodiscard]] virtual core::Seconds copy_overhead_seconds(
      std::size_t bytes) const {
    (void)bytes;
    return 0.0;
  }

  /// Extra seconds mapping `bytes` of `buffer` costs (0 on the CPU — mapping
  /// returns the canonical pointer; PCIe copy for non-host-visible buffers
  /// on the simulated GPU).
  [[nodiscard]] virtual core::Seconds map_overhead_seconds(
      const Buffer& buffer, std::size_t bytes) const {
    (void)buffer;
    (void)bytes;
    return 0.0;
  }
};

/// Configuration of the CPU device.
struct CpuDeviceConfig {
  std::size_t threads = 0;      ///< 0 = one worker per logical CPU
  bool pin_workers = false;     ///< pin worker i to logical CPU i
  ExecutorKind executor = ExecutorKind::Auto;
  std::size_t fiber_stack_bytes = 64 * 1024;
  /// Deterministic dispatch-order hook (mclcheck's metamorphic transform):
  /// when set, every launch (Checked and pinned ones included) bypasses the
  /// pool and executes workgroups serially on the calling thread, running
  /// linear group order(k, total) at step k. `order` must be a bijection on
  /// [0, total); a race-free kernel must produce identical results under
  /// every order.
  std::function<std::size_t(std::size_t index, std::size_t total)>
      dispatch_order = nullptr;
};

class CpuSubDevice;

class CpuDevice final : public Device {
 public:
  explicit CpuDevice(CpuDeviceConfig config = {});
  ~CpuDevice() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DeviceType type() const override { return DeviceType::Cpu; }
  [[nodiscard]] int compute_units() const override;
  [[nodiscard]] const CpuDeviceConfig& config() const noexcept { return config_; }

  LaunchResult launch(const KernelDef& def, const KernelArgs& args,
                      const NDRange& global, const NDRange& local,
                      const NDRange& offset = NDRange{}) override;

  /// MiniCL extension the paper argues for (Sec. III-E): launch with an
  /// explicit workgroup -> logical-CPU map. group_to_cpu[g] names the CPU
  /// that must execute linear workgroup g; its size must equal the group
  /// count. Trades the shared pool for per-launch pinned threads, and
  /// serializes with the device's other launches. On a Checked or
  /// dispatch_order device the launch runs serially instead and the map is
  /// not read (the placement rule, launch_core).
  LaunchResult launch_pinned(const KernelDef& def, const KernelArgs& args,
                             const NDRange& global, const NDRange& local,
                             std::span<const int> group_to_cpu);

  /// clCreateSubDevices(CL_DEVICE_PARTITION_EQUALLY) analogue: splits the
  /// worker pool into floor(compute_units / units) sub-devices of `units`
  /// workers each (trailing workers stay with the parent). Sub-devices own
  /// disjoint WorkerSpans of the SAME pool — no threads are created — so
  /// launches on sibling sub-devices run concurrently without sharing a
  /// worker. Throws InvalidValue when units == 0 or units > compute_units.
  /// The parent must outlive every returned sub-device.
  [[nodiscard]] std::vector<std::shared_ptr<CpuSubDevice>> partition_equally(
      std::size_t units);

  /// clCreateSubDevices(CL_DEVICE_PARTITION_BY_COUNTS) analogue: one
  /// sub-device per entry, counts[i] workers wide, assigned consecutive
  /// disjoint spans. Throws InvalidValue when counts is empty, any count is
  /// zero, or the sum exceeds compute_units.
  [[nodiscard]] std::vector<std::shared_ptr<CpuSubDevice>> partition_by_counts(
      std::span<const std::size_t> counts);

  /// Index of the calling thread within this device's worker pool, or -1
  /// when called from any other thread (sub-device shard tests use this to
  /// prove a launch never left its span).
  [[nodiscard]] int pool_worker_index() const noexcept;

 private:
  friend class CpuSubDevice;

  /// Every CPU launch, serialized by `launch_mutex` (the parent and each
  /// sub-device carry their own — sibling shards must not serialize against
  /// each other), runs at one placement (docs/runtime.md): serially on the
  /// calling thread for a Checked or dispatch_order device; else on pinned
  /// threads when `group_to_cpu` is given; else on the calling thread plus
  /// as many leading workers of `span` as its measured work pays for (the
  /// width rule). Only that pooled placement is tuned; the tuner keys
  /// entries on the span's size: the SUB-device size for sharded launches,
  /// never the parent pool size.
  LaunchResult launch_core(
      const KernelDef& def, const KernelArgs& args, const NDRange& global,
      const NDRange& local, const NDRange& offset, threading::WorkerSpan span,
      std::mutex& launch_mutex,
      std::optional<std::span<const int>> group_to_cpu = std::nullopt);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  CpuDeviceConfig config_;
};

/// A fixed-width shard of a CpuDevice (clCreateSubDevices analogue). Shares
/// the parent's pool, kernels and buffers; owns a disjoint WorkerSpan and its
/// own launch serialization, so two sub-devices execute concurrently with
/// disjoint worker sets. Tuner entries for launches here are keyed on the
/// shard width, not the parent pool size.
class CpuSubDevice final : public Device {
 public:
  CpuSubDevice(CpuDevice& parent, threading::WorkerSpan span,
               std::size_t index);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DeviceType type() const override { return DeviceType::Cpu; }
  [[nodiscard]] int compute_units() const override {
    return static_cast<int>(span_.size());
  }
  [[nodiscard]] CpuDevice& parent() const noexcept { return *parent_; }
  [[nodiscard]] threading::WorkerSpan span() const noexcept { return span_; }

  LaunchResult launch(const KernelDef& def, const KernelArgs& args,
                      const NDRange& global, const NDRange& local,
                      const NDRange& offset = NDRange{}) override;

 private:
  CpuDevice* parent_;
  threading::WorkerSpan span_;
  std::size_t index_;
  std::mutex launch_mutex_;
};

class SimGpuDevice final : public Device {
 public:
  explicit SimGpuDevice(gpusim::GpuSpec spec = gpusim::GpuSpec::gtx580());

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DeviceType type() const override {
    return DeviceType::SimulatedGpu;
  }
  [[nodiscard]] int compute_units() const override { return spec_.num_sm; }
  [[nodiscard]] const gpusim::GpuSpec& spec() const noexcept { return spec_; }

  /// Functional execution on the host; time from the analytical model when
  /// the kernel registered a gpu_cost (simulated=true), else measured.
  LaunchResult launch(const KernelDef& def, const KernelArgs& args,
                      const NDRange& global, const NDRange& local,
                      const NDRange& offset = NDRange{}) override;

  [[nodiscard]] core::Seconds copy_overhead_seconds(
      std::size_t bytes) const override {
    return gpusim::transfer_seconds(spec_, bytes);
  }
  [[nodiscard]] core::Seconds map_overhead_seconds(
      const Buffer& buffer, std::size_t bytes) const override {
    // Pinned (host-visible) buffers map without a bus crossing; device
    // buffers must be copied over PCIe to be host-accessible.
    return buffer.host_visible() ? 0.0
                                 : gpusim::transfer_seconds(spec_, bytes);
  }

 private:
  gpusim::GpuSpec spec_;
};

/// clGetKernelWorkGroupInfo analogue.
struct KernelWorkGroupInfo {
  std::size_t max_work_group_size = 0;
  /// Lane width the device's vectorizer packs (1 when the kernel has no
  /// SIMD form or the device doesn't coalesce) — size workgroup dim 0 as a
  /// multiple of this.
  std::size_t preferred_work_group_size_multiple = 1;
  std::size_t local_mem_bytes = 0;  ///< currently requested via the args
};

[[nodiscard]] KernelWorkGroupInfo kernel_workgroup_info(const Kernel& kernel,
                                                        const Device& device);

}  // namespace mcl::ocl
