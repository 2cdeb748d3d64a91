#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "core/error.hpp"
#include "core/sysinfo.hpp"
#include "ocl/detail/checked_runner.hpp"
#include "ocl/detail/group_runner.hpp"
#include "ocl/device.hpp"
#include "prof/profiler.hpp"
#include "simd/vec.hpp"
#include "threading/affinity.hpp"
#include "threading/thread_pool.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"

namespace mcl::ocl {

namespace {

/// Total bytes of all bound buffer arguments — the traffic estimate behind
/// trace args and KernelProfile::achieved_gbps (each byte counted once per
/// launch, so re-reads are invisible; it is a floor, not a measurement).
std::uint64_t total_arg_bytes(const KernelArgs& args) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    if (args.is_buffer(i)) bytes += args.buffer_object(i)->size();
  }
  return bytes;
}

/// Items executed through the kernel's simd form. The Simd executor batches
/// full lane groups along dim 0 of each local row and runs the remainder
/// scalar, so coverage is (local0 - local0 % W) of every local0-item row.
std::uint64_t simd_items_of(const NDRange& local, std::size_t groups,
                            ExecutorKind used) {
  if (used != ExecutorKind::Simd) return 0;
  const std::size_t W = static_cast<std::size_t>(simd::kNativeFloatWidth);
  const std::size_t local0 = std::max<std::size_t>(local[0], 1);
  const std::size_t rows_per_group = local.total() / local0;
  return static_cast<std::uint64_t>(groups) * (local0 - local0 % W) *
         rows_per_group;
}

/// Fault-injection hook for mclcheck's self-test (see docs/mclcheck.md):
/// MCL_CHECK_INJECT=chunker makes the pooled dispatch drop the last
/// workgroup, an off-by-one the differential fuzzer must catch and
/// minimize. Never set outside that acceptance test.
bool inject_chunker_bug() {
  const char* inject = std::getenv("MCL_CHECK_INJECT");
  return inject != nullptr && std::string_view(inject) == "chunker";
}

/// The local size a CPU launch runs at: the caller's, or for NULL the CPU
/// device's rule (pick_cpu_default_local), so every CPU path agrees.
NDRange resolve_local(const KernelDef& def, bool has_local_args,
                      const NDRange& global, const NDRange& local,
                      ExecutorKind executor) noexcept {
  if (!local.is_null()) return local;
  return pick_cpu_default_local(
      global, group_oblivious(def, has_local_args, executor),
      static_cast<std::size_t>(simd::kNativeFloatWidth));
}

/// Work that pays for one participant of a pooled launch: about what a
/// sleeping worker takes to wake and start (~8 us, `queue.pool_wait_us` in
/// mclbench's `launch_small` ladder). Measured on a 4-vCPU Xeon @ 2.1 GHz
/// (4 workers, Square at forced widths): one thread was fastest up to ~8 us
/// of work (32768 items), two at ~16 us (65536), three at ~25 us (100000).
constexpr double kGrainSeconds = 8e-6;

/// A launch shape: the kernel and the global and (resolved) local sizes.
struct ShapeKey {
  const KernelDef* def = nullptr;
  NDRange global;
  NDRange local;
  bool operator==(const ShapeKey&) const = default;
};

struct ShapeKeyHash {
  std::size_t operator()(const ShapeKey& key) const noexcept {
    std::size_t h = std::hash<const void*>{}(key.def);
    for (const NDRange* r : {&key.global, &key.local}) {
      for (std::size_t d = 0; d < 3; ++d) {
        h = h * 1000003u ^ r->size[d];
      }
    }
    return h;
  }
};

/// The smallest work (RunStats::busy_seconds, seconds x participants for
/// participants busy throughout) measured so far per launch shape: the CPU
/// time a launch of that shape needs, with as little claim and contention
/// overhead as any run showed. Busy time rather than wall time x
/// participants, because the wall time of a light launch at width k > 1
/// carries the ~4 us it takes to wake k - 1 workers: a 4096-item launch
/// with ~4 us of work, measured at width 2, read 8-15 us and so never
/// earned width 1. Shared by the device and its sub-devices, so guarded by
/// its own mutex rather than a launch mutex.
class WidthTable {
 public:
  /// Participants (the caller included) for the next launch of `key`:
  /// `full` for a shape not yet measured, else one per kGrainSeconds of
  /// cost, clamped to [1, full].
  std::size_t width(const ShapeKey& key, std::size_t full) {
    std::lock_guard lock(mutex_);
    const auto it = min_cost_.find(key);
    if (it == min_cost_.end()) return full;
    const double grains = std::ceil(it->second / kGrainSeconds);
    return std::clamp<std::size_t>(static_cast<std::size_t>(grains), 1, full);
  }

  void record(const ShapeKey& key, double cost) {
    std::lock_guard lock(mutex_);
    // A fuzzer or sweep can launch unboundedly many shapes; forgetting them
    // all only sends each back to full width for one launch.
    if (min_cost_.size() >= kMaxShapes && !min_cost_.contains(key)) {
      min_cost_.clear();
    }
    const auto [it, inserted] = min_cost_.try_emplace(key, cost);
    if (!inserted) it->second = std::min(it->second, cost);
  }

 private:
  static constexpr std::size_t kMaxShapes = 4096;
  std::mutex mutex_;
  std::unordered_map<ShapeKey, double, ShapeKeyHash> min_cost_;
};

/// Runs fn(begin, end) over [0, count) at `width` participants: the caller
/// alone for width 1 (no batch, lock or wake), else the caller plus the
/// first width - 1 workers of `span`.
template <class RangeBody>
threading::RunStats run_at_width(threading::ThreadPool& pool,
                                 threading::WorkerSpan span, std::size_t width,
                                 std::size_t count, const RangeBody& fn,
                                 std::size_t chunk) {
  if (width <= 1) {
    const core::TimePoint t0 = core::now();
    fn(std::size_t{0}, count);
    return {.width = 1,
            .participants = 1,
            .max_per_participant = count,
            .imbalance = 1.0,
            .busy_seconds = core::elapsed_s(t0, core::now())};
  }
  return pool.parallel_ranges_on({span.begin, span.begin + width - 1}, count,
                                 fn, chunk);
}

/// The serial placement: fn over [0, total) on the calling thread, in one
/// call for the identity order (`order` unset), else one group per step,
/// group order(k, total) at step k.
template <class RangeBody>
threading::RunStats run_in_order(
    const decltype(CpuDeviceConfig::dispatch_order)& order, std::size_t total,
    const RangeBody& fn) {
  if (!order) {
    fn(std::size_t{0}, total);
    return {};
  }
  for (std::size_t k = 0; k < total; ++k) {
    const std::size_t g = order(k, total);
    core::check(g < total, core::Status::InvalidValue,
                "dispatch_order returned an out-of-range workgroup index");
    fn(g, g + 1);
  }
  return {};
}

/// The one CPU launch body. Under `launch_mutex`, times `place(fn)`, which
/// must call fn(begin, end) on ranges of group ids that cover the launch
/// once and return the schedule's RunStats; `width` is how many threads the
/// placement runs on, for the `launch:` span. An untraced, unprofiled launch
/// hands the placement the runner's range call itself, so a claimed chunk
/// is one run_groups() call; otherwise each group runs alone under a `wg:`
/// span tagged (group id, worker id, estimated bytes touched) and a
/// prof::GroupScope sampling the thread's hardware counters, inside one
/// `launch:` span. Either side disarms on null (wg_name when tracing is off,
/// the accumulator when not profiling).
template <class Runner, class Place>
LaunchResult run_launch(const KernelDef& def, const KernelArgs& args,
                        Runner& runner, std::size_t width,
                        std::mutex& launch_mutex, const Place& place) {
  LaunchResult result;
  result.local_used = runner.local();
  result.executor_used = runner.executor();
  std::lock_guard launch_lock(launch_mutex);
  prof::LaunchAcc acc;
  const core::TimePoint t0 = core::now();
  if (!trace::enabled() && !prof::profiling()) {
    result.schedule = place([&runner](std::size_t begin, std::size_t end) {
      runner.run_groups(begin, end);
    });
  } else {
    const char* wg_name =
        trace::enabled() ? trace::intern("wg:" + def.name) : nullptr;
    // Rough per-workgroup traffic: buffer bytes split evenly across groups.
    const std::uint64_t est_bytes =
        total_arg_bytes(args) / std::max<std::size_t>(runner.total_groups(), 1);
    prof::LaunchAcc* const accp = prof::profiling() ? &acc : nullptr;
    // Groups may run on pool or pinned threads whose thread-local causal
    // context is not the launcher's; carry it into the lambda so wg: spans
    // stay attributable to the enclosing command (mclobs).
    const std::uint64_t ctx = trace::current_context();
    trace::ScopedSpan launch_span(
        trace::enabled() ? trace::intern("launch:" + def.name) : nullptr,
        "groups,width", runner.total_groups(), width);
    const auto run_group = [&runner, wg_name, est_bytes, accp,
                            ctx](std::size_t g) {
      trace::ContextScope cscope(ctx);
      trace::ScopedSpan span(wg_name, "group,worker,est_bytes", g,
                             wg_name != nullptr ? trace::current_thread_id()
                                                : 0,
                             est_bytes);
      prof::GroupScope hw(accp);
      runner.run_groups(g, g + 1);
    };
    result.schedule = place([&run_group](std::size_t begin, std::size_t end) {
      for (std::size_t g = begin; g < end; ++g) run_group(g);
    });
  }
  result.seconds = core::elapsed_s(t0, core::now());
  if (prof::profiling()) {
    const std::size_t groups = runner.total_groups();
    result.profile = prof::commit_launch(
        def.name, acc,
        {.groups = groups,
         .items = groups * runner.local().total(),
         .simd_items =
             simd_items_of(runner.local(), groups, result.executor_used),
         .has_simd_form = def.simd != nullptr && simd::kNativeFloatWidth > 1,
         .seconds = result.seconds,
         .est_bytes = total_arg_bytes(args)});
  }
  return result;
}

}  // namespace

struct CpuDevice::Impl {
  explicit Impl(const CpuDeviceConfig& config)
      : pool(config.threads, config.pin_workers) {}
  threading::ThreadPool pool;
  // Kernel launches are serialized per device: the pool's batch dispatch
  // supports one batch at a time, and the device models a single in-order
  // execution engine (multiple CommandQueues may share it).
  std::mutex launch_mutex;
  WidthTable widths;
};

CpuDevice::CpuDevice(CpuDeviceConfig config)
    : impl_(std::make_unique<Impl>(config)), config_(config) {}

CpuDevice::~CpuDevice() = default;

std::string CpuDevice::name() const {
  const core::HostInfo host = core::probe_host();
  return host.cpu_model.empty() ? "MiniCL CPU" : host.cpu_model;
}

int CpuDevice::compute_units() const {
  return static_cast<int>(impl_->pool.thread_count());
}

LaunchResult CpuDevice::launch(const KernelDef& def, const KernelArgs& args,
                               const NDRange& global, const NDRange& local,
                               const NDRange& offset) {
  return launch_core(def, args, global, local, offset,
                     {0, impl_->pool.thread_count()}, impl_->launch_mutex);
}

LaunchResult CpuDevice::launch_pinned(const KernelDef& def,
                                      const KernelArgs& args,
                                      const NDRange& global,
                                      const NDRange& local,
                                      std::span<const int> group_to_cpu) {
  return launch_core(def, args, global, local, NDRange{},
                     {0, impl_->pool.thread_count()}, impl_->launch_mutex,
                     group_to_cpu);
}

int CpuDevice::pool_worker_index() const noexcept {
  return impl_->pool.worker_index_here();
}

std::vector<std::shared_ptr<CpuSubDevice>> CpuDevice::partition_equally(
    std::size_t units) {
  const std::size_t total = impl_->pool.thread_count();
  core::check(units > 0 && units <= total, core::Status::InvalidValue,
              "partition_equally: units must be in [1, compute_units]");
  std::vector<std::shared_ptr<CpuSubDevice>> subs;
  subs.reserve(total / units);
  for (std::size_t begin = 0; begin + units <= total; begin += units) {
    subs.push_back(std::make_shared<CpuSubDevice>(
        *this, threading::WorkerSpan{begin, begin + units}, subs.size()));
  }
  return subs;
}

std::vector<std::shared_ptr<CpuSubDevice>> CpuDevice::partition_by_counts(
    std::span<const std::size_t> counts) {
  const std::size_t total = impl_->pool.thread_count();
  core::check(!counts.empty(), core::Status::InvalidValue,
              "partition_by_counts: counts must be non-empty");
  std::size_t sum = 0;
  for (std::size_t c : counts) {
    core::check(c > 0, core::Status::InvalidValue,
                "partition_by_counts: zero-width sub-device");
    sum += c;
  }
  core::check(sum <= total, core::Status::InvalidValue,
              "partition_by_counts: counts exceed compute_units");
  std::vector<std::shared_ptr<CpuSubDevice>> subs;
  subs.reserve(counts.size());
  std::size_t begin = 0;
  for (std::size_t c : counts) {
    subs.push_back(std::make_shared<CpuSubDevice>(
        *this, threading::WorkerSpan{begin, begin + c}, subs.size()));
    begin += c;
  }
  return subs;
}

CpuSubDevice::CpuSubDevice(CpuDevice& parent, threading::WorkerSpan span,
                           std::size_t index)
    : parent_(&parent), span_(span), index_(index) {}

std::string CpuSubDevice::name() const {
  return parent_->name() + " [sub " + std::to_string(index_) + ": workers " +
         std::to_string(span_.begin) + ".." + std::to_string(span_.end) + ")";
}

LaunchResult CpuSubDevice::launch(const KernelDef& def, const KernelArgs& args,
                                  const NDRange& global, const NDRange& local,
                                  const NDRange& offset) {
  return parent_->launch_core(def, args, global, local, offset, span_,
                              launch_mutex_);
}

LaunchResult CpuDevice::launch_core(
    const KernelDef& def, const KernelArgs& args, const NDRange& global,
    const NDRange& local, const NDRange& offset, threading::WorkerSpan span,
    std::mutex& launch_mutex,
    std::optional<std::span<const int>> group_to_cpu) {
  // NULL local resolves here, once, for every placement below; only the
  // tuner may still replace it.
  const bool has_local_args = args.total_local_bytes() > 0;
  const NDRange resolved_local =
      resolve_local(def, has_local_args, global, local, config_.executor);
  // Placement rule (docs/runtime.md): a Checked or dispatch_order launch
  // runs serially on the caller, in dispatch_order or identity order; else
  // a launch_pinned call runs on pinned threads; else the launch runs on
  // the pool at the measured width.
  if (config_.executor == ExecutorKind::Checked) {
    // mclsan dynamic mode. Its prologue (snapshots, IR replay) and epilogue
    // (W1 compare) are timed with the groups, and the epilogue throws
    // SanitizerViolation, after every group ran, on any finding.
    detail::CheckedRunner checked(def, args, global, resolved_local,
                                  config_.fiber_stack_bytes, offset);
    return run_launch(def, args, checked, 1, launch_mutex,
                      [&](const auto& fn) {
                        checked.run([&] {
                          run_in_order(config_.dispatch_order,
                                       checked.total_groups(), fn);
                        });
                        return threading::RunStats{};
                      });
  }
  // mcltune hook: only pooled launches that leave every knob to the runtime
  // are tunable (an explicit executor config or a dispatch-order override is
  // the caller asserting policy, e.g. the ablation benches' fixed arms).
  // Local size is overridden only when the caller passed NullRange and the
  // kernel binds no local-memory args — their byte counts were sized for the
  // caller's groups. One relaxed load when MCL_TUNE is off.
  ExecutorKind exec_kind = config_.executor;
  NDRange launch_local = resolved_local;
  std::size_t chunk_divisor = 16;
  std::optional<tune::Decision> tuned;
  if (tune::enabled() && config_.executor == ExecutorKind::Auto &&
      !config_.dispatch_order && !group_to_cpu) {
    tuned = tune::Tuner::instance().decide(
        def, global, local, has_local_args,
        std::max<std::size_t>(span.size(), 1));
    if (tuned) {
      exec_kind = tuned->config.executor;
      // The tuner keys entries on has_local_args, so a local override can
      // only come from a no-local-args entry; re-check here anyway — the
      // caller's local byte counts are sized for its own group size, and a
      // resized group indexing past them is memory corruption, not a tuning
      // regression.
      if (local.is_null() && !has_local_args &&
          !tuned->config.local.is_null()) {
        launch_local = tuned->config.local;
      }
      chunk_divisor = tuned->config.chunk_divisor;
    }
  }

  detail::GroupRunner runner(def, args, global, launch_local, exec_kind,
                             config_.fiber_stack_bytes, offset);
  if (config_.dispatch_order) {
    // mclcheck's metamorphic dispatch-order transform: race-free kernels
    // must be insensitive to the order, so it is exact, not a scheduling
    // hint — the pool (and its chunker) is bypassed.
    return run_launch(def, args, runner, 1, launch_mutex,
                      [&](const auto& fn) {
                        return run_in_order(config_.dispatch_order,
                                            runner.total_groups(), fn);
                      });
  }
  if (group_to_cpu) {
    core::check(group_to_cpu->size() == runner.total_groups(),
                core::Status::InvalidValue,
                "group_to_cpu must name a CPU for every workgroup");
    // Bucket workgroups by target CPU; one pinned thread per distinct CPU.
    std::map<int, std::vector<std::size_t>> by_cpu;
    for (std::size_t g = 0; g < group_to_cpu->size(); ++g) {
      core::check((*group_to_cpu)[g] >= 0, core::Status::InvalidValue,
                  "negative CPU id in group_to_cpu");
      by_cpu[(*group_to_cpu)[g]].push_back(g);
    }
    return run_launch(
        def, args, runner, by_cpu.size(), launch_mutex,
        [&by_cpu](const auto& fn) {
          std::vector<std::thread> threads;
          threads.reserve(by_cpu.size());
          for (const auto& [cpu, groups] : by_cpu) {
            threads.emplace_back([cpu = cpu, &groups, &fn] {
              threading::pin_current_thread(cpu);
              for (std::size_t g : groups) fn(g, g + 1);
            });
          }
          for (auto& t : threads) t.join();
          return threading::RunStats{};
        });
  }

  // Real dispatch extent; diverges from total_groups() only under the
  // MCL_CHECK_INJECT=chunker fault (drops the last group when there are
  // at least two) so mclcheck's catch-and-minimize path can be exercised.
  std::size_t dispatch_groups = runner.total_groups();
  if (dispatch_groups > 1 && inject_chunker_bug()) --dispatch_groups;
  // Width rule: as many participants as the shape's measured work pays for,
  // never more than it has groups.
  const ShapeKey shape{&def, global, runner.local()};
  const std::size_t width =
      std::min(impl_->widths.width(shape, span.size() + 1), dispatch_groups);
  // Workgroups are claimed in chunks (as TBB-based runtimes do) and each
  // claimed chunk runs as one GroupRunner range, so the shared-counter cost
  // and the per-group setup both amortize; per-item costs remain. Chunks
  // are sized for the participants that run the launch.
  const std::size_t chunk = std::clamp<std::size_t>(
      runner.total_groups() / (width * chunk_divisor), 1, 64);
  LaunchResult result = run_launch(
      def, args, runner, width, launch_mutex, [&](const auto& fn) {
        return run_at_width(impl_->pool, span, width, dispatch_groups, fn,
                            chunk);
      });
  impl_->widths.record(shape, result.schedule.busy_seconds);
  if (tuned) tune::Tuner::instance().report(*tuned, result.seconds);
  return result;
}

}  // namespace mcl::ocl
