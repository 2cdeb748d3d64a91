// mclbench shared pieces: exact-sample percentiles, the metric report, the
// in-memory span log, the CL/cl.h mirror of C++ kernels, and the workload
// interface the three workloads implement.
#pragma once

#include <CL/cl.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "ocl/kernel.hpp"
#include "ocl/types.hpp"

namespace mclbench {

/// Regression bounds of the end-to-end metrics, as a share of the baseline
/// median. Times and rates get the largest bound the benchmark allows: the
/// host's own speed drifts by up to a quarter within minutes, and the
/// workloads amplify that drift (README.md has the measurements).
inline constexpr double kTimeBound = 0.25;
inline constexpr double kMemoryBound = 0.10;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return mcl::core::steady_now_ns();
}

/// Nearest-rank p-th percentile (0 < p <= 100) of the nanosecond samples in
/// [first, last), in microseconds; 0 for an empty range. Reorders the range.
[[nodiscard]] double rank_us(std::vector<std::uint64_t>::iterator first,
                             std::vector<std::uint64_t>::iterator last,
                             double p);

/// Exact per-op nanosecond samples. Percentiles are nearest-rank over the
/// samples themselves, never over histogram buckets.
class Samples {
 public:
  void add(std::uint64_t ns) { v_.push_back(ns); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] double pct_us(double p) { return rank_us(v_.begin(), v_.end(), p); }
  [[nodiscard]] double max_us() { return pct_us(100.0); }

 private:
  std::vector<std::uint64_t> v_;
};

/// Everything one run reports. End-to-end metrics carry their direction and
/// regression bound (a share of the baseline median) so compare.py needs no
/// table of its own.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string better;  ///< "lower" / "higher"; empty for layers/diagnostics
    double bound = -1.0; ///< < 0: no bound
  };

  void e2e(const std::string& name, double value, const std::string& unit,
           const char* better, double bound) {
    end_to_end.push_back({name, value, unit, better, bound});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit, "", -1.0});
  }
  void diag(const std::string& name, double value, const std::string& unit) {
    diagnostics.push_back({name, value, unit, "", -1.0});
  }
  void note(const std::string& key, const std::string& value) {
    provenance[key] = value;
  }
  /// Records a failed output check or operation; it counts in fail_frac and
  /// makes the exit status nonzero.
  void fail(const std::string& why) {
    errors.push_back(why);
    ++failed;
  }

  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> diagnostics;
  std::map<std::string, std::string> provenance;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Spans kept in memory (one id per op; op -> layer phases) and written as
/// Chrome-trace JSON when the run ends. Only the first kMaxOps ops are kept
/// so a long traced pass cannot grow the file without bound.
class SpanLog {
 public:
  static constexpr std::uint64_t kMaxOps = 2000;

  /// True while op `op` (0-based) is within the cap.
  [[nodiscard]] bool wants(std::uint64_t op) const noexcept {
    return op < kMaxOps;
  }
  void add(std::uint64_t op, std::string name, std::uint64_t start_ns,
           std::uint64_t end_ns, std::string args_json = {});
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t op;
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::string args_json;
  };
  std::vector<Span> spans_;
};

/// CL/cl.h objects bound to the same storage and argument values as a set
/// of C++ kernels (buffers wrapped with CL_MEM_USE_HOST_PTR), so one op can
/// be entered through the CL shim and through every lower entry point.
class ClMirror {
 public:
  ClMirror();
  ~ClMirror();
  ClMirror(const ClMirror&) = delete;
  ClMirror& operator=(const ClMirror&) = delete;

  [[nodiscard]] cl_command_queue queue() const noexcept { return queue_; }
  /// The cl_kernel mirroring `kernel`'s definition and current arguments
  /// (created on first use).
  [[nodiscard]] cl_kernel kernel_for(const mcl::ocl::Kernel& kernel);
  [[nodiscard]] cl_mem buffer_for(const mcl::ocl::Buffer& buffer);

 private:
  void release() noexcept;

  cl_context context_ = nullptr;
  cl_command_queue queue_ = nullptr;
  cl_program program_ = nullptr;
  std::map<const mcl::ocl::Kernel*, cl_kernel> kernels_;
  std::map<const mcl::ocl::Buffer*, cl_mem> buffers_;
};

/// CL profiling stamps of one op, plus the caller's own call/return stamps
/// on the same steady-clock epoch.
struct ClStamps {
  std::uint64_t call = 0, queued = 0, submit = 0, start = 0, end = 0, ret = 0;
};

/// One CL op: clEnqueueNDRangeKernel(global, local NULL) + clWaitForEvents,
/// bracketed by the call/return stamps. With `profile`, also reads the four
/// profiling stamps (after the return stamp, so outside the op). Returns the
/// first CL error, or CL_SUCCESS.
cl_int cl_launch(cl_command_queue queue, cl_kernel kernel,
                 const mcl::ocl::NDRange& global, ClStamps& stamps,
                 bool profile);

/// One launch of the op the ladder re-enters at each lower layer.
struct LaunchItem {
  std::string key;  ///< per-kernel metric prefix
  mcl::ocl::Kernel* kernel = nullptr;
  mcl::ocl::NDRange global;
  /// The plain single-threaded apps::*_reference of the same launch.
  std::function<void()> reference;
};

/// CPU time the hypervisor gave to other guests while this VM's vCPUs had
/// work (the `steal` column of /proc/stat), in seconds summed over all
/// CPUs; 0 where the kernel does not report it.
[[nodiscard]] double host_steal_s();

/// `steal_s` seconds of steal during `wall_s` seconds, as a share of the
/// VM's CPU time over that interval (all online CPUs).
[[nodiscard]] double steal_share(double steal_s, double wall_s);

/// Steal share above which a window or a set-up measures the hypervisor's
/// scheduler rather than the program: 2% of the VM's CPU time. A quiet host
/// steals under 1%; a busy one 25-40%, which slows the suite fivefold.
inline constexpr double kMaxStealFrac = 0.02;

/// Indices of the measurements to use, given each one's steal share: those
/// at or under kMaxStealFrac, or, when fewer than a quarter are, the
/// quarter with the least steal. Ascending.
[[nodiscard]] std::vector<std::size_t> least_stolen(
    const std::vector<double>& steal_frac);

/// One measured pass of a workload. Successful ops are binned into
/// consecutive one-second windows by when they ended (closed loop) or were
/// due (open loop). The metrics come from the windows least_stolen()
/// keeps: the latency percentiles are medians over those windows'
/// percentiles, so a burst of noise from other tenants of the host moves
/// one window, not the run.
class Pass {
 public:
  /// A pass of `seconds` starting at `start_ns`. Room for `capacity`
  /// samples is reserved and touched up front, so the sample store's share
  /// of peak_rss_mb does not vary with throughput.
  Pass(std::uint64_t start_ns, double seconds, std::size_t capacity);

  /// Called by the load loop between ops, and once when its schedule ends:
  /// reads the host's steal counter on the first call in each window.
  void sample(std::uint64_t now_ns);
  /// Records one successful op that ended / was due at `at_ns`; calls come
  /// in non-decreasing `at_ns` order.
  void record(std::uint64_t at_ns, std::uint64_t latency_ns);
  /// Computes the window medians once every op is recorded. Windows are one
  /// second long, or the whole pass when it is shorter.
  void finish();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Set by finish(), over the windows used.
  double ops_per_s = 0.0;  ///< successful ops per second
  double p50_us = 0.0;     ///< of the windows' p50 latencies
  double p90_us = 0.0;     ///< of the windows' p90 latencies
  std::size_t windows = 0;       ///< full windows in the pass
  std::size_t windows_used = 0;  ///< of those, the ones least_stolen() kept
  double steal_frac = 0.0;       ///< steal share over all full windows
  /// Every successful op's latency in ns (reordered by finish()).
  std::vector<std::uint64_t> ns;

 private:
  std::uint64_t start_ns_;
  double seconds_;
  std::uint64_t window_ns_;
  std::vector<std::size_t> window_start_;  ///< index in `ns` of each window's first op
  std::vector<double> steal_s_;  ///< host_steal_s() at the start of each window
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs and warmup: everything a user waits for before the first op.
  virtual void setup() = 0;
  /// Runs the workload for `seconds`. With `spans`, records per-op spans.
  virtual Pass run_pass(double seconds, SpanLog* spans) = 0;
  /// Output checks, run after the timed work.
  virtual void check(Report& rep) = 0;
  /// Workload-specific end-to-end metrics of the untraced pass.
  virtual void report_run(Report& rep) { (void)rep; }
  /// Workload-specific per-layer metrics of the traced pass.
  virtual void report_layers(Report& rep) { (void)rep; }
  /// The launches of one op, for the ladder.
  virtual std::vector<LaunchItem> ladder_op() = 0;
  /// True when a request never completed; the process must then exit
  /// without running destructors that would wait for it.
  [[nodiscard]] virtual bool stuck() const { return false; }
};

std::unique_ptr<Workload> make_launch_small(std::uint64_t seed);
std::unique_ptr<Workload> make_suite(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_open(std::uint64_t seed);

/// The ladder: the op entered at CL -> async queue -> blocking queue ->
/// Device::launch -> no-op ThreadPool::parallel_run -> serial dispatch_order
/// launch -> apps reference, `seconds` split evenly over the rungs.
void run_ladder(const std::vector<LaunchItem>& op, double seconds,
                Report& rep);

[[nodiscard]] const char* executor_name(mcl::ocl::ExecutorKind kind) noexcept;
/// "simd 8x8": the executor and local size a launch ran with.
[[nodiscard]] std::string picked_text(mcl::ocl::ExecutorKind executor,
                                      const mcl::ocl::NDRange& local);

/// A quoted, escaped JSON string.
[[nodiscard]] std::string json_str(const std::string& s);
/// A JSON number with every digit of `v` (shortest round-trip form); null
/// for NaN or infinity.
[[nodiscard]] std::string json_num(double v);

}  // namespace mclbench
