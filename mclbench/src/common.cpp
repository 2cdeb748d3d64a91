#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace mclbench {

namespace {

/// Signatures of the Table II kernels the workloads launch. The CL shim binds
/// each `__kernel` name to the registered native implementation and takes
/// the argument count from the signature; the bodies are never compiled.
const char* const kClSource = R"(
__kernel void square(__global const float* in, __global float* out) {}
__kernel void vectoradd(__global const float* a, __global const float* b,
                        __global float* c) {}
__kernel void matrixmul_naive(__global const float* a, __global const float* b,
                              __global float* c, uint m, uint n, uint k) {}
__kernel void matrixmul(__global const float* a, __global const float* b,
                        __global float* c, uint m, uint n, uint k,
                        __local float* as, __local float* bs,
                        __local float* cacc) {}
__kernel void blackscholes(__global const float* s, __global const float* x,
                           __global const float* t, __global float* call,
                           __global float* put, float r, float v) {}
)";

void check_cl(cl_int err, const char* what) {
  if (err != CL_SUCCESS) {
    throw std::runtime_error(std::string(what) + " failed: " +
                             std::to_string(err));
  }
}

}  // namespace

double rank_us(std::vector<std::uint64_t>::iterator first,
               std::vector<std::uint64_t>::iterator last, double p) {
  const auto n = static_cast<double>(last - first);
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::ptrdiff_t>(std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  const auto nth = first + (rank - 1);
  std::nth_element(first, nth, last);
  return static_cast<double>(*nth) / 1000.0;
}

double host_steal_s() {
  // The first line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  unsigned long long field[8] = {};
  stat >> label;
  for (unsigned long long& f : field) stat >> f;
  if (!stat || label != "cpu") return 0.0;
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(field[7]) / ticks_per_s;
}

double steal_share(double steal_s, double wall_s) {
  static const double cpus =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  return wall_s > 0.0 ? steal_s / (wall_s * cpus) : 0.0;
}

std::vector<std::size_t> least_stolen(const std::vector<double>& steal_frac) {
  std::vector<std::size_t> order(steal_frac.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_frac[a] < steal_frac[b];
  });
  const auto quiet = static_cast<std::size_t>(
      std::count_if(steal_frac.begin(), steal_frac.end(),
                    [](double s) { return s <= kMaxStealFrac; }));
  order.resize(std::max(quiet, (steal_frac.size() + 3) / 4));
  std::sort(order.begin(), order.end());
  return order;
}

namespace {

/// Lower median (the nearest-rank 50th percentile); 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

Pass::Pass(std::uint64_t start_ns, double seconds, std::size_t capacity)
    : start_ns_(start_ns),
      seconds_(seconds),
      window_ns_(std::clamp<std::uint64_t>(
          static_cast<std::uint64_t>(seconds * 1e9), 1, 1'000'000'000)) {
  ns.resize(capacity);
  ns.clear();
}

void Pass::sample(std::uint64_t now_ns) {
  const std::uint64_t w = now_ns > start_ns_ ? (now_ns - start_ns_) / window_ns_ : 0;
  if (w < steal_s_.size()) return;
  const double steal = host_steal_s();
  while (steal_s_.size() <= w) steal_s_.push_back(steal);
}

void Pass::record(std::uint64_t at_ns, std::uint64_t latency_ns) {
  const std::uint64_t w = at_ns > start_ns_ ? (at_ns - start_ns_) / window_ns_ : 0;
  while (window_start_.size() <= w) window_start_.push_back(ns.size());
  ns.push_back(latency_ns);
}

void Pass::finish() {
  sample(now_ns());
  windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds_ * 1e9 / static_cast<double>(window_ns_)));
  const double window_s = static_cast<double>(window_ns_) / 1e9;
  std::vector<double> steal(windows, 0.0);
  for (std::size_t i = 0; i < windows && i + 1 < steal_s_.size(); ++i) {
    steal[i] = steal_share(steal_s_[i + 1] - steal_s_[i], window_s);
  }
  steal_frac = std::accumulate(steal.begin(), steal.end(), 0.0) /
               static_cast<double>(windows);
  const std::vector<std::size_t> used = least_stolen(steal);
  windows_used = used.size();
  std::vector<double> p50s, p90s;
  std::size_t in_windows = 0;
  for (const std::size_t i : used) {
    if (i >= window_start_.size()) continue;
    const std::size_t b = window_start_[i];
    const std::size_t e = i + 1 < window_start_.size() ? window_start_[i + 1] : ns.size();
    if (e == b) continue;
    const auto first = ns.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last = ns.begin() + static_cast<std::ptrdiff_t>(e);
    p50s.push_back(rank_us(first, last, 50));
    p90s.push_back(rank_us(first, last, 90));
    in_windows += e - b;
  }
  // Throughput over all windows used: a per-window median of a closed
  // loop's few dozen rounds per second would move in whole-round steps.
  ops_per_s = static_cast<double>(in_windows) /
              (static_cast<double>(windows_used) * window_s);
  p50_us = median(p50s);
  p90_us = median(p90s);
}

void SpanLog::add(std::uint64_t op, std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::string args_json) {
  spans_.push_back(
      {op, std::move(name), start_ns, end_ns, std::move(args_json)});
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per op, so the phases of overlapping open-loop requests
    // nest under their own op span.
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.op + 1
        << ",\"ts\":" << json_num(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"op\":" << s.op
        << (s.args_json.empty() ? "" : ",") << s.args_json << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ClMirror::ClMirror() {
  try {
    cl_platform_id platform = nullptr;
    cl_device_id device = nullptr;
    cl_int err = CL_SUCCESS;
    check_cl(clGetPlatformIDs(1, &platform, nullptr), "clGetPlatformIDs");
    check_cl(clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1, &device, nullptr),
             "clGetDeviceIDs");
    context_ = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
    check_cl(err, "clCreateContext");
    queue_ = clCreateCommandQueue(context_, device, CL_QUEUE_PROFILING_ENABLE,
                                  &err);
    check_cl(err, "clCreateCommandQueue");
    const char* source = kClSource;
    program_ = clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
    check_cl(err, "clCreateProgramWithSource");
    check_cl(clBuildProgram(program_, 1, &device, "", nullptr, nullptr),
             "clBuildProgram");
  } catch (...) {
    release();
    throw;
  }
}

ClMirror::~ClMirror() { release(); }

void ClMirror::release() noexcept {
  if (queue_ != nullptr) clFinish(queue_);
  for (auto& [_, k] : kernels_) clReleaseKernel(k);
  for (auto& [_, m] : buffers_) clReleaseMemObject(m);
  kernels_.clear();
  buffers_.clear();
  if (program_ != nullptr) clReleaseProgram(program_);
  if (queue_ != nullptr) clReleaseCommandQueue(queue_);
  if (context_ != nullptr) clReleaseContext(context_);
  program_ = nullptr;
  queue_ = nullptr;
  context_ = nullptr;
}

cl_mem ClMirror::buffer_for(const mcl::ocl::Buffer& buffer) {
  if (auto it = buffers_.find(&buffer); it != buffers_.end()) return it->second;
  cl_int err = CL_SUCCESS;
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE | CL_MEM_USE_HOST_PTR,
                              buffer.size(),
                              const_cast<void*>(buffer.device_ptr()), &err);
  check_cl(err, "clCreateBuffer");
  buffers_[&buffer] = mem;
  return mem;
}

cl_kernel ClMirror::kernel_for(const mcl::ocl::Kernel& kernel) {
  if (auto it = kernels_.find(&kernel); it != kernels_.end()) return it->second;
  cl_int err = CL_SUCCESS;
  cl_kernel k = clCreateKernel(program_, kernel.def().name.c_str(), &err);
  check_cl(err, "clCreateKernel");
  kernels_[&kernel] = k;
  const mcl::ocl::KernelArgs& args = kernel.args();
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    const auto idx = static_cast<cl_uint>(i);
    if (args.is_buffer(i)) {
      const cl_mem mem = buffer_for(*args.buffer_object(i));
      check_cl(clSetKernelArg(k, idx, sizeof(cl_mem), &mem), "clSetKernelArg");
    } else if (args.is_local(i)) {
      check_cl(clSetKernelArg(k, idx, args.local_bytes(i), nullptr),
               "clSetKernelArg(local)");
    } else {
      // Every scalar argument of the Table II kernels is a 4-byte uint or
      // float; the bits are passed through unchanged.
      const auto bits = args.scalar<std::uint32_t>(i);
      check_cl(clSetKernelArg(k, idx, sizeof bits, &bits),
               "clSetKernelArg(scalar)");
    }
  }
  return k;
}

cl_int cl_launch(cl_command_queue queue, cl_kernel kernel,
                 const mcl::ocl::NDRange& global, ClStamps& stamps,
                 bool profile) {
  const std::size_t gws[3] = {global.size[0], global.size[1], global.size[2]};
  cl_event ev = nullptr;
  stamps.call = now_ns();
  cl_int err = clEnqueueNDRangeKernel(queue, kernel,
                                      static_cast<cl_uint>(global.dims),
                                      nullptr, gws, nullptr, 0, nullptr, &ev);
  if (err == CL_SUCCESS) err = clWaitForEvents(1, &ev);
  stamps.ret = now_ns();
  if (err == CL_SUCCESS && profile) {
    const std::pair<cl_profiling_info, std::uint64_t*> queries[] = {
        {CL_PROFILING_COMMAND_QUEUED, &stamps.queued},
        {CL_PROFILING_COMMAND_SUBMIT, &stamps.submit},
        {CL_PROFILING_COMMAND_START, &stamps.start},
        {CL_PROFILING_COMMAND_END, &stamps.end}};
    for (const auto& [param, slot] : queries) {
      cl_ulong v = 0;
      if (err == CL_SUCCESS) {
        err = clGetEventProfilingInfo(ev, param, sizeof v, &v, nullptr);
      }
      *slot = v;
    }
  }
  if (ev != nullptr) clReleaseEvent(ev);
  return err;
}

std::string picked_text(mcl::ocl::ExecutorKind executor,
                        const mcl::ocl::NDRange& local) {
  std::string s = executor_name(executor);
  for (std::size_t d = 0; d < local.dims; ++d) {
    s += d == 0 ? ' ' : 'x';
    s += std::to_string(local.size[d]);
  }
  return s;
}

const char* executor_name(mcl::ocl::ExecutorKind kind) noexcept {
  switch (kind) {
    case mcl::ocl::ExecutorKind::Auto: return "auto";
    case mcl::ocl::ExecutorKind::Loop: return "loop";
    case mcl::ocl::ExecutorKind::Fiber: return "fiber";
    case mcl::ocl::ExecutorKind::Simd: return "simd";
    case mcl::ocl::ExecutorKind::Checked: return "checked";
  }
  return "?";
}

std::string json_str(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace mclbench
