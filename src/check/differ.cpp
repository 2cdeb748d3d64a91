#include "check/differ.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

#include "check/interp.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "ocl/queue.hpp"
#include "san/static_analysis.hpp"
#include "simd/vec.hpp"
#include "veclegal/analysis.hpp"

namespace mcl::check {

namespace {

/// Mutable permutation consulted by the serial device's dispatch_order hook.
/// Falls back to reversed order when the stored permutation does not match
/// the launch's group count (e.g. a golden test reusing the device).
struct DispatchPerm {
  std::vector<std::size_t> perm;
  std::size_t order(std::size_t k, std::size_t total) const {
    return perm.size() == total ? perm[k] : total - 1 - k;
  }
};

/// Devices are expensive to build (thread pools), so one set serves every
/// case of the process. run_case is not thread-safe — one fuzzing driver.
struct Session {
  DispatchPerm perm;
  ocl::CpuDevice pooled;
  ocl::CpuDevice checked;
  ocl::CpuDevice serial;
  ocl::SimGpuDevice gpusim;

  Session()
      : pooled(ocl::CpuDeviceConfig{}),
        checked(make_checked()),
        serial(make_serial(&perm)),
        gpusim() {}

  static ocl::CpuDeviceConfig make_checked() {
    ocl::CpuDeviceConfig cfg;
    cfg.executor = ocl::ExecutorKind::Checked;
    return cfg;
  }
  static ocl::CpuDeviceConfig make_serial(DispatchPerm* perm) {
    ocl::CpuDeviceConfig cfg;
    cfg.threads = 1;  // the hook bypasses the pool; keep it tiny anyway
    cfg.dispatch_order = [perm](std::size_t k, std::size_t total) {
      return perm->order(k, total);
    };
    return cfg;
  }
};

Session& session() {
  static Session s;
  return s;
}

std::vector<ocl::Buffer> make_buffers(ocl::Context& ctx, const Case& c) {
  std::vector<ocl::Buffer> buffers;
  buffers.reserve(c.arrays.size());
  for (const Array& a : c.arrays) {
    // Local arrays get a 4-byte placeholder so indices line up; it is never
    // bound (bind_args issues set_arg_local for those slots).
    const std::size_t bytes =
        a.local ? sizeof(std::uint32_t)
                : static_cast<std::size_t>(a.extent) * sizeof(std::uint32_t);
    buffers.push_back(ctx.create_buffer(
        a.read_only ? ocl::MemFlags::ReadOnly : ocl::MemFlags::ReadWrite,
        bytes));
  }
  return buffers;
}

void upload(ocl::CommandQueue& q, const Case& c, const Memory& init,
            std::vector<ocl::Buffer>& buffers, bool map_inputs) {
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) continue;
    const std::size_t bytes = init.arrays[i].size() * sizeof(std::uint32_t);
    if (map_inputs) {
      void* p = q.enqueue_map_buffer(buffers[i], ocl::MapFlags::Write, 0,
                                     bytes);
      std::memcpy(p, init.arrays[i].data(), bytes);
      q.enqueue_unmap(buffers[i], p);
    } else {
      q.enqueue_write_buffer(buffers[i], 0, bytes, init.arrays[i].data());
    }
  }
}

Memory download(ocl::CommandQueue& q, const Case& c,
                std::vector<ocl::Buffer>& buffers, bool map_outputs) {
  Memory out;
  out.arrays.resize(c.arrays.size());
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) continue;
    out.arrays[i].resize(static_cast<std::size_t>(c.arrays[i].extent));
    const std::size_t bytes = out.arrays[i].size() * sizeof(std::uint32_t);
    if (map_outputs) {
      void* p =
          q.enqueue_map_buffer(buffers[i], ocl::MapFlags::Read, 0, bytes);
      std::memcpy(out.arrays[i].data(), p, bytes);
      q.enqueue_unmap(buffers[i], p);
    } else {
      q.enqueue_read_buffer(buffers[i], 0, bytes, out.arrays[i].data());
    }
  }
  return out;
}

/// Blocking in-order run on `device`: plan-controlled transfers, one
/// NDRange, full readback (inputs included, to catch stray writes). `local`
/// is the launch's local size; a null one leaves it to the device. A 2-D
/// `local` (x, rows) folds the case's items into a (global / rows, rows)
/// plane, which the interpreter flattens back row-major.
Memory run_blocking(ocl::Device& device, const Case& c, const Memory& init,
                    bool with_simd, const ocl::NDRange& local,
                    const Plan& plan) {
  ocl::Context ctx(device);
  std::vector<ocl::Buffer> buffers = make_buffers(ctx, c);
  ocl::CommandQueue q(ctx);
  upload(q, c, init, buffers, plan.map_inputs);

  const ocl::KernelDef def = make_kernel_def(c, with_simd);
  ocl::Kernel kernel(def);
  std::vector<ocl::Buffer*> ptrs;
  for (ocl::Buffer& b : buffers) ptrs.push_back(&b);
  bind_args(kernel, c, ptrs);
  const ocl::NDRange global = local.dims == 2
                                  ? ocl::NDRange(c.global / local[1], local[1])
                                  : ocl::NDRange(c.global);
  (void)q.enqueue_ndrange(kernel, global, local);
  return download(q, c, buffers, plan.map_outputs);
}

/// Split NDRange across two OutOfOrder queues with async transfers and a
/// randomized wait-list DAG (uploads -> both slices -> readbacks, plus
/// random extra edges, some crossing queues).
Memory run_split_async(ocl::Device& device, const Case& c, const Memory& init,
                       core::Rng& rng) {
  ocl::Context ctx(device);
  std::vector<ocl::Buffer> buffers = make_buffers(ctx, c);
  ocl::CommandQueue q1(ctx, ocl::QueueProperties::OutOfOrder);
  ocl::CommandQueue q2(ctx, ocl::QueueProperties::OutOfOrder);
  const auto pick_queue = [&]() -> ocl::CommandQueue& {
    return rng.next_below(2) == 0 ? q1 : q2;
  };

  std::vector<ocl::AsyncEventPtr> uploads;
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) continue;
    const std::size_t bytes = init.arrays[i].size() * sizeof(std::uint32_t);
    uploads.push_back(pick_queue().enqueue_write_buffer_async(
        buffers[i], 0, bytes, init.arrays[i].data()));
  }

  const ocl::KernelDef def = make_kernel_def(c, /*with_simd=*/false);
  ocl::Kernel kernel(def);
  std::vector<ocl::Buffer*> ptrs;
  for (ocl::Buffer& b : buffers) ptrs.push_back(&b);
  bind_args(kernel, c, ptrs);

  // Cut at a random group boundary (>= 1 group per side; caller guarantees
  // at least two groups).
  const std::size_t groups = (c.global + c.local - 1) / c.local;
  const std::size_t cut = c.local * (1 + rng.next_below(groups - 1));

  ocl::AsyncEventPtr a = q1.enqueue_ndrange_async(
      kernel, ocl::NDRange(cut), ocl::NDRange(c.local), uploads);
  std::vector<ocl::AsyncEventPtr> b_waits = uploads;
  if (rng.next_below(2) == 0) b_waits.push_back(a);  // cross-queue edge
  ocl::AsyncEventPtr b = q2.enqueue_ndrange_async(
      kernel, ocl::NDRange(c.global - cut), ocl::NDRange(c.local),
      std::move(b_waits), ocl::NDRange(cut));
  std::vector<ocl::AsyncEventPtr> slice_events{a, b};
  if (rng.next_below(2) == 0) {
    slice_events.push_back(pick_queue().enqueue_marker_async(slice_events));
  }

  Memory out;
  out.arrays.resize(c.arrays.size());
  std::vector<ocl::AsyncEventPtr> reads;
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) continue;
    out.arrays[i].resize(static_cast<std::size_t>(c.arrays[i].extent));
    const std::size_t bytes = out.arrays[i].size() * sizeof(std::uint32_t);
    reads.push_back(pick_queue().enqueue_read_buffer_async(
        buffers[i], 0, bytes, out.arrays[i].data(), slice_events));
  }
  for (const auto& ev : reads) ev->wait();
  q1.finish();
  q2.finish();
  return out;
}

/// Local size of a one-group plane of 2..8 rows holding the case's items,
/// at least one SIMD lane group wide: one Simd call then covers several
/// rows, each followed by its remainder items when W does not divide the
/// width. nullopt when the global size has no such shape.
std::optional<ocl::NDRange> simd_plane_local(const Case& c) {
  constexpr std::size_t kW = static_cast<std::size_t>(simd::kNativeFloatWidth);
  for (std::size_t rows = 2; rows <= 8; ++rows) {
    if (c.global % rows == 0 && c.global / rows >= kW) {
      return ocl::NDRange(c.global / rows, rows);
    }
  }
  return std::nullopt;
}

/// Compares `got` against `expected`, honoring the F32 ULP tolerance.
std::optional<Mismatch> compare(const Case& c, const std::string& backend,
                                const Memory& expected, const Memory& got,
                                std::uint32_t ulp_tol) {
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) continue;
    for (std::size_t j = 0; j < expected.arrays[i].size(); ++j) {
      const std::uint32_t e = expected.arrays[i][j];
      const std::uint32_t g = got.arrays[i][j];
      if (e == g) continue;
      if (c.type == Ty::F32 && ulp_tol > 0 && ulp_distance(e, g) <= ulp_tol) {
        continue;
      }
      Mismatch m;
      m.backend = backend;
      m.array = static_cast<int>(i);
      m.index = static_cast<long long>(j);
      m.expected = e;
      m.actual = g;
      return m;
    }
  }
  return std::nullopt;
}

/// Runs one backend callable, converting thrown runtime errors into a
/// Mismatch (a validated case must not make any backend throw).
template <typename Fn>
std::optional<Mismatch> run_backend(const Case& c, const std::string& name,
                                    const Memory& expected,
                                    std::uint32_t ulp_tol, Fn&& fn) {
  try {
    const Memory got = fn();
    return compare(c, name, expected, got, ulp_tol);
  } catch (const core::Error& e) {
    Mismatch m;
    m.backend = name;
    m.detail = e.what();
    return m;
  }
}

}  // namespace

std::string Mismatch::to_string() const {
  std::ostringstream out;
  out << "backend '" << backend << "': ";
  if (!detail.empty()) {
    out << detail;
  } else {
    out << "A" << array << "[" << index << "] expected 0x" << std::hex
        << expected << " got 0x" << actual << std::dec;
  }
  return out.str();
}

std::uint64_t ulp_distance(std::uint32_t a, std::uint32_t b) {
  const auto key = [](std::uint32_t u) -> std::int64_t {
    // Monotone mapping: negative floats below positive, -0 next to +0.
    return (u & 0x80000000u) != 0
               ? -static_cast<std::int64_t>(u & 0x7fffffffu)
               : static_cast<std::int64_t>(u & 0x7fffffffu);
  };
  const std::int64_t d = key(a) - key(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

std::optional<Mismatch> run_case(const Case& c, const DiffOptions& opt) {
  if (auto why = validate(c)) {
    throw core::Error(core::Status::InternalError, "invalid case: " + *why);
  }
  // Self-check: the lowered IR must be certifiably race/bounds-free, or the
  // generator (not a backend) is broken and every comparison is suspect.
  const veclegal::KernelIr ir = lower_to_ir(c);
  const san::Report report = san::analyze_kernel("mclcheck.case", ir);
  if (!report.clean()) {
    throw core::Error(core::Status::InternalError,
                      "generated case failed static analysis:\n" +
                          report.to_string());
  }

  const Memory expected = reference_result(c);
  const Memory init = initial_memory(c);
  Session& s = session();
  core::Rng rng(opt.transform_seed ^ (c.seed * 0x9e3779b97f4a7c15ULL));
  const bool local_free = !c.has_barrier() && !c.has_local();
  const bool vectorizable =
      local_free &&
      veclegal::analyze(ir.body, veclegal::Model::Spmd).vectorizable;
  const ocl::NDRange own(c.local);

  if (auto m = run_backend(c, "pooled", expected, opt.ulp_tol, [&] {
        return run_blocking(s.pooled, c, init, false, own, c.plan);
      })) {
    return m;
  }

  if (vectorizable) {
    if (auto m = run_backend(c, "simd", expected, opt.ulp_tol, [&] {
          return run_blocking(s.pooled, c, init, true, own, c.plan);
        })) {
      return m;
    }
    if (const auto plane = simd_plane_local(c)) {
      if (auto m = run_backend(c, "simd-plane", expected, opt.ulp_tol, [&] {
            return run_blocking(s.pooled, c, init, true, *plane, c.plan);
          })) {
        return m;
      }
    }
  }

  if (auto m = run_backend(c, "checked", expected, opt.ulp_tol, [&] {
        return run_blocking(s.checked, c, init, false, own, c.plan);
      })) {
    return m;
  }

  if (opt.run_gpusim) {
    if (auto m = run_backend(c, "gpusim", expected, opt.ulp_tol, [&] {
          return run_blocking(s.gpusim, c, init, false, own, c.plan);
        })) {
      return m;
    }
  }

  {
    const std::size_t groups = (c.global + c.local - 1) / c.local;
    s.perm.perm.resize(groups);
    std::iota(s.perm.perm.begin(), s.perm.perm.end(), std::size_t{0});
    for (std::size_t i = groups; i > 1; --i) {  // Fisher-Yates
      std::swap(s.perm.perm[i - 1], s.perm.perm[rng.next_below(i)]);
    }
    auto m = run_backend(c, "dispatch-order", expected, opt.ulp_tol, [&] {
      return run_blocking(s.serial, c, init, false, own, c.plan);
    });
    s.perm.perm.clear();
    if (m) return m;
  }

  if (local_free) {
    // Re-chunk with a random *divisor* of the global size, so the launch
    // still satisfies the uniform-workgroup rule.
    std::vector<std::size_t> divisors;
    for (std::size_t d = 1; d <= c.global && d <= 64; ++d) {
      if (c.global % d == 0) divisors.push_back(d);
    }
    const std::size_t relocal = divisors[rng.next_below(divisors.size())];
    if (auto m = run_backend(c, "rechunk", expected, opt.ulp_tol, [&] {
          return run_blocking(s.pooled, c, init, false, ocl::NDRange(relocal),
                              c.plan);
        })) {
      return m;
    }
    // NULL local: the CPU device's own rule sizes the groups (through the
    // Simd form when there is one, as on the paper-default path).
    if (auto m = run_backend(c, "null-local", expected, opt.ulp_tol, [&] {
          return run_blocking(s.pooled, c, init, vectorizable, ocl::NDRange{},
                              c.plan);
        })) {
      return m;
    }
    if (c.global / c.local >= 2) {
      if (auto m = run_backend(c, "split-oo", expected, opt.ulp_tol, [&] {
            return run_split_async(s.pooled, c, init, rng);
          })) {
        return m;
      }
    }
  }

  const Plan flipped{!c.plan.map_inputs, !c.plan.map_outputs};
  if (auto m = run_backend(c, "plan-flip", expected, opt.ulp_tol, [&] {
        return run_blocking(s.pooled, c, init, false, own, flipped);
      })) {
    return m;
  }

  return std::nullopt;
}

}  // namespace mcl::check
