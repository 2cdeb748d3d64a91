// mclcheck differential driver: one Case through every backend and
// metamorphic transform, compared element-wise against the reference oracle.
//
// Backends (gated on case shape where noted):
//   reference       scalar interpreter — the oracle, not a backend
//   pooled          CpuDevice, Auto executor (Loop, or Fiber for barriers)
//   simd            Simd executor via the lane-group form (barrier-free,
//                   local-free cases the veclegal SPMD model approves)
//   simd-plane      the same, with the items folded into a one-group 2-D
//                   plane of 2..8 rows, so one Simd call covers several rows
//   checked         mclsan Checked executor (serial, instrumented; a
//                   sanitizer finding on a validated case is a failure)
//   gpusim          SimGpuDevice functional execution
//   dispatch-order  serial execution in a seeded random workgroup
//                   permutation (CpuDeviceConfig::dispatch_order hook)
//   rechunk         pooled, with a different workgroup size (local-free)
//   null-local      pooled at a NULL local size, so the CPU device's own
//                   rule picks the groups (local-free; Simd form when
//                   vectorizable)
//   split-oo        NDRange split at a group boundary into two offset
//                   launches on two OutOfOrder queues, async transfers,
//                   random wait-list DAG with cross-queue edges (local-free)
//   plan-flip       pooled, with the map-vs-copy host plan inverted
//
// Integer cases must agree bit-exactly; float cases within ulp_tol ULPs
// (default 0 — exact, which holds by construction since every backend runs
// the same compiled eval_stmt()).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/case.hpp"
#include "check/reference.hpp"

namespace mcl::check {

/// First divergence found, or a backend error. `index < 0` with a nonempty
/// `detail` means the backend threw instead of producing wrong data.
struct Mismatch {
  std::string backend;
  int array = -1;
  long long index = -1;
  std::uint32_t expected = 0;
  std::uint32_t actual = 0;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

struct DiffOptions {
  std::uint32_t ulp_tol = 0;           ///< F32 tolerance (0 = bit-exact)
  std::uint64_t transform_seed = 0x7ea5;  ///< dispatch perm / DAG shapes
  bool run_gpusim = true;
};

/// |a - b| in ULPs over the monotone integer mapping of IEEE-754 floats.
[[nodiscard]] std::uint64_t ulp_distance(std::uint32_t a, std::uint32_t b);

/// Runs the case through every applicable backend. Returns the first
/// mismatch, or nullopt when all agree with the reference. Throws
/// core::Error(InternalError) if the case fails validate() or the mclsan
/// static analyzer flags the lowered IR — both mean the case itself (not a
/// backend) is broken.
[[nodiscard]] std::optional<Mismatch> run_case(const Case& c,
                                               const DiffOptions& opt = {});

}  // namespace mcl::check
