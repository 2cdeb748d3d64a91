// CL 1.1 shim surface table.
//
// One row per CL entry point, the MCL-suffixed vendor extensions of
// include/CL/cl_ext_mcl.h included, recording its implementation status and
// the tests that cover it. This single table drives three consumers so none
// can drift from the shim itself:
//  - the docs matrix in docs/cl_shim.md (reviewed against this table),
//  - the drift-guard tests in tests/cl_errors_test.cpp (the set of names
//    declared in include/CL/cl.h and include/CL/cl_ext_mcl.h must equal the
//    Implemented+Stubbed rows, and every Implemented row must name at least
//    one covering test),
//  - tools/mclconform, which emits the conformance.json coverage report
//    that plot_results.py --check validates in tier1 (an Implemented entry
//    point with no conformance or matrix test fails the gate).
#pragma once

#include <cstddef>
#include <span>

namespace mcl::ocl {

enum class ClSurfaceStatus {
  Implemented,  ///< full CL 1.1 semantics over the mcl runtime
  Stubbed,      ///< declared; returns the spec-mandated error, no behavior
  Unsupported,  ///< intentionally NOT declared in any CL header
};

struct ClSurfaceEntry {
  const char* name;       ///< CL entry point, e.g. "clEnqueueNDRangeKernel"
  ClSurfaceStatus status;
  /// Comma-separated covering test names (ctest targets); empty for
  /// Stubbed/Unsupported rows. The tier1 coverage gate requires every
  /// Implemented row to be non-empty here.
  const char* tests;
  const char* note;  ///< one-line doc string (docs matrix / conformance.json)
};

/// The full surface table, sorted by name.
[[nodiscard]] std::span<const ClSurfaceEntry> cl_surface();

/// Row lookup by entry-point name; nullptr when absent.
[[nodiscard]] const ClSurfaceEntry* cl_surface_find(const char* name);

[[nodiscard]] const char* to_string(ClSurfaceStatus status) noexcept;

}  // namespace mcl::ocl
