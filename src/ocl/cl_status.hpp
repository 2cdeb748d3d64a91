// Shared Status -> OpenCL error-code mapping.
//
// The C API — the binary-compatible CL shim (cl_shim.cpp) and its
// cl_ext_mcl.h extensions — translates runtime Status values to CL_* codes
// through this one table. The CL error-matrix test
// (tests/cl_errors_test.cpp) cross-checks its expectations against this
// function, which is what keeps the shim's returns and the test table from
// drifting apart.
#pragma once

#include <cstdint>

#include "core/error.hpp"

namespace mcl::ocl {

/// Numeric OpenCL error code for a runtime Status (CL_SUCCESS == 0,
/// CL_INVALID_VALUE == -30, ...). Total over the enum: unknown/new Status
/// values conservatively map to CL_INVALID_VALUE.
[[nodiscard]] constexpr std::int32_t status_to_cl_code(
    core::Status s) noexcept {
  using core::Status;
  switch (s) {
    case Status::Success: return 0;                 // CL_SUCCESS
    case Status::InvalidValue: return -30;          // CL_INVALID_VALUE
    case Status::InvalidBufferSize: return -61;     // CL_INVALID_BUFFER_SIZE
    case Status::InvalidMemFlags: return -30;       // CL_INVALID_VALUE
    case Status::InvalidKernelArgs: return -52;     // CL_INVALID_KERNEL_ARGS
    case Status::InvalidWorkGroupSize: return -54;  // CL_INVALID_WORK_GROUP_SIZE
    case Status::InvalidGlobalWorkSize: return -63; // CL_INVALID_GLOBAL_WORK_SIZE
    case Status::InvalidKernelName: return -46;     // CL_INVALID_KERNEL_NAME
    case Status::InvalidOperation: return -59;      // CL_INVALID_OPERATION
    case Status::InvalidLaunch: return -59;         // CL_INVALID_OPERATION
    case Status::MapFailure: return -12;            // CL_MAP_FAILURE
    case Status::OutOfResources: return -4;  // CL_MEM_OBJECT_ALLOCATION_FAILURE
    case Status::DeviceNotFound: return -1;         // CL_DEVICE_NOT_FOUND
    case Status::BuildProgramFailure: return -11;   // CL_BUILD_PROGRAM_FAILURE
    // mcl-specific terminal states with no CL analogue: a sanitizer finding
    // or a cancelled/timed-out serve request aborts the command, which CL
    // models as an invalid operation on the dependents.
    case Status::SanitizerViolation: return -59;    // CL_INVALID_OPERATION
    case Status::Cancelled: return -59;             // CL_INVALID_OPERATION
    case Status::InternalError: return -30;         // CL_INVALID_VALUE
  }
  return -30;
}

}  // namespace mcl::ocl
