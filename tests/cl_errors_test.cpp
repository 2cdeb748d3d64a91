// CL error-code matrix + drift guards for the binary-compatible shim.
//
// Two halves:
//  1. Drift guards: the set of entry points declared in include/CL/cl.h and
//     include/CL/cl_ext_mcl.h must equal the Implemented+Stubbed rows of the
//     cl_surface() table (extensions, and only they, carry the MCL suffix),
//     the table must stay sorted, every Implemented row must name a covering
//     test, and the numeric expectations below must agree with
//     status_to_cl_code() — so neither the headers, the surface table, nor
//     this test can drift from the shim.
//  2. The matrix proper: one or more table-driven negative calls per entry
//     point asserting the spec-mandated error code.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

#include "core/error.hpp"
#include "ocl/cl_status.hpp"
#include "ocl/cl_surface.hpp"

namespace {

using mcl::core::Status;
using mcl::ocl::cl_surface;
using mcl::ocl::ClSurfaceEntry;
using mcl::ocl::ClSurfaceStatus;
using mcl::ocl::status_to_cl_code;

// ---------------------------------------------------------------------------
// Shared live fixture: one platform/device/context/queue/program/buffer set,
// built once. Negative calls never mutate these (each case that needs a
// throwaway object creates its own).
struct Fix {
  cl_platform_id platform = nullptr;
  cl_device_id cpu = nullptr;
  cl_device_id gpu = nullptr;
  cl_context context = nullptr;     // CPU-only context
  cl_command_queue queue = nullptr;
  cl_program program = nullptr;     // built, binds "square"
  cl_mem buffer = nullptr;          // 1024 bytes

  static Fix& get() {
    static Fix f = [] {
      Fix x;
      cl_int err = clGetPlatformIDs(1, &x.platform, nullptr);
      EXPECT_EQ(CL_SUCCESS, err);
      err = clGetDeviceIDs(x.platform, CL_DEVICE_TYPE_CPU, 1, &x.cpu, nullptr);
      EXPECT_EQ(CL_SUCCESS, err);
      err = clGetDeviceIDs(x.platform, CL_DEVICE_TYPE_GPU, 1, &x.gpu, nullptr);
      EXPECT_EQ(CL_SUCCESS, err);
      x.context = clCreateContext(nullptr, 1, &x.cpu, nullptr, nullptr, &err);
      EXPECT_EQ(CL_SUCCESS, err);
      x.queue = clCreateCommandQueue(x.context, x.cpu, 0, &err);
      EXPECT_EQ(CL_SUCCESS, err);
      const char* src =
          "__kernel void square(__global const float* in, "
          "__global float* out) { }";
      x.program = clCreateProgramWithSource(x.context, 1, &src, nullptr, &err);
      EXPECT_EQ(CL_SUCCESS, err);
      err = clBuildProgram(x.program, 0, nullptr, nullptr, nullptr, nullptr);
      EXPECT_EQ(CL_SUCCESS, err);
      x.buffer = clCreateBuffer(x.context, CL_MEM_READ_WRITE, 1024, nullptr,
                                &err);
      EXPECT_EQ(CL_SUCCESS, err);
      return x;
    }();
    return f;
  }

  // Fresh kernel with no arguments set; caller releases.
  cl_kernel make_kernel() const {
    cl_int err = CL_SUCCESS;
    cl_kernel k = clCreateKernel(program, "square", &err);
    EXPECT_EQ(CL_SUCCESS, err);
    return k;
  }
};

struct MatrixCase {
  const char* entry;  ///< CL entry point this case exercises
  const char* what;   ///< short description of the invalid call
  cl_int want;
  std::function<cl_int(Fix&)> run;
};

// The matrix. Every Implemented/Stubbed surface row must appear here at
// least once (asserted by MatrixCoversSurface below).
const std::vector<MatrixCase>& matrix() {
  static const std::vector<MatrixCase> kCases = {
      // --- platform / device discovery ---
      {"clGetPlatformIDs", "num_entries=0 with non-NULL platforms",
       CL_INVALID_VALUE,
       [](Fix&) {
         cl_platform_id p;
         return clGetPlatformIDs(0, &p, nullptr);
       }},
      {"clGetPlatformInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetPlatformInfo(f.platform, 0, sizeof(buf), buf, nullptr);
       }},
      {"clGetPlatformInfo", "undersized destination", CL_INVALID_VALUE,
       [](Fix& f) {
         char c;
         return clGetPlatformInfo(f.platform, CL_PLATFORM_NAME, 1, &c,
                                  nullptr);
       }},
      {"clGetDeviceIDs", "no accelerator devices exist", CL_DEVICE_NOT_FOUND,
       [](Fix& f) {
         cl_device_id d;
         return clGetDeviceIDs(f.platform, CL_DEVICE_TYPE_ACCELERATOR, 1, &d,
                               nullptr);
       }},
      {"clGetDeviceIDs", "num_entries=0 with non-NULL devices",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_device_id d;
         return clGetDeviceIDs(f.platform, CL_DEVICE_TYPE_CPU, 0, &d,
                               nullptr);
       }},
      {"clGetDeviceIDs", "device_type 0", CL_INVALID_DEVICE_TYPE,
       [](Fix& f) {
         cl_device_id d;
         return clGetDeviceIDs(f.platform, 0, 1, &d, nullptr);
       }},
      {"clGetDeviceIDs", "NULL devices and NULL num_devices",
       CL_INVALID_VALUE,
       [](Fix& f) {
         return clGetDeviceIDs(f.platform, CL_DEVICE_TYPE_CPU, 1, nullptr,
                               nullptr);
       }},
      {"clGetDeviceInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetDeviceInfo(f.cpu, 0, sizeof(buf), buf, nullptr);
       }},

      // --- sub-devices ---
      {"clCreateSubDevices", "gpusim device is not partitionable",
       CL_INVALID_DEVICE,
       [](Fix& f) {
         cl_device_partition_property props[] = {CL_DEVICE_PARTITION_EQUALLY,
                                                 2, 0};
         cl_device_id out[2];
         cl_uint n = 0;
         return clCreateSubDevices(f.gpu, props, 2, out, &n);
       }},
      {"clCreateSubDevices", "NULL properties", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_uint n = 0;
         return clCreateSubDevices(f.cpu, nullptr, 0, nullptr, &n);
       }},
      {"clCreateSubDevices", "EQUALLY with zero compute units",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_device_partition_property props[] = {CL_DEVICE_PARTITION_EQUALLY,
                                                 0, 0};
         cl_uint n = 0;
         return clCreateSubDevices(f.cpu, props, 0, nullptr, &n);
       }},
      {"clCreateSubDevices", "BY_COUNTS exceeding the pool",
       CL_INVALID_DEVICE_PARTITION_COUNT,
       [](Fix& f) {
         cl_device_partition_property props[] = {
             CL_DEVICE_PARTITION_BY_COUNTS, 1 << 20,
             CL_DEVICE_PARTITION_BY_COUNTS_LIST_END, 0};
         cl_uint n = 0;
         return clCreateSubDevices(f.cpu, props, 0, nullptr, &n);
       }},
      {"clRetainDevice", "NULL device", CL_INVALID_DEVICE,
       [](Fix&) { return clRetainDevice(nullptr); }},
      {"clReleaseDevice", "NULL device", CL_INVALID_DEVICE,
       [](Fix&) { return clReleaseDevice(nullptr); }},

      // --- contexts ---
      {"clCreateContext", "NULL device list", CL_INVALID_VALUE,
       [](Fix&) {
         cl_int err = CL_SUCCESS;
         cl_context c = clCreateContext(nullptr, 0, nullptr, nullptr, nullptr,
                                        &err);
         EXPECT_EQ(nullptr, c);
         return err;
       }},
      {"clCreateContext", "NULL entry in the device list", CL_INVALID_DEVICE,
       [](Fix&) {
         cl_device_id none = nullptr;
         cl_int err = CL_SUCCESS;
         cl_context c = clCreateContext(nullptr, 1, &none, nullptr, nullptr,
                                        &err);
         EXPECT_EQ(nullptr, c);
         return err;
       }},
      {"clCreateContext", "unknown context property", CL_INVALID_PROPERTY,
       [](Fix& f) {
         cl_context_properties props[] = {0x7777, 1, 0};
         cl_int err = CL_SUCCESS;
         cl_context c = clCreateContext(props, 1, &f.cpu, nullptr, nullptr,
                                        &err);
         EXPECT_EQ(nullptr, c);
         return err;
       }},
      {"clCreateContextFromType", "no accelerator devices",
       CL_DEVICE_NOT_FOUND,
       [](Fix&) {
         cl_int err = CL_SUCCESS;
         cl_context c = clCreateContextFromType(
             nullptr, CL_DEVICE_TYPE_ACCELERATOR, nullptr, nullptr, &err);
         EXPECT_EQ(nullptr, c);
         return err;
       }},
      {"clRetainContext", "NULL context", CL_INVALID_CONTEXT,
       [](Fix&) { return clRetainContext(nullptr); }},
      {"clReleaseContext", "NULL context", CL_INVALID_CONTEXT,
       [](Fix&) { return clReleaseContext(nullptr); }},
      {"clGetContextInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetContextInfo(f.context, 0, sizeof(buf), buf, nullptr);
       }},

      // --- command queues ---
      {"clCreateCommandQueue", "device not in context", CL_INVALID_DEVICE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_command_queue q = clCreateCommandQueue(f.context, f.gpu, 0, &err);
         EXPECT_EQ(nullptr, q);
         return err;
       }},
      {"clCreateCommandQueue", "unknown properties bit", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_command_queue q =
             clCreateCommandQueue(f.context, f.cpu, 1u << 5, &err);
         EXPECT_EQ(nullptr, q);
         return err;
       }},
      {"clRetainCommandQueue", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) { return clRetainCommandQueue(nullptr); }},
      {"clReleaseCommandQueue", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) { return clReleaseCommandQueue(nullptr); }},
      {"clGetCommandQueueInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetCommandQueueInfo(f.queue, 0, sizeof(buf), buf, nullptr);
       }},
      {"clFlush", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) { return clFlush(nullptr); }},
      {"clFinish", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) { return clFinish(nullptr); }},

      // --- buffers ---
      {"clCreateBuffer", "zero size", CL_INVALID_BUFFER_SIZE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_mem m = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 0, nullptr,
                                   &err);
         EXPECT_EQ(nullptr, m);
         return err;
       }},
      {"clCreateBuffer", "READ_ONLY | WRITE_ONLY", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         clCreateBuffer(f.context, CL_MEM_READ_ONLY | CL_MEM_WRITE_ONLY, 64,
                        nullptr, &err);
         return err;
       }},
      {"clCreateBuffer", "USE_HOST_PTR without host_ptr", CL_INVALID_HOST_PTR,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         clCreateBuffer(f.context, CL_MEM_USE_HOST_PTR, 64, nullptr, &err);
         return err;
       }},
      {"clCreateBuffer", "host_ptr without USE/COPY flag",
       CL_INVALID_HOST_PTR,
       [](Fix& f) {
         char storage[64];
         cl_int err = CL_SUCCESS;
         clCreateBuffer(f.context, CL_MEM_READ_WRITE, sizeof(storage),
                        storage, &err);
         return err;
       }},
      {"clCreateSubBuffer", "unknown create_type", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_buffer_region region{0, 64};
         cl_int err = CL_SUCCESS;
         clCreateSubBuffer(f.buffer, CL_MEM_READ_WRITE, 0x9999, &region,
                           &err);
         return err;
       }},
      {"clCreateSubBuffer", "region out of bounds", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_buffer_region region{512, 1024};
         cl_int err = CL_SUCCESS;
         clCreateSubBuffer(f.buffer, CL_MEM_READ_WRITE,
                           CL_BUFFER_CREATE_TYPE_REGION, &region, &err);
         return err;
       }},
      {"clCreateSubBuffer", "zero-size region", CL_INVALID_BUFFER_SIZE,
       [](Fix& f) {
         cl_buffer_region region{0, 0};
         cl_int err = CL_SUCCESS;
         clCreateSubBuffer(f.buffer, CL_MEM_READ_WRITE,
                           CL_BUFFER_CREATE_TYPE_REGION, &region, &err);
         return err;
       }},
      {"clCreateSubBuffer", "sub-buffer of a sub-buffer",
       CL_INVALID_MEM_OBJECT,
       [](Fix& f) {
         cl_buffer_region region{0, 64};
         cl_int err = CL_SUCCESS;
         cl_mem sub = clCreateSubBuffer(f.buffer, CL_MEM_READ_WRITE,
                                        CL_BUFFER_CREATE_TYPE_REGION, &region,
                                        &err);
         EXPECT_EQ(CL_SUCCESS, err);
         cl_int err2 = CL_SUCCESS;
         clCreateSubBuffer(sub, CL_MEM_READ_WRITE,
                           CL_BUFFER_CREATE_TYPE_REGION, &region, &err2);
         clReleaseMemObject(sub);
         return err2;
       }},
      {"clRetainMemObject", "NULL mem object", CL_INVALID_MEM_OBJECT,
       [](Fix&) { return clRetainMemObject(nullptr); }},
      {"clReleaseMemObject", "NULL mem object", CL_INVALID_MEM_OBJECT,
       [](Fix&) { return clReleaseMemObject(nullptr); }},
      {"clGetMemObjectInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetMemObjectInfo(f.buffer, 0, sizeof(buf), buf, nullptr);
       }},
      {"clGetSupportedImageFormats", "no formats reported, still CL_SUCCESS",
       CL_SUCCESS,
       [](Fix& f) {
         cl_uint n = 99;
         cl_int err = clGetSupportedImageFormats(
             f.context, CL_MEM_READ_WRITE, 0x10F1 /* CL_MEM_OBJECT_IMAGE2D */,
             0, nullptr, &n);
         EXPECT_EQ(0u, n);
         return err;
       }},

      // --- programs ---
      {"clCreateProgramWithSource", "zero strings", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         clCreateProgramWithSource(f.context, 0, nullptr, nullptr, &err);
         return err;
       }},
      {"clCreateProgramWithBinary", "no binary format exists",
       CL_INVALID_BINARY,
       [](Fix& f) {
         const unsigned char blob[] = {0xde, 0xad};
         const unsigned char* blobs[] = {blob};
         size_t lengths[] = {sizeof(blob)};
         cl_int status = CL_SUCCESS;
         cl_int err = CL_SUCCESS;
         clCreateProgramWithBinary(f.context, 1, &f.cpu, lengths, blobs,
                                   &status, &err);
         return err;
       }},
      {"clBuildProgram", "source names an unregistered kernel",
       CL_BUILD_PROGRAM_FAILURE,
       [](Fix& f) {
         const char* src = "__kernel void no_such_kernel(void) { }";
         cl_int err = CL_SUCCESS;
         cl_program p =
             clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         cl_int build =
             clBuildProgram(p, 0, nullptr, nullptr, nullptr, nullptr);
         size_t log_size = 0;
         clGetProgramBuildInfo(p, f.cpu, CL_PROGRAM_BUILD_LOG, 0, nullptr,
                               &log_size);
         std::string log(log_size, '\0');
         clGetProgramBuildInfo(p, f.cpu, CL_PROGRAM_BUILD_LOG, log_size,
                               log.data(), nullptr);
         EXPECT_NE(std::string::npos, log.find("no_such_kernel"));
         clReleaseProgram(p);
         return build;
       }},
      {"clBuildProgram", "NULL program", CL_INVALID_PROGRAM,
       [](Fix&) {
         return clBuildProgram(nullptr, 0, nullptr, nullptr, nullptr,
                               nullptr);
       }},
      {"clRetainProgram", "NULL program", CL_INVALID_PROGRAM,
       [](Fix&) { return clRetainProgram(nullptr); }},
      {"clReleaseProgram", "NULL program", CL_INVALID_PROGRAM,
       [](Fix&) { return clReleaseProgram(nullptr); }},
      {"clGetProgramInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetProgramInfo(f.program, 0, sizeof(buf), buf, nullptr);
       }},
      {"clGetProgramBuildInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         char buf[8];
         return clGetProgramBuildInfo(f.program, f.cpu, 0, sizeof(buf), buf,
                                      nullptr);
       }},
      {"clUnloadCompiler", "no compiler exists, still CL_SUCCESS", CL_SUCCESS,
       [](Fix&) { return clUnloadCompiler(); }},
      {"clGetExtensionFunctionAddress", "no runtime lookup, even of MCL "
       "extensions", CL_SUCCESS,
       [](Fix&) {
         return clGetExtensionFunctionAddress("clIcdGetPlatformIDsKHR") ==
                            nullptr &&
                        clGetExtensionFunctionAddress("clTraceBeginMCL") ==
                            nullptr
                    ? CL_SUCCESS
                    : CL_INVALID_VALUE;
       }},

      // --- kernels ---
      {"clCreateKernel", "unbuilt program", CL_INVALID_PROGRAM_EXECUTABLE,
       [](Fix& f) {
         const char* src = "__kernel void square(void) { }";
         cl_int err = CL_SUCCESS;
         cl_program p =
             clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         cl_int err2 = CL_SUCCESS;
         clCreateKernel(p, "square", &err2);
         clReleaseProgram(p);
         return err2;
       }},
      {"clCreateKernel", "name not bound by the build",
       CL_INVALID_KERNEL_NAME,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         clCreateKernel(f.program, "not_in_this_program", &err);
         return err;
       }},
      {"clCreateKernelsInProgram", "num_kernels smaller than bound count",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_kernel k;
         cl_uint n = 0;
         return clCreateKernelsInProgram(f.program, 0, &k, &n);
       }},
      {"clSetKernelArg", "argument index out of range", CL_INVALID_ARG_INDEX,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         cl_int err = clSetKernelArg(k, 99, sizeof(cl_mem), &f.buffer);
         clReleaseKernel(k);
         return err;
       }},
      {"clSetKernelArg", "zero size with NULL value", CL_INVALID_ARG_SIZE,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         cl_int err = clSetKernelArg(k, 0, 0, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clRetainKernel", "NULL kernel", CL_INVALID_KERNEL,
       [](Fix&) { return clRetainKernel(nullptr); }},
      {"clReleaseKernel", "NULL kernel", CL_INVALID_KERNEL,
       [](Fix&) { return clReleaseKernel(nullptr); }},
      {"clGetKernelInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         char buf[8];
         cl_int err = clGetKernelInfo(k, 0, sizeof(buf), buf, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clGetKernelWorkGroupInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         char buf[8];
         cl_int err =
             clGetKernelWorkGroupInfo(k, f.cpu, 0, sizeof(buf), buf, nullptr);
         clReleaseKernel(k);
         return err;
       }},

      // --- enqueue: kernels ---
      {"clEnqueueNDRangeKernel", "work_dim out of range",
       CL_INVALID_WORK_DIMENSION,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         size_t global = 16;
         cl_int err = clEnqueueNDRangeKernel(f.queue, k, 0, nullptr, &global,
                                             nullptr, 0, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueNDRangeKernel", "NULL global size",
       CL_INVALID_GLOBAL_WORK_SIZE,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         cl_int err = clEnqueueNDRangeKernel(f.queue, k, 1, nullptr, nullptr,
                                             nullptr, 0, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueNDRangeKernel", "local does not divide global",
       CL_INVALID_WORK_GROUP_SIZE,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         size_t global = 100;
         size_t local = 64;
         cl_int err = clEnqueueNDRangeKernel(f.queue, k, 1, nullptr, &global,
                                             &local, 0, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueNDRangeKernel", "kernel arguments never set",
       CL_INVALID_KERNEL_ARGS,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         size_t global = 16;
         cl_int err = clEnqueueNDRangeKernel(f.queue, k, 1, nullptr, &global,
                                             nullptr, 0, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueNDRangeKernel", "NULL wait list with nonzero count",
       CL_INVALID_EVENT_WAIT_LIST,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         size_t global = 16;
         cl_int err = clEnqueueNDRangeKernel(f.queue, k, 1, nullptr, &global,
                                             nullptr, 1, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueTask", "kernel arguments never set", CL_INVALID_KERNEL_ARGS,
       [](Fix& f) {
         cl_kernel k = f.make_kernel();
         cl_int err = clEnqueueTask(f.queue, k, 0, nullptr, nullptr);
         clReleaseKernel(k);
         return err;
       }},
      {"clEnqueueNativeKernel", "native kernels unsupported",
       CL_INVALID_OPERATION,
       [](Fix& f) {
         return clEnqueueNativeKernel(f.queue, nullptr, nullptr, 0, 0,
                                      nullptr, nullptr, 0, nullptr, nullptr);
       }},

      // --- enqueue: transfers ---
      {"clEnqueueReadBuffer", "NULL destination pointer", CL_INVALID_VALUE,
       [](Fix& f) {
         return clEnqueueReadBuffer(f.queue, f.buffer, CL_TRUE, 0, 64,
                                    nullptr, 0, nullptr, nullptr);
       }},
      {"clEnqueueReadBuffer", "read past the end of the buffer",
       CL_INVALID_VALUE,
       [](Fix& f) {
         char dst[64];
         return clEnqueueReadBuffer(f.queue, f.buffer, CL_TRUE, 1024,
                                    sizeof(dst), dst, 0, nullptr, nullptr);
       }},
      {"clEnqueueWriteBuffer", "zero size", CL_INVALID_VALUE,
       [](Fix& f) {
         char src[4] = {0};
         return clEnqueueWriteBuffer(f.queue, f.buffer, CL_TRUE, 0, 0, src, 0,
                                     nullptr, nullptr);
       }},
      {"clEnqueueWriteBuffer", "NULL event in the wait list",
       CL_INVALID_EVENT_WAIT_LIST,
       [](Fix& f) {
         char src[4] = {0};
         cl_event none = nullptr;
         return clEnqueueWriteBuffer(f.queue, f.buffer, CL_FALSE, 0,
                                     sizeof(src), src, 1, &none, nullptr);
       }},
      {"clEnqueueReadBufferRect", "NULL host pointer", CL_INVALID_VALUE,
       [](Fix& f) {
         size_t origin[3] = {0, 0, 0};
         size_t region[3] = {4, 4, 1};
         return clEnqueueReadBufferRect(f.queue, f.buffer, CL_TRUE, origin,
                                        origin, region, 0, 0, 0, 0, nullptr,
                                        0, nullptr, nullptr);
       }},
      {"clEnqueueWriteBufferRect", "zero-extent region", CL_INVALID_VALUE,
       [](Fix& f) {
         char host[64] = {0};
         size_t origin[3] = {0, 0, 0};
         size_t region[3] = {0, 4, 1};
         return clEnqueueWriteBufferRect(f.queue, f.buffer, CL_TRUE, origin,
                                         origin, region, 0, 0, 0, 0, host, 0,
                                         nullptr, nullptr);
       }},
      {"clEnqueueCopyBuffer", "overlapping src/dst regions",
       CL_MEM_COPY_OVERLAP,
       [](Fix& f) {
         return clEnqueueCopyBuffer(f.queue, f.buffer, f.buffer, 0, 16, 64, 0,
                                    nullptr, nullptr);
       }},
      {"clEnqueueMapBuffer", "map past the end of the buffer",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         void* p = clEnqueueMapBuffer(f.queue, f.buffer, CL_TRUE, CL_MAP_READ,
                                      1000, 256, 0, nullptr, nullptr, &err);
         EXPECT_EQ(nullptr, p);
         return err;
       }},
      {"clEnqueueUnmapMemObject", "pointer was never mapped",
       CL_INVALID_VALUE,
       [](Fix& f) {
         char not_mapped;
         return clEnqueueUnmapMemObject(f.queue, f.buffer, &not_mapped, 0,
                                        nullptr, nullptr);
       }},

      // --- enqueue: sync primitives ---
      {"clEnqueueMarker", "NULL event out-pointer", CL_INVALID_VALUE,
       [](Fix& f) { return clEnqueueMarker(f.queue, nullptr); }},
      {"clEnqueueWaitForEvents", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) {
         return clEnqueueWaitForEvents(nullptr, 0, nullptr);
       }},
      {"clEnqueueBarrier", "NULL queue", CL_INVALID_COMMAND_QUEUE,
       [](Fix&) { return clEnqueueBarrier(nullptr); }},

      // --- events ---
      {"clWaitForEvents", "zero events", CL_INVALID_VALUE,
       [](Fix&) { return clWaitForEvents(0, nullptr); }},
      {"clWaitForEvents", "waiting on a failed user event",
       CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         EXPECT_EQ(CL_SUCCESS, clSetUserEventStatus(ev, -5));
         cl_int wait = clWaitForEvents(1, &ev);
         clReleaseEvent(ev);
         return wait;
       }},
      {"clCreateUserEvent", "NULL context", CL_INVALID_CONTEXT,
       [](Fix&) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(nullptr, &err);
         EXPECT_EQ(nullptr, ev);
         return err;
       }},
      {"clSetUserEventStatus", "positive execution status",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         cl_int set = clSetUserEventStatus(ev, 3);
         clSetUserEventStatus(ev, CL_COMPLETE);  // unblock before release
         clReleaseEvent(ev);
         return set;
       }},
      {"clSetEventCallback", "only CL_COMPLETE callbacks supported",
       CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         cl_int set = clSetEventCallback(
             ev, CL_SUBMITTED,
             [](cl_event, cl_int, void*) {}, nullptr);
         clSetUserEventStatus(ev, CL_COMPLETE);
         clReleaseEvent(ev);
         return set;
       }},
      {"clGetEventInfo", "unknown param_name", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         char buf[8];
         cl_int got = clGetEventInfo(ev, 0, sizeof(buf), buf, nullptr);
         clSetUserEventStatus(ev, CL_COMPLETE);
         clReleaseEvent(ev);
         return got;
       }},
      {"clGetEventProfilingInfo", "user events carry no profiling info",
       CL_PROFILING_INFO_NOT_AVAILABLE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         clSetUserEventStatus(ev, CL_COMPLETE);
         cl_ulong t = 0;
         cl_int got = clGetEventProfilingInfo(
             ev, CL_PROFILING_COMMAND_START, sizeof(t), &t, nullptr);
         clReleaseEvent(ev);
         return got;
       }},
      {"clRetainEvent", "NULL event", CL_INVALID_EVENT,
       [](Fix&) { return clRetainEvent(nullptr); }},
      {"clReleaseEvent", "NULL event", CL_INVALID_EVENT,
       [](Fix&) { return clReleaseEvent(nullptr); }},

      // --- cl_mcl_runtime extensions (CL/cl_ext_mcl.h) ---
      {"clTraceBeginMCL", "NULL name", CL_INVALID_VALUE,
       [](Fix&) { return clTraceBeginMCL(nullptr); }},
      {"clTraceEndMCL", "NULL name", CL_INVALID_VALUE,
       [](Fix&) { return clTraceEndMCL(nullptr); }},
      {"clTraceCounterMCL", "NULL name", CL_INVALID_VALUE,
       [](Fix&) { return clTraceCounterMCL(nullptr, 0.0); }},
      {"clGetEventKernelProfileMCL", "NULL event", CL_INVALID_EVENT,
       [](Fix&) { return clGetEventKernelProfileMCL(nullptr, nullptr); }},
      {"clGetEventKernelProfileMCL", "NULL profile", CL_INVALID_VALUE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         clSetUserEventStatus(ev, CL_COMPLETE);
         cl_int got = clGetEventKernelProfileMCL(ev, nullptr);
         clReleaseEvent(ev);
         return got;
       }},
      {"clGetEventKernelProfileMCL", "user events are not kernel launches",
       CL_PROFILING_INFO_NOT_AVAILABLE,
       [](Fix& f) {
         cl_int err = CL_SUCCESS;
         cl_event ev = clCreateUserEvent(f.context, &err);
         EXPECT_EQ(CL_SUCCESS, err);
         clSetUserEventStatus(ev, CL_COMPLETE);
         cl_kernel_profile_mcl p;
         cl_int got = clGetEventKernelProfileMCL(ev, &p);
         clReleaseEvent(ev);
         return got;
       }},
      {"clGetMetricsSnapshotMCL", "NULL buffer and NULL size_ret",
       CL_INVALID_VALUE,
       [](Fix&) { return clGetMetricsSnapshotMCL(0, nullptr, nullptr); }},
      {"clSetTuningMCL", "unknown mode", CL_INVALID_VALUE,
       [](Fix&) { return clSetTuningMCL(7); }},
      {"clGetTunedConfigMCL", "device the platform does not know",
       CL_INVALID_DEVICE,
       [](Fix& f) {
         const size_t global = 64;
         cl_tuned_config_mcl cfg;
         return clGetTunedConfigMCL(reinterpret_cast<cl_device_id>(f.platform),
                                    "square", 1, &global, &cfg);
       }},
      {"clGetTunedConfigMCL", "unregistered kernel", CL_INVALID_KERNEL_NAME,
       [](Fix&) {
         const size_t global = 64;
         cl_tuned_config_mcl cfg;
         return clGetTunedConfigMCL(nullptr, "no.such.kernel", 1, &global,
                                    &cfg);
       }},
      {"clGetTunedConfigMCL", "NULL kernel name", CL_INVALID_VALUE,
       [](Fix&) {
         const size_t global = 64;
         cl_tuned_config_mcl cfg;
         return clGetTunedConfigMCL(nullptr, nullptr, 1, &global, &cfg);
       }},
      {"clGetTunedConfigMCL", "work_dim 0", CL_INVALID_VALUE,
       [](Fix&) {
         const size_t global = 64;
         cl_tuned_config_mcl cfg;
         return clGetTunedConfigMCL(nullptr, "square", 0, &global, &cfg);
       }},
      {"clGetTunedConfigMCL", "NULL global size", CL_INVALID_VALUE,
       [](Fix&) {
         cl_tuned_config_mcl cfg;
         return clGetTunedConfigMCL(nullptr, "square", 1, nullptr, &cfg);
       }},
      {"clGetTunedConfigMCL", "NULL config", CL_INVALID_VALUE,
       [](Fix&) {
         const size_t global = 64;
         return clGetTunedConfigMCL(nullptr, "square", 1, &global, nullptr);
       }},
  };
  return kCases;
}

// ---------------------------------------------------------------------------
// The matrix proper.

TEST(ClErrorMatrix, SpecMandatedCodes) {
  Fix& f = Fix::get();
  for (const MatrixCase& c : matrix()) {
    EXPECT_EQ(c.want, c.run(f)) << c.entry << ": " << c.what;
  }
}

// ---------------------------------------------------------------------------
// Drift guards.

std::set<std::string> header_entry_points(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  // Strip comments so prose mentioning entry points does not count.
  text = std::regex_replace(text, std::regex(R"(/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)"), " ");
  text = std::regex_replace(text, std::regex(R"(//[^\n]*)"), " ");
  std::set<std::string> names;
  std::regex decl(R"((cl[A-Z][A-Za-z0-9]*)\s*\()");
  for (std::sregex_iterator it(text.begin(), text.end(), decl), end;
       it != end; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

TEST(ClSurfaceDrift, HeaderMatchesSurfaceTable) {
  const std::set<std::string> core = header_entry_points(MCL_CL_HEADER);
  const std::set<std::string> ext = header_entry_points(MCL_CL_EXT_HEADER);
  ASSERT_FALSE(core.empty());
  ASSERT_FALSE(ext.empty());
  // Vendor extensions carry the MCL suffix and live only in cl_ext_mcl.h.
  for (const std::string& name : core) {
    EXPECT_FALSE(name.ends_with("MCL"))
        << name << " is an MCL extension declared in CL/cl.h";
  }
  for (const std::string& name : ext) {
    EXPECT_TRUE(name.ends_with("MCL"))
        << name << " is declared in CL/cl_ext_mcl.h without the MCL suffix";
  }
  std::set<std::string> declared = core;
  declared.insert(ext.begin(), ext.end());
  std::set<std::string> expected;
  for (const ClSurfaceEntry& e : cl_surface()) {
    if (e.status != ClSurfaceStatus::Unsupported) expected.insert(e.name);
  }
  for (const std::string& name : declared) {
    EXPECT_TRUE(expected.count(name))
        << name << " is declared in a CL header but has no surface-table row";
  }
  for (const std::string& name : expected) {
    EXPECT_TRUE(declared.count(name))
        << name << " is in the surface table but declared in no CL header";
  }
  // Unsupported rows must NOT be declared.
  for (const ClSurfaceEntry& e : cl_surface()) {
    if (e.status == ClSurfaceStatus::Unsupported) {
      EXPECT_FALSE(declared.count(e.name))
          << e.name << " is marked Unsupported but declared in a CL header";
    }
  }
}

TEST(ClSurfaceDrift, TableSortedByName) {
  auto table = cl_surface();
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(std::strcmp(table[i - 1].name, table[i].name), 0)
        << "surface table out of order at " << table[i].name;
  }
}

TEST(ClSurfaceDrift, ImplementedRowsNameCoveringTests) {
  for (const ClSurfaceEntry& e : cl_surface()) {
    if (e.status == ClSurfaceStatus::Implemented) {
      EXPECT_NE(std::string_view(e.tests), "")
          << e.name << " is Implemented but lists no covering test";
    } else {
      // Unsupported rows have no tests to run.
      if (e.status == ClSurfaceStatus::Unsupported) {
        EXPECT_EQ(std::string_view(e.tests), "") << e.name;
      }
    }
  }
}

TEST(ClSurfaceDrift, MatrixCoversSurface) {
  std::set<std::string> covered;
  for (const MatrixCase& c : matrix()) covered.insert(c.entry);
  for (const ClSurfaceEntry& e : cl_surface()) {
    if (e.status == ClSurfaceStatus::Unsupported) continue;
    if (std::string(e.tests).find("cl_errors_test") != std::string::npos) {
      EXPECT_TRUE(covered.count(e.name))
          << e.name << " lists cl_errors_test as coverage but has no case "
          << "in the matrix";
    }
  }
  // And the reverse: matrix entries must be real surface rows.
  for (const std::string& name : covered) {
    EXPECT_NE(nullptr, mcl::ocl::cl_surface_find(name.c_str()))
        << name << " appears in the matrix but not in the surface table";
  }
}

TEST(ClSurfaceDrift, LookupFindsEveryRow) {
  for (const ClSurfaceEntry& e : cl_surface()) {
    EXPECT_EQ(&e, mcl::ocl::cl_surface_find(e.name));
  }
  EXPECT_EQ(nullptr, mcl::ocl::cl_surface_find("clNoSuchEntryPoint"));
  EXPECT_EQ(nullptr, mcl::ocl::cl_surface_find(nullptr));
}

// The numeric expectations used by the matrix must agree with the shared
// Status -> CL mapping the shim itself uses.
TEST(ClSurfaceDrift, MatrixAgreesWithStatusMapping) {
  EXPECT_EQ(CL_SUCCESS, status_to_cl_code(Status::Success));
  EXPECT_EQ(CL_INVALID_VALUE, status_to_cl_code(Status::InvalidValue));
  EXPECT_EQ(CL_INVALID_BUFFER_SIZE,
            status_to_cl_code(Status::InvalidBufferSize));
  EXPECT_EQ(CL_INVALID_VALUE, status_to_cl_code(Status::InvalidMemFlags));
  EXPECT_EQ(CL_INVALID_KERNEL_ARGS,
            status_to_cl_code(Status::InvalidKernelArgs));
  EXPECT_EQ(CL_INVALID_WORK_GROUP_SIZE,
            status_to_cl_code(Status::InvalidWorkGroupSize));
  EXPECT_EQ(CL_INVALID_GLOBAL_WORK_SIZE,
            status_to_cl_code(Status::InvalidGlobalWorkSize));
  EXPECT_EQ(CL_INVALID_KERNEL_NAME,
            status_to_cl_code(Status::InvalidKernelName));
  EXPECT_EQ(CL_INVALID_OPERATION, status_to_cl_code(Status::InvalidOperation));
  EXPECT_EQ(CL_INVALID_OPERATION, status_to_cl_code(Status::InvalidLaunch));
  EXPECT_EQ(CL_MAP_FAILURE, status_to_cl_code(Status::MapFailure));
  EXPECT_EQ(CL_MEM_OBJECT_ALLOCATION_FAILURE,
            status_to_cl_code(Status::OutOfResources));
  EXPECT_EQ(CL_DEVICE_NOT_FOUND, status_to_cl_code(Status::DeviceNotFound));
  EXPECT_EQ(CL_BUILD_PROGRAM_FAILURE,
            status_to_cl_code(Status::BuildProgramFailure));
}

}  // namespace
