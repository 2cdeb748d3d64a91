/* Proves CL/cl.h and CL/cl_ext_mcl.h compile and link as plain C99: a
 * vector add through the CL API, the map path, and one call to every
 * cl_mcl_runtime extension. Returns 0 on success, else the number of the
 * first failed check (asserted by ClExtMcl.PureCTranslationUnit in
 * cl_shim_test.cpp). */
#include <string.h>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

static const char* kSource =
    "__kernel void vectoradd(__global const float* a,\n"
    "                        __global const float* b,\n"
    "                        __global float* c) {\n"
    "  int i = get_global_id(0);\n"
    "  c[i] = a[i] + b[i];\n"
    "}\n";

int cl_ext_mcl_c_smoke(void) {
  enum { N = 1024 };
  static float a[N], b[N], c[N];
  cl_platform_id platform;
  cl_device_id device;
  cl_context ctx;
  cl_command_queue queue;
  cl_program program;
  cl_kernel kernel;
  cl_mem ma, mb, mc;
  cl_event launch;
  cl_int err = CL_SUCCESS;
  size_t global = N, local = 64;
  char name[128];
  void* p;
  int i;

  if (clGetPlatformIDs(1, &platform, NULL) != CL_SUCCESS) return 1;
  if (clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1, &device, NULL) !=
      CL_SUCCESS)
    return 2;
  if (clGetDeviceInfo(device, CL_DEVICE_NAME, sizeof(name), name, NULL) !=
          CL_SUCCESS ||
      name[0] == '\0')
    return 3;
  ctx = clCreateContext(NULL, 1, &device, NULL, NULL, &err);
  if (err != CL_SUCCESS) return 4;
  queue = clCreateCommandQueue(ctx, device, 0, &err);
  if (err != CL_SUCCESS) return 5;
  program = clCreateProgramWithSource(ctx, 1, &kSource, NULL, &err);
  if (err != CL_SUCCESS) return 6;
  if (clBuildProgram(program, 0, NULL, NULL, NULL, NULL) != CL_SUCCESS)
    return 7;
  kernel = clCreateKernel(program, "vectoradd", &err);
  if (err != CL_SUCCESS) return 8;

  for (i = 0; i < N; ++i) {
    a[i] = (float)i;
    b[i] = 2.0f * (float)i;
    c[i] = 0.0f;
  }
  ma = clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, sizeof(a),
                      a, &err);
  if (err != CL_SUCCESS) return 9;
  mb = clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, sizeof(b),
                      b, &err);
  if (err != CL_SUCCESS) return 10;
  mc = clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, sizeof(c), NULL, &err);
  if (err != CL_SUCCESS) return 11;
  if (clSetKernelArg(kernel, 0, sizeof(cl_mem), &ma) != CL_SUCCESS) return 12;
  if (clSetKernelArg(kernel, 1, sizeof(cl_mem), &mb) != CL_SUCCESS) return 13;
  if (clSetKernelArg(kernel, 2, sizeof(cl_mem), &mc) != CL_SUCCESS) return 14;

  /* tracing: a span and a counter around the launch (recording off: each
   * call succeeds and records nothing) */
  if (clTraceBeginMCL("c_smoke.launch") != CL_SUCCESS) return 15;
  if (clTraceCounterMCL("c_smoke.items", (cl_double)N) != CL_SUCCESS)
    return 16;
  if (clEnqueueNDRangeKernel(queue, kernel, 1, NULL, &global, &local, 0, NULL,
                             &launch) != CL_SUCCESS)
    return 17;
  if (clTraceEndMCL("c_smoke.launch") != CL_SUCCESS) return 18;
  if (clEnqueueReadBuffer(queue, mc, CL_TRUE, 0, sizeof(c), c, 0, NULL,
                          NULL) != CL_SUCCESS)
    return 19;
  for (i = 0; i < N; ++i) {
    if (c[i] != 3.0f * (float)i) return 20;
  }

  /* map path */
  p = clEnqueueMapBuffer(queue, mc, CL_TRUE, CL_MAP_READ, 0, sizeof(c), 0,
                         NULL, NULL, &err);
  if (err != CL_SUCCESS || p == NULL) return 21;
  if (((float*)p)[5] != 15.0f) return 22;
  if (clEnqueueUnmapMemObject(queue, mc, p, 0, NULL, NULL) != CL_SUCCESS)
    return 23;
  if (clFinish(queue) != CL_SUCCESS) return 24;

  /* profiling: the metrics snapshot works with or without a session; an
   * event profile needs one, so this launch may have none */
  {
    size_t sz = 0;
    char small[8];
    cl_kernel_profile_mcl prof;
    if (clGetMetricsSnapshotMCL(0, NULL, &sz) != CL_SUCCESS || sz < 3)
      return 25;
    if (clGetMetricsSnapshotMCL(sizeof(small), small, NULL) != CL_SUCCESS)
      return 26;
    if (small[0] != '{') return 27;
    if (small[sizeof(small) - 1] != '\0') return 28; /* truncating copy */
    err = clGetEventKernelProfileMCL(launch, &prof);
    if (err != CL_SUCCESS && err != CL_PROFILING_INFO_NOT_AVAILABLE) return 29;
    if (err == CL_SUCCESS && strcmp(prof.kernel, "vectoradd") != 0) return 30;
  }

  /* self-tuning: a pure query in any mode */
  {
    cl_tuned_config_mcl cfg;
    if (clSetTuningMCL(CL_TUNE_SEED_MCL) != CL_SUCCESS) return 31;
    if (clGetTunedConfigMCL(device, "vectoradd", 1, &global, &cfg) !=
        CL_SUCCESS)
      return 32;
    if (cfg.chunk_divisor == 0 || cfg.executor > CL_EXECUTOR_SIMD_MCL)
      return 33;
    if (cfg.work_dim != 0 && global % cfg.local_size[0] != 0) return 34;
    if (clSetTuningMCL(CL_TUNE_OFF_MCL) != CL_SUCCESS) return 35;
  }

  clReleaseEvent(launch);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseMemObject(ma);
  clReleaseMemObject(mb);
  clReleaseMemObject(mc);
  clReleaseCommandQueue(queue);
  clReleaseContext(ctx);
  return 0;
}
