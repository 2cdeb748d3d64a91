/* cl_mcl_runtime: MiniCL's vendor extensions to the OpenCL host API.
 *
 * Runtime features with no Khronos counterpart, exported as MCL-suffixed
 * entry points beside the core CL/cl.h surface (the same convention as
 * other vendors' *KHR / *INTEL / *POCL extensions). They link directly;
 * clGetExtensionFunctionAddress does not look them up.
 *
 *  - tracing: annotate host phases on the mcltrace timeline;
 *  - profiling: the per-launch kernel profile of an NDRange event and the
 *    metrics-registry snapshot;
 *  - self-tuning: set the tuning mode and query the tuner's config for a
 *    launch shape.
 *
 * See docs/cl_shim.md ("Extensions"). The header compiles as C99 and C++.
 */
#ifndef MCL_CL_EXT_MCL_H_
#define MCL_CL_EXT_MCL_H_

#include <CL/cl.h>

#ifdef __cplusplus
extern "C" {
#endif

/* --- tracing ---------------------------------------------------------------
 * Recording is runtime-gated: MCL_TRACE=path.json in the environment (the
 * trace is exported at process exit) or a bench binary's --trace. While not
 * recording each call costs one relaxed atomic load. clTraceBeginMCL opens a
 * span on the calling thread, clTraceEndMCL closes the innermost open span
 * and clTraceCounterMCL samples a named value. The name is copied; it need
 * not outlive the call. A NULL name is CL_INVALID_VALUE. */
CL_API_ENTRY cl_int CL_API_CALL clTraceBeginMCL(const char* name);
CL_API_ENTRY cl_int CL_API_CALL clTraceEndMCL(const char* name);
CL_API_ENTRY cl_int CL_API_CALL clTraceCounterMCL(const char* name,
                                                  cl_double value);

/* --- profiling -------------------------------------------------------------
 * Per-launch profile of an NDRange event. `hardware` is CL_TRUE when the
 * counters came from perf_event_open; without a usable PMU the software
 * fields (seconds, achieved_gbps) are still filled and the counters are 0. */
typedef struct _cl_kernel_profile_mcl {
  char kernel[64]; /* kernel name, truncated, NUL-terminated */
  cl_ulong launches;
  cl_ulong workgroups;
  cl_ulong items;
  cl_ulong cycles;
  cl_ulong instructions;
  cl_ulong cache_references;
  cl_ulong cache_misses;
  cl_ulong branches;
  cl_ulong branch_misses;
  cl_double seconds;
  cl_double ipc;
  cl_double cache_miss_rate;
  cl_double bytes_per_cycle;
  cl_double achieved_gbps;
  cl_bool hardware;
} cl_kernel_profile_mcl;

/* Fills *profile for a completed NDRange event launched while a profiling
 * session was active (MCL_PROF=path, or a bench's --profile). Returns
 * CL_INVALID_EVENT for a NULL event, CL_INVALID_VALUE for a NULL profile,
 * and CL_PROFILING_INFO_NOT_AVAILABLE for any other event. */
CL_API_ENTRY cl_int CL_API_CALL clGetEventKernelProfileMCL(
    cl_event event, cl_kernel_profile_mcl* profile);

/* Copies the metrics registry snapshot as one JSON object
 * ({"counters": ..., "gauges": ..., "histograms": ...}) into buf, truncated
 * to buf_size and always NUL-terminated when buf_size > 0: the registry is
 * live, so a size queried first may be short by the time of the copy.
 * *size_ret (optional) receives the full size including the NUL. buf may be
 * NULL for a size query; buf and size_ret both NULL is CL_INVALID_VALUE. */
CL_API_ENTRY cl_int CL_API_CALL clGetMetricsSnapshotMCL(size_t buf_size,
                                                        char* buf,
                                                        size_t* size_ret);

/* --- self-tuning -----------------------------------------------------------
 * Tuning modes (clSetTuningMCL, or the MCL_TUNE environment variable):
 *   off:    launches run exactly as configured (the default);
 *   seed:   the cost model's top-ranked legal config is applied, with no
 *           exploration launches;
 *   online: seed plus bounded explore/exploit refinement from measured
 *           launch times, with a regression guard (docs/tune.md). */
#define CL_TUNE_OFF_MCL 0
#define CL_TUNE_SEED_MCL 1
#define CL_TUNE_ONLINE_MCL 2

/* Sets the process-wide tuning mode, overriding MCL_TUNE, for subsequent
 * launches; learned state is kept. An unknown mode is CL_INVALID_VALUE. */
CL_API_ENTRY cl_int CL_API_CALL clSetTuningMCL(cl_uint mode);

/* Workitem executors (cl_tuned_config_mcl.executor). */
#define CL_EXECUTOR_AUTO_MCL 0
#define CL_EXECUTOR_LOOP_MCL 1
#define CL_EXECUTOR_FIBER_MCL 2
#define CL_EXECUTOR_SIMD_MCL 3

/* The tuner's recommendation for one launch shape. */
typedef struct _cl_tuned_config_mcl {
  /* Recommended local size; work_dim == 0 means no override (keep the
   * caller's local size or the runtime default). */
  size_t local_size[3];
  cl_uint work_dim;
  cl_uint executor;      /* CL_EXECUTOR_*_MCL */
  cl_uint chunk_divisor; /* chunk = clamp(groups/(threads*divisor), 1, 64) */
} cl_tuned_config_mcl;

/* Fills *config with the best known config for launching `kernel_name`
 * over global_work_size with a NULL local: the measured incumbent when the
 * tuner has explored this shape, else the cost model's seed ranking. Works
 * in every tuning mode and records nothing. Tuner entries are keyed on the
 * compute units of the device the launch runs on, so pass the launch's
 * device (a sub-device keys on its shard width); NULL means the default CPU
 * device. Returns CL_INVALID_DEVICE for a device handle the platform does
 * not know, CL_INVALID_KERNEL_NAME for an unregistered kernel and
 * CL_INVALID_VALUE for a NULL name, config or global size or a work_dim
 * outside 1..3. */
CL_API_ENTRY cl_int CL_API_CALL clGetTunedConfigMCL(
    cl_device_id device, const char* kernel_name, cl_uint work_dim,
    const size_t* global_work_size, cl_tuned_config_mcl* config);

#ifdef __cplusplus
}
#endif

#endif /* MCL_CL_EXT_MCL_H_ */
