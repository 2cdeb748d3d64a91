// mclobs — causal observability for MiniCL: context ids, a critical-path
// analyzer, and an always-on anomaly flight recorder.
//
// Model: a 64-bit context id (tenant in the top 16 bits, a process-wide
// sequence below) is minted at mclserve admission — or lazily at direct
// enqueue for non-serve users — and carried on the thread-local slot that
// mcltrace already stamps into every event (trace::current_context). On top
// of that identity sit three pieces:
//
//  * decompose(): turns the timestamps a request already produces
//    (serve submit/forward, AsyncEvent ProfilingInfo, completion) into
//    admission / dependency / queue / kernel-or-transfer segments whose sum
//    equals the measured end-to-end latency by construction. All inputs
//    share the core::steady_now_ns epoch, so the arithmetic is exact.
//  * a flight recorder: a bounded mutex-guarded ring of Records that keeps
//    the *most recent* context-annotated lifecycle events (oldest entries
//    are overwritten, never the newest — postmortems want the tail).
//  * anomaly(): records a trigger (ticket timeout/cancel, Status::Error,
//    tuner quarantine, trace-drop burst) and — when a dump directory is
//    configured and the rate limit allows — writes a self-contained
//    `.mclobs` JSON snapshot: recent events, the mclprof metrics snapshot,
//    and every registered section (serve queue state, tuner incumbents).
//
// Cost when observability is off: every instrumentation site performs
// exactly one relaxed atomic load (enabled()) and branches out — the same
// budget as MCL_TRACE_SCOPE, guarded by bench/gbench_micro (BM_ObsDisabled).
//
// Dependency rule: obs sits above core/trace/prof only. ocl, serve, and
// tune link *against* obs and call into it; obs reaches back into them only
// through the opaque section callbacks they register. That keeps the
// library DAG acyclic and lets decompose() stay a pure function over plain
// timestamps.
//
// Environment: MCL_OBS=1 enables recording; MCL_OBS=<dir> enables recording
// and writes anomaly dumps into <dir>. MCL_OBS_INJECT=hang|error arms a
// fault for the flight-recorder tests (see docs/observability.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace mcl::obs {

/// Flight-recorder ring capacity (records, not bytes). Overridable for
/// tests via set_ring_capacity().
inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 14;

/// A trace-drop delta at least this large between two recorder checks is an
/// anomaly (DropBurst).
inline constexpr std::uint64_t kDropBurstThreshold = 1024;

/// Lifecycle / anomaly record kinds. The first three narrate a request's
/// life; the rest are anomaly triggers.
enum class Kind : std::uint8_t {
  Submit,     ///< admitted into a serve session (ctx minted here)
  Forward,    ///< scheduler dispatched the request onto a device queue
  Complete,   ///< terminal; args hold the critical-path segments
  Timeout,    ///< ticket deadline expired before completion
  Cancel,     ///< ticket explicitly cancelled
  Error,      ///< a command finalized with Status::Error propagation
  Quarantine, ///< the tuner quarantined a kernel's candidate set
  DropBurst,  ///< the tracer dropped >= kDropBurstThreshold events
  Inject,     ///< a fault armed via MCL_OBS_INJECT fired
  Mark,       ///< free-form marker (manual dumps, tests)
};

/// Stable lower-case name for a kind ("submit", "drop_burst", ...).
[[nodiscard]] const char* kind_name(Kind k) noexcept;

/// One flight-recorder entry. `detail` must outlive the process (string
/// literal or trace::intern()ed). For Kind::Complete, args[0..4] are the
/// admission/dependency/queue/exec/total segment durations in ns and
/// args[5] is 1 for kernel work, 0 for a transfer.
struct Record {
  std::uint64_t ts_ns = 0;
  std::uint64_t ctx = 0;
  std::uint32_t tenant = 0;
  Kind kind = Kind::Mark;
  core::Status status = core::Status::Success;
  const char* detail = nullptr;
  std::uint64_t args[6] = {0, 0, 0, 0, 0, 0};
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True while the flight recorder is armed. The only cost paid at an
/// instrumentation site when observability is off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Arms / disarms recording. MCL_OBS=... calls this before main().
void set_enabled(bool on);

// --- context ids -------------------------------------------------------------

/// Mints a fresh context id: (tenant_id << 48) | sequence. tenant_id 0 is
/// the anonymous/direct-enqueue tenant. Never returns 0.
[[nodiscard]] std::uint64_t mint_context(std::uint32_t tenant_id) noexcept;

/// The calling thread's current context (trace::current_context), or a
/// freshly minted anonymous id when none is set. Used at direct enqueue so
/// every command is attributable even outside mclserve.
[[nodiscard]] std::uint64_t ensure_context() noexcept;

/// Tenant id packed into a context id.
[[nodiscard]] inline std::uint32_t context_tenant(std::uint64_t ctx) noexcept {
  return static_cast<std::uint32_t>(ctx >> 48);
}

// --- critical-path decomposition --------------------------------------------

/// Timestamps a request accumulates on its way through the stack, all on
/// the core::steady_now_ns epoch. Zeros are allowed anywhere and clamp to
/// empty segments, so direct-enqueue callers can fill only the
/// ProfilingInfo fields.
struct RequestTimes {
  std::uint64_t submit_ns = 0;     ///< serve admission (Session::submit)
  std::uint64_t forward_ns = 0;    ///< scheduler enqueued onto the device
  std::uint64_t dep_ready_ns = 0;  ///< last serve-level dependency forwarded
  std::uint64_t queued_ns = 0;     ///< ProfilingInfo: command enqueued
  std::uint64_t submitted_ns = 0;  ///< ProfilingInfo: wait-list resolved
  std::uint64_t started_ns = 0;    ///< ProfilingInfo: execution began
  std::uint64_t ended_ns = 0;      ///< ProfilingInfo: execution finished
  std::uint64_t done_ns = 0;       ///< completion observed (ticket terminal)
  bool is_kernel = true;           ///< kernel launch vs transfer
};

/// Critical-path segments of one request. admission + dependency + queue +
/// exec <= total; the (small) remainder is completion-callback dispatch.
struct PathSegments {
  std::uint64_t admission_ns = 0;   ///< waiting for WFQ/admission to forward
  std::uint64_t dependency_ns = 0;  ///< blocked on wait-list dependencies
  std::uint64_t queue_ns = 0;       ///< dispatched, waiting for a worker
  std::uint64_t exec_ns = 0;        ///< kernel or transfer execution
  std::uint64_t total_ns = 0;       ///< done - submit (end-to-end latency)
  bool is_kernel = true;

  [[nodiscard]] std::uint64_t named_sum() const noexcept {
    return admission_ns + dependency_ns + queue_ns + exec_ns;
  }
};

/// Pure arithmetic over RequestTimes; saturating, never throws.
/// The serve-side window runs from submit to the command's queued_ns
/// (forward_ns when the request never reached a queue). Serve-level
/// dependency wait (dep_ready - submit, clamped into that window) and
/// queue-level wait-list wait (submitted - queued) both count as
/// dependency_ns; admission_ns is the window's remainder.
[[nodiscard]] PathSegments decompose(const RequestTimes& t) noexcept;

/// Records a Kind::Complete entry and feeds the obs.* histograms
/// (obs.admission_ns, obs.dependency_ns, obs.queue_ns, obs.kernel_ns /
/// obs.transfer_ns, obs.total_ns — recorded when mclprof is enabled).
/// Also runs the trace-drop-burst detector. Call at lock-free sites only:
/// an armed anomaly may dump, and dump sections take subsystem locks.
void note_request_complete(std::uint64_t ctx, std::uint32_t tenant,
                           const PathSegments& segs, core::Status status);

/// Optional tee of every Kind::Complete record, for exact (non-bucketed)
/// percentile work by harnesses like serve_load --obs. Called under a sink
/// mutex of its own, never the recorder's, so a slow sink does not stall
/// record() on the serve forward path. Pass nullptr to clear.
using CompleteSink = std::function<void(const Record&)>;
void set_complete_sink(CompleteSink sink);

// --- flight recorder ---------------------------------------------------------

/// Appends to the ring (no-op when disabled). Oldest entries are
/// overwritten once the ring is full — the recorder keeps the recent tail.
void record(const Record& r);

/// Chronological copy of the ring contents.
[[nodiscard]] std::vector<Record> snapshot_records();

/// Records ever appended (>= snapshot_records().size()).
[[nodiscard]] std::uint64_t total_recorded();

/// Tests: replaces the ring with an empty one of the given capacity.
void set_ring_capacity(std::size_t capacity);

/// Tests: clears the ring, counters, and dump rate-limit state (sections
/// and configuration survive).
void reset();

// --- anomalies and dumps -----------------------------------------------------

/// Records an anomaly and, when a dump directory is set and the rate limit
/// allows, writes a `.mclobs` snapshot triggered by it. Must only be called
/// while holding no subsystem lock that a dump section could take (server,
/// tuner): dumps run inline on the calling thread.
void anomaly(Kind kind, std::uint64_t ctx, const char* detail,
             core::Status status = core::Status::Success,
             std::uint64_t a0 = 0);

/// Where anomaly dumps land ("" disables dumping; the default). The
/// directory is created on demand.
void set_dump_dir(const std::string& dir);
[[nodiscard]] std::string dump_dir();

/// At most `max_dumps` dumps per process, spaced >= min_interval_ns apart.
void set_dump_limit(std::uint32_t max_dumps, std::uint64_t min_interval_ns);

/// The `.mclobs` document for a hypothetical trigger: ring contents,
/// trigger-related events, mclprof metrics, registered sections.
[[nodiscard]] std::string snapshot_json(Kind trigger_kind,
                                        std::uint64_t trigger_ctx,
                                        const char* detail);

/// Unconditionally writes a snapshot (ignores the rate limit, still needs a
/// dump dir unless `path` is given). Returns the written path, "" on
/// failure.
std::string dump_now(Kind trigger_kind, std::uint64_t trigger_ctx,
                     const char* detail, const std::string& path = "");

/// Registers a named dump section; fn returns a JSON *value* spliced
/// verbatim into the dump's "sections" object. Returns a token for
/// unregister_section. fn may take subsystem locks (see anomaly()).
using SectionFn = std::function<std::string()>;
int register_section(const std::string& name, SectionFn fn);
void unregister_section(int token);

// --- fault injection ---------------------------------------------------------

enum class Inject : std::uint8_t {
  None,
  Hang,   ///< mclserve parks the first eligible request forever
  Error,  ///< mclserve fails the first forwarded request
};

/// Cached MCL_OBS_INJECT value (or a set_inject override).
[[nodiscard]] Inject inject() noexcept;
/// Tests: overrides the armed fault.
void set_inject(Inject mode);
/// Parses "hang"/"error"/anything-else (exposed for tests).
[[nodiscard]] Inject parse_inject(const char* value) noexcept;

}  // namespace mcl::obs
