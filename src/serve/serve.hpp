// mclserve — multi-tenant compute service over the MiniCL event-graph
// executor.
//
// N client sessions (one per tenant) submit NDRange launches and buffer
// transfers; the server admits them into bounded per-tenant streams and
// multiplexes them onto per-tenant CommandQueues (all backed by the shared
// executor thread pool) under weighted fair queueing. The scheduling pass
// runs on whichever thread changes server state — a submit, a cancel, a
// completion callback — so Session::submit may forward its own request
// before it returns; one thread dispatches at a time, and a deadline timer
// thread runs the pass when a pending request's deadline falls due. The
// pieces:
//
//   - Admission control: each tenant has a max_queue_depth; a full stream
//     either blocks the submitter or rejects (OutOfResources), per policy.
//     Memory per tenant is therefore bounded by depth, never by offered load.
//   - Weighted fair queueing: start-time fair queueing — the head with the
//     minimum virtual start tag goes first; a tenant's share of dispatched
//     cost converges to weight_i / sum(weights) whenever it stays
//     backlogged, so neither a heavy backlog nor a costly head starves
//     another tenant (tests/serve_test.cpp).
//   - Kernel caching + batching: kernel descriptors resolve through a
//     per-tenant cache, and tenants may opt in (batch_max_items > 0) to
//     fusing contiguous small 1D launches of the same kernel/args into one
//     NDRange — only valid for kernels whose behavior depends on global id
//     alone, which is why it is opt-in.
//   - Dependencies: a request is forwarded once each dependency (a ticket
//     of the same server) is in flight or done; its command's wait list
//     orders it after them.
//   - Cancellation/timeouts: every request completes a user event
//     (AsyncEvent::create_user); cancel/timeout completes it with
//     Status::Cancelled, which flows to dependents through the event graph's
//     existing failed-dependency propagation. Timeouts cover the *pending*
//     phase (admission -> dispatch), which for a dependent ends once its
//     dependencies are forwarded; once forwarded, a request runs to
//     completion (use Ticket::wait_for for a client-side timed wait).
//
// Lifetime contract: the Server must outlive its Sessions and Tickets'
// usage, and clients keep argument/transfer buffers alive until the
// corresponding Ticket completes (the usual OpenCL rule). See docs/serve.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "ocl/queue.hpp"
#include "prof/metrics.hpp"

namespace mcl::serve {

namespace detail {
struct Request;
struct TenantState;
}  // namespace detail

/// What happens when a tenant's stream is at max_queue_depth.
enum class AdmissionPolicy {
  Block,   ///< submit() waits for space (backpressure onto the client)
  Reject,  ///< submit() throws OutOfResources; try_submit() returns nullopt
};

struct TenantConfig {
  std::string name;
  double weight = 1.0;                ///< WFQ share; must be > 0
  std::size_t max_queue_depth = 64;   ///< bound on admitted-but-unfinished requests
  AdmissionPolicy admission = AdmissionPolicy::Block;
  bool in_order = false;              ///< serialize this tenant's commands
  std::uint64_t default_timeout_ns = 0;  ///< pending-phase deadline; 0 = none
  std::size_t batch_max_items = 0;    ///< fuse small 1D launches up to this many items; 0 = off
  /// Device the tenant's queue binds to; must be one of the server context's
  /// devices (a CPU sub-device isolates the tenant on its worker shard; the
  /// simulated GPU offloads it entirely). nullptr = the context's default.
  ocl::Device* device = nullptr;
};

struct ServerConfig {
  std::size_t max_in_flight = 0;  ///< forwarded-command window; 0 = 2x logical CPUs
  /// No pass runs on its own (no inline dispatch, no deadline timer); the
  /// caller drives every pass with step().
  bool manual_schedule = false;
};

/// One kernel argument, by value: serve requests outlive the caller's stack
/// frame, so bindings are snapshotted at submit.
struct ArgSpec {
  enum class Kind { Buffer, Scalar, Local };

  Kind kind = Kind::Scalar;
  ocl::Buffer* buffer = nullptr;      // Kind::Buffer (non-owning)
  std::vector<std::byte> scalar;      // Kind::Scalar
  std::size_t local_bytes = 0;        // Kind::Local

  [[nodiscard]] static ArgSpec buf(ocl::Buffer& b) {
    ArgSpec a;
    a.kind = Kind::Buffer;
    a.buffer = &b;
    return a;
  }
  [[nodiscard]] static ArgSpec scalar_bytes(const void* p, std::size_t n) {
    core::check(p != nullptr && n > 0, core::Status::InvalidKernelArgs,
                "null/empty scalar arg");
    ArgSpec a;
    a.kind = Kind::Scalar;
    a.scalar.assign(static_cast<const std::byte*>(p),
                    static_cast<const std::byte*>(p) + n);
    return a;
  }
  template <typename T>
  [[nodiscard]] static ArgSpec scalar_of(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return scalar_bytes(&v, sizeof(T));
  }
  [[nodiscard]] static ArgSpec local(std::size_t bytes) {
    ArgSpec a;
    a.kind = Kind::Local;
    a.local_bytes = bytes;
    return a;
  }

  [[nodiscard]] bool operator==(const ArgSpec& o) const {
    return kind == o.kind && buffer == o.buffer && scalar == o.scalar &&
           local_bytes == o.local_bytes;
  }
};

/// A kernel launch request. The kernel name resolves through the tenant's
/// descriptor cache against Program::builtin() at submit time (fail-fast on
/// unknown kernels).
struct LaunchSpec {
  std::string kernel;
  std::vector<ArgSpec> args;
  ocl::NDRange global;
  ocl::NDRange local;   // null = runtime choice
  ocl::NDRange offset;  // null = zero origin
};

/// Per-tenant view of the server counters (also reused inside ServerStats).
struct SessionStats {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< finished with Status::Success
  std::uint64_t failed = 0;      ///< finished with any other status
  std::uint64_t rejected = 0;    ///< bounced at admission
  std::uint64_t cancelled = 0;   ///< Server::cancel before dispatch
  std::uint64_t timed_out = 0;   ///< pending-phase deadline expired
  std::uint64_t batched = 0;     ///< requests that rode in a fused launch
  std::uint64_t forwarded = 0;   ///< commands enqueued on the tenant queue
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t outstanding = 0;   ///< admitted, not yet finished
};

struct ServerStats {
  std::vector<SessionStats> tenants;
  std::size_t in_flight = 0;            ///< forwarded commands not yet retired
  std::uint64_t forwarded_commands = 0;
  std::uint64_t fused_requests = 0;     ///< requests absorbed into a batch mate
};

/// Handle to one submitted request. Completion is a user event, so tickets
/// can be waited on, polled, and used as dependencies of later submissions
/// to the same server (including across its tenants).
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] bool valid() const noexcept { return req_ != nullptr; }
  /// Blocks until the request finished; rethrows its failure (including
  /// Status::Cancelled for cancel/timeout).
  void wait() const;
  /// Timed wait(); false if still running after `timeout`.
  [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) const;
  [[nodiscard]] bool complete() const;
  [[nodiscard]] core::Status status() const;
  /// The underlying completion event — usable in raw event-graph wait lists.
  [[nodiscard]] ocl::AsyncEventPtr event() const;
  /// mclobs causal context id minted at admission (0 when observability was
  /// off at submit). Every trace span and flight-recorder entry this request
  /// produced carries the same id.
  [[nodiscard]] std::uint64_t context() const;

 private:
  friend class Server;
  friend class Session;
  std::shared_ptr<detail::Request> req_;
};

class Server;

/// A tenant's submission handle. Copyable value type (all state lives in the
/// Server); safe to use from multiple threads.
class Session {
 public:
  Session() = default;

  /// Admits a launch. Blocks or throws OutOfResources when the stream is
  /// full, per the tenant's AdmissionPolicy; throws InvalidKernelName for
  /// unknown kernels, InvalidValue for a dep ticket of another server, and
  /// InvalidOperation once the server is shutting down.
  Ticket submit(LaunchSpec spec, std::vector<Ticket> deps = {});
  /// Non-blocking submit: nullopt when the stream is full (either policy).
  std::optional<Ticket> try_submit(LaunchSpec spec,
                                   std::vector<Ticket> deps = {});
  Ticket submit_write(ocl::Buffer& dst, std::size_t offset, std::size_t bytes,
                      const void* src, std::vector<Ticket> deps = {});
  Ticket submit_read(const ocl::Buffer& src, std::size_t offset,
                     std::size_t bytes, void* dst, std::vector<Ticket> deps = {});
  /// Blocks until every request this tenant admitted has finished.
  void finish();
  [[nodiscard]] SessionStats stats() const;
  [[nodiscard]] const std::string& tenant_name() const;

 private:
  friend class Server;
  Server* server_ = nullptr;
  detail::TenantState* state_ = nullptr;
};

class Server {
 public:
  explicit Server(ocl::Context& context, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a tenant and returns its submission handle. Tenant names must
  /// be unique; weight must be positive; depth must be nonzero.
  [[nodiscard]] Session create_session(TenantConfig config);

  /// Cancels a still-pending request: true if it was removed before dispatch
  /// (its ticket finishes with Status::Cancelled), false if it already ran
  /// or was forwarded.
  bool cancel(const Ticket& ticket);

  [[nodiscard]] ServerStats stats() const;

  /// manual_schedule mode: runs one scheduling pass (deadline expiry + WFQ
  /// dispatch) synchronously; returns the number of requests forwarded.
  std::size_t step();

  [[nodiscard]] std::size_t max_in_flight() const noexcept {
    return max_in_flight_;
  }

 private:
  friend class Session;

  struct ForwardItem;
  struct PassResult;

  std::shared_ptr<detail::Request> admit(detail::TenantState& tenant,
                                         std::shared_ptr<detail::Request> req,
                                         const std::vector<Ticket>& deps,
                                         bool blocking, bool* rejected);
  Ticket submit_impl(detail::TenantState& tenant,
                     std::shared_ptr<detail::Request> req,
                     const std::vector<Ticket>& deps);
  void run_pass_locked(PassResult& out);
  std::size_t apply_pass(PassResult& pass);
  void finish_item(const ForwardItem& item, core::Status status,
                   const ocl::AsyncEvent* event = nullptr);
  void forward(ForwardItem& item);
  /// Runs passes on the calling thread until no new signal arrived, unless
  /// another thread is already dispatching (manual_schedule: never).
  void dispatch_locked(std::unique_lock<std::mutex>& lock);
  void timer_loop();
  /// Earliest pending deadline later than `after`; 0 when there is none.
  [[nodiscard]] std::uint64_t nearest_deadline_locked(
      std::uint64_t after) const;
  [[nodiscard]] std::string obs_section_json() const;

  ocl::Context* context_ = nullptr;
  ServerConfig config_;
  std::size_t max_in_flight_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable timer_cv_;  ///< deadline stored; stop; dispatch end
  bool stop_ = false;
  bool signal_ = false;       ///< state changed since the last pass began
  bool dispatching_ = false;  ///< a thread is inside dispatch_locked's loop
  std::size_t in_flight_ = 0;
  double virtual_time_ = 0.0;
  std::uint64_t forwarded_commands_ = 0;
  std::uint64_t fused_requests_ = 0;
  std::vector<std::unique_ptr<detail::TenantState>> tenants_;
  /// MCL_OBS_INJECT faults, armed once per server: hang parks the first
  /// eligible head forever (its deadline expiry exercises the timeout →
  /// flight-recorder-dump path); error fails the first forwarded item.
  bool hang_pending_ = false;            // guarded by mutex_
  std::atomic<bool> error_pending_{false};
  int obs_section_ = 0;  ///< mclobs dump-section token

  prof::Histogram latency_all_;
  prof::Histogram admission_all_;
  prof::Histogram service_all_;
  std::thread timer_;  ///< deadline timer (automatic mode only)
};

}  // namespace mcl::serve
