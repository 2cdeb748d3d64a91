#include "serve/serve.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>

#include <cinttypes>
#include <cstdio>

#include "core/time.hpp"
#include "obs/obs.hpp"
#include "ocl/kernel.hpp"
#include "threading/affinity.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"

namespace mcl::serve {

namespace detail {

struct Request {
  enum class Op { Launch, Write, Read };
  enum class RState { Pending, Forwarded, Done };

  Op op = Op::Launch;

  // Launch payload (kernel resolved at submit through the tenant cache).
  LaunchSpec launch;
  const ocl::KernelDef* def = nullptr;

  // Transfer payload.
  ocl::Buffer* buffer = nullptr;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  const void* src = nullptr;
  void* dst = nullptr;

  /// Requests this one waits on (this server's); cleared at forward.
  std::vector<std::shared_ptr<Request>> deps;
  ocl::AsyncEventPtr done;        ///< user event completed by the server
  std::uint64_t cost = 1;         ///< WFQ cost units
  std::uint64_t submit_ns = 0;
  std::uint64_t forward_ns = 0;   ///< stamped when dispatched to the queue
  std::uint64_t dep_ready_ns = 0; ///< last dependency's forward_ns
  std::uint64_t deadline_ns = 0;  ///< pending-phase deadline; 0 = none
  std::uint64_t ctx = 0;          ///< mclobs context id (0 = obs off)
  TenantState* tenant = nullptr;

  // Guarded by the server mutex.
  RState rstate = RState::Pending;
  bool held = false;  ///< MCL_OBS_INJECT=hang: never dispatch this request
};

struct TenantState {
  const Server* server = nullptr;  ///< owner; dep tickets must share it
  TenantConfig cfg;
  std::uint32_t id = 0;  ///< 1-based creation index; packed into context ids
  std::unique_ptr<ocl::CommandQueue> queue;

  // Guarded by the server mutex.
  std::deque<std::shared_ptr<Request>> pending;
  double finish_tag = 0.0;  ///< WFQ virtual finish time of the last dispatch
  std::unordered_map<std::string, const ocl::KernelDef*> kernel_cache;
  SessionStats stats;  ///< name/outstanding kept current; counters cumulative

  std::condition_variable space_cv;  ///< admission + Session::finish waiters
  prof::Histogram latency;
  prof::Histogram admission;  ///< submit -> forward (serve-side wait)
  prof::Histogram service;    ///< forward -> done (queue + execution)
};

}  // namespace detail

namespace {

using detail::Request;
using detail::TenantState;

std::uint64_t now_ns() { return core::steady_now_ns(); }

std::uint64_t launch_cost(const ocl::NDRange& global) {
  return std::max<std::uint64_t>(1, global.total());
}

std::uint64_t transfer_cost(std::size_t bytes) {
  return std::max<std::uint64_t>(1, bytes / 256);
}

std::size_t offset_origin(const ocl::NDRange& offset) {
  return offset.is_null() ? 0 : offset.size[0];
}

bool ndrange_equal(const ocl::NDRange& a, const ocl::NDRange& b) {
  return a.dims == b.dims && a.size[0] == b.size[0] && a.size[1] == b.size[1] &&
         a.size[2] == b.size[2];
}

/// Eligibility: no dependency is still Pending (it may sit behind `req`);
/// the command's wait list orders it after those in flight.
bool deps_forwarded(const Request& req) {
  return std::none_of(req.deps.begin(), req.deps.end(),
                      [](const std::shared_ptr<Request>& d) {
                        return d->rstate == Request::RState::Pending;
                      });
}

/// True when `next` continues the 1D id range of the batch started by `head`
/// with identical kernel, bindings, and workgroup shape — the only shape the
/// fuser accepts (see batching notes in serve.hpp).
bool fusable(const Request& head, const Request& next,
             std::size_t accumulated_items) {
  return next.op == Request::Op::Launch && next.def == head.def &&
         head.launch.global.dims == 1 && next.launch.global.dims == 1 &&
         ndrange_equal(next.launch.local, head.launch.local) &&
         next.launch.args == head.launch.args &&
         offset_origin(next.launch.offset) ==
             offset_origin(head.launch.offset) + accumulated_items;
}

}  // namespace

// --- Ticket ---------------------------------------------------------------------

void Ticket::wait() const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  req_->done->wait();
}

bool Ticket::wait_for(std::chrono::nanoseconds timeout) const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  return req_->done->wait_for(timeout);
}

bool Ticket::complete() const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  return req_->done->complete();
}

core::Status Ticket::status() const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  return req_->done->status();
}

ocl::AsyncEventPtr Ticket::event() const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  return req_->done;
}

std::uint64_t Ticket::context() const {
  core::check(valid(), core::Status::InvalidOperation, "empty ticket");
  return req_->ctx;
}

// --- Server ---------------------------------------------------------------------

struct Server::ForwardItem {
  TenantState* tenant = nullptr;
  std::vector<std::shared_ptr<Request>> reqs;  ///< head first, fused after
};

struct Server::PassResult {
  std::vector<std::shared_ptr<Request>> expired;
  std::vector<ForwardItem> forwards;
};

Server::Server(ocl::Context& context, ServerConfig config)
    : context_(&context), config_(config) {
  max_in_flight_ =
      config_.max_in_flight != 0
          ? config_.max_in_flight
          : 2 * std::max(1, threading::logical_cpu_count());
  latency_all_ = prof::histogram("serve.latency_ns");
  admission_all_ = prof::histogram("serve.admission_ns");
  service_all_ = prof::histogram("serve.service_ns");
  // Arm any MCL_OBS_INJECT fault once per server (flight-recorder tests).
  const obs::Inject fault = obs::inject();
  hang_pending_ = fault == obs::Inject::Hang;
  error_pending_.store(fault == obs::Inject::Error, std::memory_order_relaxed);
  // Per-tenant queue state rides along in every `.mclobs` anomaly dump.
  // Unregistered at the very end of ~Server, so dumps during teardown still
  // see live (mutex_-serialized) state.
  obs_section_ = obs::register_section(
      "serve", [this] { return obs_section_json(); });
  if (!config_.manual_schedule) {
    timer_ = std::thread([this] { timer_loop(); });
  }
}

Server::~Server() {
  {
    std::unique_lock lock(mutex_);
    stop_ = true;
    timer_cv_.notify_all();
    for (auto& tenant : tenants_) tenant->space_cv.notify_all();
    // A completion callback may be mid-forward; let it finish before the
    // queues drain below.
    timer_cv_.wait(lock, [this] { return !dispatching_; });
  }
  if (timer_.joinable()) timer_.join();

  // Fail whatever never dispatched, then drain what did. The transitive
  // finish() covers our completion callbacks, so by the time the queues are
  // drained no thread can still touch server state.
  std::vector<std::shared_ptr<Request>> orphaned;
  {
    std::lock_guard lock(mutex_);
    for (auto& tenant : tenants_) {
      for (auto& req : tenant->pending) {
        req->rstate = Request::RState::Done;
        tenant->stats.cancelled++;
        tenant->stats.outstanding--;
        orphaned.push_back(std::move(req));
      }
      tenant->pending.clear();
      tenant->space_cv.notify_all();
    }
  }
  for (const auto& req : orphaned) {
    req->done->set_user_status(core::Status::Cancelled);
  }
  for (auto& tenant : tenants_) tenant->queue->finish();
  obs::unregister_section(obs_section_);
}

std::string Server::obs_section_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"in_flight\":" + std::to_string(in_flight_) +
                    ",\"max_in_flight\":" + std::to_string(max_in_flight_) +
                    ",\"tenants\":[";
  bool first = true;
  for (const auto& tenant : tenants_) {
    if (!first) out += ',';
    first = false;
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"id\":%u,\"pending\":%zu,\"outstanding\":%zu,"
        "\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
        ",\"failed\":%" PRIu64 ",\"cancelled\":%" PRIu64
        ",\"timed_out\":%" PRIu64 "}",
        tenant->cfg.name.c_str(), tenant->id, tenant->pending.size(),
        static_cast<std::size_t>(tenant->stats.outstanding),
        tenant->stats.submitted, tenant->stats.completed, tenant->stats.failed,
        tenant->stats.cancelled, tenant->stats.timed_out);
    out += buf;
  }
  out += "]}";
  return out;
}

Session Server::create_session(TenantConfig config) {
  core::check(!config.name.empty(), core::Status::InvalidValue,
              "tenant name must be nonempty");
  core::check(config.weight > 0.0, core::Status::InvalidValue,
              "tenant weight must be positive");
  core::check(config.max_queue_depth > 0, core::Status::InvalidValue,
              "tenant queue depth must be nonzero");
  auto tenant = std::make_unique<TenantState>();
  tenant->server = this;
  tenant->cfg = config;
  const ocl::QueueProperties props = config.in_order
                                         ? ocl::QueueProperties::Default
                                         : ocl::QueueProperties::OutOfOrder;
  // Device-aware sessions: a tenant may pin its queue to one device of the
  // context (e.g. a CPU sub-device shard). Validated by the CommandQueue
  // ctor (DeviceNotFound when the device is not in the context).
  tenant->queue = config.device != nullptr
                      ? std::make_unique<ocl::CommandQueue>(*context_,
                                                            *config.device,
                                                            props)
                      : std::make_unique<ocl::CommandQueue>(*context_, props);
  tenant->stats.name = config.name;
  tenant->latency = prof::histogram("serve.latency_ns." + config.name);
  tenant->admission = prof::histogram("serve.admission_ns." + config.name);
  tenant->service = prof::histogram("serve.service_ns." + config.name);

  Session session;
  session.server_ = this;
  {
    std::lock_guard lock(mutex_);
    core::check(!stop_, core::Status::InvalidOperation,
                "server is shutting down");
    for (const auto& existing : tenants_) {
      core::check(existing->cfg.name != config.name, core::Status::InvalidValue,
                  "duplicate tenant name");
    }
    // New arrivals start at the current virtual time: no retroactive credit
    // for the period before the tenant existed.
    tenant->finish_tag = virtual_time_;
    tenant->id = static_cast<std::uint32_t>(tenants_.size() + 1);
    tenants_.push_back(std::move(tenant));
    session.state_ = tenants_.back().get();
  }
  return session;
}

std::shared_ptr<Request> Server::admit(TenantState& tenant,
                                       std::shared_ptr<Request> req,
                                       const std::vector<Ticket>& deps,
                                       bool blocking, bool* rejected) {
  // Eligibility reads a dependency's state under mutex_, so it must be ours.
  for (const Ticket& dep : deps) {
    core::check(dep.valid(), core::Status::InvalidValue, "empty dep ticket");
    core::check(dep.req_->tenant->server == this, core::Status::InvalidValue,
                "dep ticket from another server");
    req->deps.push_back(dep.req_);
  }
  std::unique_lock lock(mutex_);
  core::check(!stop_, core::Status::InvalidOperation,
              "server is shutting down");
  if (tenant.stats.outstanding >= tenant.cfg.max_queue_depth) {
    const bool block = blocking && tenant.cfg.admission == AdmissionPolicy::Block;
    if (!block) {
      tenant.stats.rejected++;
      *rejected = true;
      return nullptr;
    }
    tenant.space_cv.wait(lock, [&] {
      return stop_ || tenant.stats.outstanding < tenant.cfg.max_queue_depth;
    });
    core::check(!stop_, core::Status::InvalidOperation,
                "server is shutting down");
  }
  const std::uint64_t now = now_ns();
  req->submit_ns = now;
  if (tenant.cfg.default_timeout_ns != 0) {
    req->deadline_ns = now + tenant.cfg.default_timeout_ns;
  }
  req->tenant = &tenant;
  // Causal identity is born here: tenant in the top bits, a process-wide
  // sequence below. The Submit record itself is appended by the caller
  // after the lock drops (obs dumps must never run under mutex_).
  if (obs::enabled()) req->ctx = obs::mint_context(tenant.id);
  req->done = ocl::AsyncEvent::create_user();
  tenant.pending.push_back(req);
  tenant.stats.submitted++;
  tenant.stats.outstanding++;
  if (req->deadline_ns != 0) timer_cv_.notify_one();
  dispatch_locked(lock);
  return req;
}

bool Server::cancel(const Ticket& ticket) {
  core::check(ticket.valid(), core::Status::InvalidOperation, "empty ticket");
  const std::shared_ptr<Request>& req = ticket.req_;
  {
    std::unique_lock lock(mutex_);
    if (req->rstate != Request::RState::Pending) return false;
    TenantState& tenant = *req->tenant;
    auto it = std::find(tenant.pending.begin(), tenant.pending.end(), req);
    if (it == tenant.pending.end()) return false;
    tenant.pending.erase(it);
    req->rstate = Request::RState::Done;
    tenant.stats.cancelled++;
    tenant.stats.outstanding--;
    tenant.space_cv.notify_all();
    dispatch_locked(lock);
  }
  // Record before completing the user event: dependents fail inline below,
  // and the dump (if one fires) should show the cancellation first.
  if (obs::enabled()) {
    obs::anomaly(obs::Kind::Cancel, req->ctx, "ticket cancelled",
                 core::Status::Cancelled);
  }
  req->done->set_user_status(core::Status::Cancelled);
  return true;
}

ServerStats Server::stats() const {
  std::lock_guard lock(mutex_);
  ServerStats out;
  out.in_flight = in_flight_;
  out.forwarded_commands = forwarded_commands_;
  out.fused_requests = fused_requests_;
  out.tenants.reserve(tenants_.size());
  for (const auto& tenant : tenants_) out.tenants.push_back(tenant->stats);
  return out;
}

std::uint64_t Server::nearest_deadline_locked(std::uint64_t after) const {
  std::uint64_t nearest = 0;
  for (const auto& tenant : tenants_) {
    for (const auto& req : tenant->pending) {
      if (req->deadline_ns > after &&
          (nearest == 0 || req->deadline_ns < nearest)) {
        nearest = req->deadline_ns;
      }
    }
  }
  return nearest;
}

void Server::run_pass_locked(PassResult& out) {
  const std::uint64_t now = now_ns();

  // Phase 1: expire pending requests whose deadline passed (anywhere in the
  // stream, not just heads — a deep queue must not shield stale work).
  for (auto& tenant : tenants_) {
    for (auto it = tenant->pending.begin(); it != tenant->pending.end();) {
      Request& req = **it;
      if (req.deadline_ns != 0 && now >= req.deadline_ns) {
        req.rstate = Request::RState::Done;
        tenant->stats.timed_out++;
        tenant->stats.outstanding--;
        out.expired.push_back(std::move(*it));
        it = tenant->pending.erase(it);
        tenant->space_cv.notify_all();
      } else {
        ++it;
      }
    }
  }

  // Phase 2: start-time fair queueing while the in-flight window has room:
  // the eligible head with the minimum start tag goes first, ties to the
  // smaller finish tag. Ranking by finish tag instead would starve a costly
  // head: its tag stays V + cost/weight while a backlogged cheap tenant
  // reads about V + 2x its own cost. A head is eligible once none of its
  // dependencies is still Pending. A forwarded command then waits only on
  // commands already in flight, which finish without a pass or a free
  // slot, so the window cannot deadlock; a Pending dependency may sit
  // behind the head and keeps blocking it.
  while (in_flight_ < max_in_flight_) {
    TenantState* best = nullptr;
    double best_start = 0.0;
    double best_tag = 0.0;
    for (auto& tenant : tenants_) {
      if (tenant->pending.empty()) continue;
      Request& head = *tenant->pending.front();
      // MCL_OBS_INJECT=hang: park the first eligible head forever. Its
      // pending-phase deadline (if any) still expires in phase 1, driving
      // the timeout -> anomaly-dump path end to end.
      if (head.held) continue;
      if (hang_pending_) {
        hang_pending_ = false;
        head.held = true;
        if (obs::enabled()) {
          obs::Record r;
          r.ts_ns = now_ns();
          r.ctx = head.ctx;
          r.tenant = tenant->id;
          r.kind = obs::Kind::Inject;
          r.detail = "hang: request parked by MCL_OBS_INJECT";
          obs::record(r);
        }
        continue;
      }
      if (!deps_forwarded(head)) continue;
      const double start = std::max(virtual_time_, tenant->finish_tag);
      const double tag =
          start + static_cast<double>(head.cost) / tenant->cfg.weight;
      if (best == nullptr || start < best_start ||
          (start == best_start && tag < best_tag)) {
        best = tenant.get();
        best_start = start;
        best_tag = tag;
      }
    }
    if (best == nullptr) break;

    ForwardItem item;
    item.tenant = best;
    virtual_time_ = best_start;
    best->finish_tag = best_tag;

    auto head = best->pending.front();
    best->pending.pop_front();
    std::uint64_t accumulated = head->op == Request::Op::Launch
                                    ? head->launch.global.total()
                                    : 0;
    item.reqs.push_back(std::move(head));
    const Request& h = *item.reqs.front();
    if (h.op == Request::Op::Launch && best->cfg.batch_max_items > 0) {
      while (!best->pending.empty()) {
        Request& next = *best->pending.front();
        if (accumulated + next.launch.global.total() >
                best->cfg.batch_max_items ||
            !fusable(h, next, accumulated) || !deps_forwarded(next)) {
          break;
        }
        accumulated += next.launch.global.total();
        auto fused = best->pending.front();
        best->pending.pop_front();
        best->finish_tag +=
            static_cast<double>(fused->cost) / best->cfg.weight;
        best->stats.batched++;
        fused_requests_++;
        item.reqs.push_back(std::move(fused));
      }
      if (item.reqs.size() > 1) best->stats.batched++;  // the head rode too
    }
    // Marked only now: a `next` that depends on a request of this batch
    // still reads Pending above, so it never joins the command it waits on.
    for (const auto& req : item.reqs) req->rstate = Request::RState::Forwarded;
    best->stats.forwarded++;
    best->space_cv.notify_all();
    in_flight_++;
    forwarded_commands_++;
    out.forwards.push_back(std::move(item));
  }
}

void Server::forward(ForwardItem& item) {
  Request& head = *item.reqs.front();
  TenantState& tenant = *item.tenant;

  // Union of dependencies across the batch, all in flight or done: the wait
  // list orders the command after them and fails it with a failed or
  // Cancelled one's status. Forwarding is serialized, so their forward_ns
  // was stamped by an earlier forward().
  std::vector<ocl::AsyncEventPtr> wait_list;
  for (const auto& req : item.reqs) {
    for (const auto& dep : req->deps) {
      wait_list.push_back(dep->done);
      req->dep_ready_ns = std::max(req->dep_ready_ns, dep->forward_ns);
    }
    req->deps.clear();
  }

  // MCL_OBS_INJECT=error: fail the first forwarded item without touching
  // the queue — exercises the error -> anomaly-dump path deterministically.
  if (error_pending_.exchange(false, std::memory_order_relaxed)) {
    if (obs::enabled()) {
      obs::Record r;
      r.ts_ns = now_ns();
      r.ctx = head.ctx;
      r.tenant = tenant.id;
      r.kind = obs::Kind::Inject;
      r.status = core::Status::InternalError;
      r.detail = "error: request failed by MCL_OBS_INJECT";
      obs::record(r);
    }
    finish_item(item, core::Status::InternalError);
    return;
  }

  const std::uint64_t forward_ns = now_ns();
  for (const auto& req : item.reqs) {
    req->forward_ns = forward_ns;
    if (obs::enabled()) {
      obs::Record r;
      r.ts_ns = forward_ns;
      r.ctx = req->ctx;
      r.tenant = tenant.id;
      r.kind = obs::Kind::Forward;
      obs::record(r);
    }
  }

  // Enqueue under the head's causal context so the command (and everything
  // it emits downstream — cq.* spans, wg: spans, tune.decide) inherits the
  // request's id instead of minting an anonymous one.
  trace::ContextScope cscope(head.ctx);
  ocl::AsyncEventPtr event;
  try {
    switch (head.op) {
      case Request::Op::Launch: {
        ocl::Kernel kernel(*head.def);
        for (std::size_t i = 0; i < head.launch.args.size(); ++i) {
          const ArgSpec& arg = head.launch.args[i];
          switch (arg.kind) {
            case ArgSpec::Kind::Buffer:
              kernel.set_arg(i, *arg.buffer);
              break;
            case ArgSpec::Kind::Scalar:
              kernel.set_arg_bytes(i, arg.scalar.data(), arg.scalar.size());
              break;
            case ArgSpec::Kind::Local:
              kernel.set_arg_local(i, arg.local_bytes);
              break;
          }
        }
        ocl::NDRange global = head.launch.global;
        if (item.reqs.size() > 1) {
          std::size_t items = 0;
          for (const auto& req : item.reqs) items += req->launch.global.total();
          global = ocl::NDRange(items);
        }
        event = tenant.queue->enqueue_ndrange_async(
            kernel, global, head.launch.local, std::move(wait_list),
            head.launch.offset);
        break;
      }
      case Request::Op::Write:
        event = tenant.queue->enqueue_write_buffer_async(
            *head.buffer, head.offset, head.bytes, head.src,
            std::move(wait_list));
        break;
      case Request::Op::Read:
        event = tenant.queue->enqueue_read_buffer_async(
            *head.buffer, head.offset, head.bytes, head.dst,
            std::move(wait_list));
        break;
    }
  } catch (const core::Error& e) {
    finish_item(item, e.status());
    return;
  } catch (...) {
    finish_item(item, core::Status::InternalError);
    return;
  }

  // The completion event rides into the callback so finish_item can read
  // its ProfilingInfo for the critical-path decomposition. The resulting
  // shared_ptr cycle (event -> continuation -> event) is broken when
  // finalize() moves the continuation list out and drops it after running.
  event->on_complete(
      [this, item = std::move(item), event](core::Status status) mutable {
        finish_item(item, status, event.get());
      });
}

namespace {

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

void Server::finish_item(const ForwardItem& item, core::Status status,
                         const ocl::AsyncEvent* event) {
  const std::uint64_t now = now_ns();
  const bool record = prof::enabled();
  const bool traced = trace::enabled();
  const bool observed = obs::enabled();
  ocl::ProfilingInfo pinfo;
  bool have_prof = false;
  if (observed && event != nullptr) {
    // on_complete only fires in terminal states, so profiling is available.
    pinfo = event->profiling_ns();
    have_prof = true;
  }
  for (const auto& req : item.reqs) {
    // Exact critical-path decomposition, recorded before the ticket
    // completes so the flight recorder shows Complete before dependents
    // start. Segments and the serve.latency_ns sample share `now`, so the
    // obs total equals the measured end-to-end latency by construction.
    if (observed) {
      obs::RequestTimes t;
      t.submit_ns = req->submit_ns;
      t.forward_ns = req->forward_ns != 0 ? req->forward_ns : now;
      t.done_ns = now;
      t.is_kernel = req->op == Request::Op::Launch;
      if (have_prof) {
        t.queued_ns = pinfo.queued_ns;
        t.submitted_ns = pinfo.submitted_ns;
        t.started_ns = pinfo.started_ns;
        t.ended_ns = pinfo.ended_ns;
      }
      t.dep_ready_ns = req->dep_ready_ns;
      obs::note_request_complete(req->ctx, item.tenant->id, obs::decompose(t),
                                 status);
    }
    req->done->set_user_status(status);
    const std::uint64_t latency = now - req->submit_ns;
    if (record) {
      item.tenant->latency.record(latency);
      latency_all_.record(latency);
      // Satellite split: where did the latency go — serve-side wait
      // (submit -> forward) or queue+execution (forward -> done)?
      const std::uint64_t admission_wait =
          sat_sub(req->forward_ns != 0 ? req->forward_ns : now,
                  req->submit_ns);
      item.tenant->admission.record(admission_wait);
      admission_all_.record(admission_wait);
      const std::uint64_t service = sat_sub(latency, admission_wait);
      item.tenant->service.record(service);
      service_all_.record(service);
    }
    if (traced) {
      trace::ContextScope cscope(req->ctx);
      trace::complete_span("serve.request", req->submit_ns, latency, "ok",
                           status == core::Status::Success ? 1 : 0);
    }
  }
  {
    std::unique_lock lock(mutex_);
    in_flight_--;
    TenantState& tenant = *item.tenant;
    for (const auto& req : item.reqs) {
      req->rstate = Request::RState::Done;
      tenant.stats.outstanding--;
      if (status == core::Status::Success) {
        tenant.stats.completed++;
      } else {
        tenant.stats.failed++;
      }
    }
    tenant.space_cv.notify_all();
    dispatch_locked(lock);
  }
}

std::size_t Server::apply_pass(PassResult& pass) {
  std::size_t forwarded_reqs = 0;
  for (const auto& req : pass.expired) {
    // Anomaly first: the dump should capture the request still unfinished,
    // before dependents start failing inline below. No locks held here.
    if (obs::enabled()) {
      obs::anomaly(obs::Kind::Timeout, req->ctx, "request deadline expired",
                   core::Status::Cancelled);
    }
    req->done->set_user_status(core::Status::Cancelled);
  }
  for (ForwardItem& item : pass.forwards) {
    forwarded_reqs += item.reqs.size();
    forward(item);
  }
  return forwarded_reqs;
}

std::size_t Server::step() {
  core::check(config_.manual_schedule, core::Status::InvalidOperation,
              "step() requires ServerConfig::manual_schedule");
  PassResult pass;
  {
    std::lock_guard lock(mutex_);
    run_pass_locked(pass);
  }
  return apply_pass(pass);
}

void Server::dispatch_locked(std::unique_lock<std::mutex>& lock) {
  signal_ = true;
  if (dispatching_ || config_.manual_schedule || stop_) return;
  dispatching_ = true;
  // Cleared however the loop exits (forward() may throw), with the lock
  // held again; the destructor waits for it.
  struct Release {
    Server& server;
    std::unique_lock<std::mutex>& lock;
    ~Release() {
      if (!lock.owns_lock()) lock.lock();
      server.dispatching_ = false;
      if (server.stop_) server.timer_cv_.notify_all();
    }
  } release{*this, lock};
  // One dispatcher at a time keeps each tenant's commands reaching its
  // queue in dispatch order; a signal raised meanwhile (admit, cancel, a
  // completion, including ones apply_pass runs inline) buys another pass.
  while (signal_ && !stop_) {
    signal_ = false;
    PassResult pass;
    run_pass_locked(pass);
    if (pass.expired.empty() && pass.forwards.empty()) continue;
    lock.unlock();
    apply_pass(pass);
    lock.lock();
  }
}

void Server::timer_loop() {
  std::unique_lock lock(mutex_);
  // Deadlines at or before `handled` were due when this thread last
  // dispatched: that pass, or the one the running dispatcher owes the
  // signal, expires them.
  std::uint64_t handled = 0;
  while (!stop_) {
    const std::uint64_t deadline = nearest_deadline_locked(handled);
    const std::uint64_t now = now_ns();
    if (deadline != 0 && now >= deadline) {
      handled = now;
      dispatch_locked(lock);
      continue;
    }
    const auto changed = [&] {
      return stop_ || nearest_deadline_locked(handled) != deadline;
    };
    if (deadline == 0) {
      timer_cv_.wait(lock, changed);
    } else {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(deadline - now),
                         changed);
    }
  }
}

// --- Session --------------------------------------------------------------------

namespace {

// Flight-recorder Submit entry — after admit() released the server mutex.
void record_submit(const std::shared_ptr<Request>& req) {
  if (req == nullptr || !obs::enabled()) return;
  obs::Record r;
  r.ts_ns = req->submit_ns;
  r.ctx = req->ctx;
  r.tenant = req->tenant->id;
  r.kind = obs::Kind::Submit;
  obs::record(r);
}

}  // namespace

Ticket Server::submit_impl(TenantState& tenant, std::shared_ptr<Request> req,
                           const std::vector<Ticket>& deps) {
  bool rejected = false;
  auto admitted =
      admit(tenant, std::move(req), deps, /*blocking=*/true, &rejected);
  core::check(!rejected, core::Status::OutOfResources,
              "tenant queue depth exceeded");
  record_submit(admitted);
  Ticket ticket;
  ticket.req_ = std::move(admitted);
  return ticket;
}

namespace {

std::shared_ptr<Request> make_launch_request(TenantState& tenant,
                                             LaunchSpec spec,
                                             std::mutex& mutex) {
  auto req = std::make_shared<Request>();
  req->op = Request::Op::Launch;
  req->cost = launch_cost(spec.global);
  {
    // Kernel resolution goes through the per-tenant descriptor cache so a
    // steady-state tenant never touches the global registry map.
    std::lock_guard lock(mutex);
    auto it = tenant.kernel_cache.find(spec.kernel);
    if (it != tenant.kernel_cache.end()) {
      tenant.stats.cache_hits++;
      req->def = it->second;
    } else {
      tenant.stats.cache_misses++;
      req->def = &ocl::Program::builtin().lookup(spec.kernel);
      tenant.kernel_cache.emplace(spec.kernel, req->def);
      // First sighting of this kernel by this tenant: precompute its tuning
      // feature vector off the launch path. The tuner is process-global, so
      // every tenant's traffic trains (and benefits from) one shared entry
      // per (kernel, shape, device) — tenants never re-explore a shape some
      // other tenant already converged.
      if (tune::enabled()) tune::Tuner::instance().prewarm(*req->def);
    }
  }
  req->launch = std::move(spec);
  return req;
}

std::shared_ptr<Request> make_transfer_request(Request::Op op,
                                               ocl::Buffer* buffer,
                                               std::size_t offset,
                                               std::size_t bytes,
                                               const void* src, void* dst) {
  auto req = std::make_shared<Request>();
  req->op = op;
  req->buffer = buffer;
  req->offset = offset;
  req->bytes = bytes;
  req->src = src;
  req->dst = dst;
  req->cost = transfer_cost(bytes);
  return req;
}

}  // namespace

Ticket Session::submit(LaunchSpec spec, std::vector<Ticket> deps) {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  return server_->submit_impl(
      *state_, make_launch_request(*state_, std::move(spec), server_->mutex_),
      deps);
}

std::optional<Ticket> Session::try_submit(LaunchSpec spec,
                                          std::vector<Ticket> deps) {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  auto req = make_launch_request(*state_, std::move(spec), server_->mutex_);
  bool rejected = false;
  auto admitted = server_->admit(*state_, std::move(req), deps,
                                 /*blocking=*/false, &rejected);
  if (rejected) return std::nullopt;
  record_submit(admitted);
  Ticket ticket;
  ticket.req_ = std::move(admitted);
  return ticket;
}

Ticket Session::submit_write(ocl::Buffer& dst, std::size_t offset,
                             std::size_t bytes, const void* src,
                             std::vector<Ticket> deps) {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  return server_->submit_impl(
      *state_, make_transfer_request(Request::Op::Write, &dst, offset, bytes,
                                     src, nullptr),
      deps);
}

Ticket Session::submit_read(const ocl::Buffer& src, std::size_t offset,
                            std::size_t bytes, void* dst,
                            std::vector<Ticket> deps) {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  // Reads mutate only host memory; the const_cast mirrors the queue API,
  // which takes the source buffer by const reference.
  return server_->submit_impl(
      *state_,
      make_transfer_request(Request::Op::Read, const_cast<ocl::Buffer*>(&src),
                            offset, bytes, nullptr, dst),
      deps);
}

void Session::finish() {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  std::unique_lock lock(server_->mutex_);
  state_->space_cv.wait(
      lock, [this] { return state_->stats.outstanding == 0; });
}

SessionStats Session::stats() const {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  std::lock_guard lock(server_->mutex_);
  return state_->stats;
}

const std::string& Session::tenant_name() const {
  core::check(server_ != nullptr, core::Status::InvalidOperation,
              "empty session");
  return state_->cfg.name;
}

}  // namespace mcl::serve
