// serve_open: an open loop of seeded Poisson arrivals at 20,000 req/s into an
// mclserve Server with three tenants, in a 2:1:1 request mix:
//   small — 64-item square at contiguous offsets, batch_max_items 4096, so
//           consecutive requests fuse;
//   bulk  — 4096-item square, weight 4;
//   chain — 16 KiB write -> 4096-item square -> 16 KiB read, weight 2.
// Serve admission, weighted fair queueing, fusion and the per-tenant queues
// hold the time; the suite bypasses all of it. Each request is timed from
// when it was due (so a generator stall counts against later requests) to
// its completion callback, and the run reports how late the generator ran.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "apps/hostdata.hpp"
#include "apps/simple.hpp"
#include "bench.hpp"
#include "core/rng.hpp"
#include "ocl/platform.hpp"
#include "serve/serve.hpp"

namespace mclbench {

namespace {

namespace apps = mcl::apps;
namespace ocl = mcl::ocl;
namespace serve = mcl::serve;
using mcl::core::Status;

constexpr double kRate = 20000.0;           // arrivals per second
constexpr std::size_t kSmallItems = 64;
constexpr std::size_t kItems = 4096;        // bulk/chain items; small ring width
constexpr std::size_t kRegions = kItems / kSmallItems;
constexpr std::size_t kSmallRings = 64;     // small buffer pairs, kRegions each
constexpr std::size_t kSlots = 512;         // private buffer sets per bulk/chain
constexpr double kWarmupSeconds = 0.25;
constexpr std::uint64_t kDrainNs = 5'000'000'000;  // completion deadline
constexpr std::size_t kDepth = 256;         // per-tenant admission bound

enum Kind : int { kSmall = 0, kBulk = 1, kChain = 2, kKinds = 3 };
const char* const kKindName[kKinds] = {"small", "bulk", "chain"};

struct Request {
  Kind kind = kSmall;
  std::uint64_t due = 0;
  std::uint64_t submit = 0;     ///< generator started submitting
  std::uint64_t submitted = 0;  ///< Session::submit returned
  std::atomic<std::uint64_t> done{0};
  std::atomic<int> status{0};
};

/// Device buffers (and, for chains, host staging) one request owns while it
/// is in flight. `last` is the request that used them most recently.
struct Slot {
  std::unique_ptr<ocl::Buffer> in, out;
  apps::FloatVec input;     ///< seeded; what `in` holds (or chains write)
  apps::FloatVec host_out;  ///< chain read-back target
  Request* last = nullptr;
};

void sleep_until_ns(std::uint64_t t) {
  const timespec ts{static_cast<time_t>(t / 1'000'000'000),
                    static_cast<long>(t % 1'000'000'000)};
  // steady_clock is CLOCK_MONOTONIC; absolute sleeps do not drift.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Waits until `last` (if any) completed; false after the drain deadline.
bool wait_free(const Request* last) {
  if (last == nullptr) return true;
  const std::uint64_t deadline = now_ns() + kDrainNs;
  while (last->done.load(std::memory_order_acquire) == 0) {
    if (now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class ServeOpen final : public Workload {
 public:
  explicit ServeOpen(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // The generator sleeps to each arrival; the default 50 us timer slack
    // would be as long as the mean gap between arrivals.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::uint64_t data_seed = seed_;
    const auto make_slots = [&](std::size_t n, bool chain) {
      std::vector<Slot> slots(n);
      for (Slot& s : slots) {
        s.input = apps::random_floats(kItems, ++data_seed, -2.0f, 2.0f);
        s.in = std::make_unique<ocl::Buffer>(
            ocl::MemFlags::ReadWrite | ocl::MemFlags::CopyHostPtr, kItems * 4,
            s.input.data());
        s.out = std::make_unique<ocl::Buffer>(ocl::MemFlags::ReadWrite, kItems * 4);
        // A sentinel no square can produce, so an unwritten result shows.
        std::fill_n(s.out->as<float>(), kItems, -1.0f);
        if (chain) s.host_out.assign(kItems, -1.0f);
      }
      return slots;
    };
    small_ = make_slots(kSmallRings, false);
    bulk_ = make_slots(kSlots, false);
    chain_ = make_slots(kSlots, true);
    small_last_.assign(kSmallRings * kRegions, nullptr);

    ladder_input_ = apps::random_floats(kItems, ++data_seed, -2.0f, 2.0f);
    ladder_ref_.resize(kItems);
    ladder_in_ = std::make_unique<ocl::Buffer>(
        ocl::MemFlags::ReadOnly | ocl::MemFlags::CopyHostPtr, kItems * 4,
        ladder_input_.data());
    ladder_out_ = std::make_unique<ocl::Buffer>(ocl::MemFlags::WriteOnly, kItems * 4);
    ladder_kernel_ = std::make_unique<ocl::Kernel>(
        ocl::Program::builtin().lookup(apps::kSquareKernel));
    ladder_kernel_->set_arg(0, *ladder_in_);
    ladder_kernel_->set_arg(1, *ladder_out_);

    server_ = std::make_unique<serve::Server>(context_);
    const auto tenant = [](const char* name, double weight, std::size_t batch) {
      serve::TenantConfig c;
      c.name = name;
      c.weight = weight;
      c.max_queue_depth = kDepth;
      c.batch_max_items = batch;
      return c;
    };
    sessions_[kSmall] = server_->create_session(tenant("small", 1.0, kItems));
    sessions_[kBulk] = server_->create_session(tenant("bulk", 4.0, 0));
    sessions_[kChain] = server_->create_session(tenant("chain", 2.0, 0));

    const Pass warm = run_pass(kWarmupSeconds, nullptr);
    if (warm.failed != 0) throw std::runtime_error("warmup requests failed");
  }

  Pass run_pass(double seconds, SpanLog* spans) override {
    // The schedule: exponential gaps (Poisson arrivals) and a 2:1:1 mix,
    // both from the seed and the pass number.
    mcl::core::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + passes_.size());
    std::vector<std::uint64_t> offsets;
    std::vector<Kind> kinds;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.next_double()) / kRate;
      if (t >= seconds) break;
      offsets.push_back(static_cast<std::uint64_t>(t * 1e9));
      const std::uint64_t pick = rng.next_below(4);
      kinds.push_back(pick < 2 ? kSmall : pick == 2 ? kBulk : kChain);
    }
    const std::size_t n = offsets.size();
    passes_.push_back(std::make_unique<Request[]>(n));
    Request* req = passes_.back().get();
    const serve::ServerStats before = server_->stats();

    // The lead covers touching the pass's sample store (5.8 MB at 36 s).
    const std::uint64_t start = now_ns() + 10'000'000;
    Pass p(start, seconds, n);
    for (std::size_t i = 0; i < n; ++i) {
      Request& r = req[i];
      r.kind = kinds[i];
      r.due = start + offsets[i];
      sleep_until_ns(r.due);
      r.submit = now_ns();
      submit(r);
      r.submitted = now_ns();
      p.sample(r.submitted);
    }
    const std::uint64_t schedule_end = now_ns();
    p.sample(schedule_end);
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (req[i].done.load(std::memory_order_acquire) == 0) ++backlog;
    }
    for (std::size_t i = 0; i < n; ++i) {
      while (req[i].done.load(std::memory_order_acquire) == 0 &&
             now_ns() < schedule_end + kDrainNs) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }

    last_ = Detail{};
    last_.backlog_end = backlog;
    for (std::size_t i = 0; i < n; ++i) {
      Request& r = req[i];
      const std::uint64_t done = r.done.load(std::memory_order_acquire);
      ++p.attempted;
      last_.lag.add(r.submit - r.due);
      last_.submit.add(r.submitted - r.submit);
      if (done == 0) stuck_ = true;
      if (done == 0 || r.status.load() != static_cast<int>(Status::Success)) {
        ++p.failed;
        continue;
      }
      p.record(r.due, done - r.due);
      last_.by_kind[r.kind].add(done - r.due);
      if (spans != nullptr && spans->wants(i)) {
        spans->add(i, std::string("request:") + kKindName[r.kind], r.due, done);
        spans->add(i, "gen.lag", r.due, r.submit);
        spans->add(i, "serve.submit", r.submit, r.submitted);
      }
    }
    const serve::ServerStats after = server_->stats();
    last_.requests = n;
    last_.small = last_.by_kind[kSmall].size();
    last_.fused = after.fused_requests - before.fused_requests;
    last_.commands = after.forwarded_commands - before.forwarded_commands;
    p.finish();
    last_.p99_us = rank_us(p.ns.begin(), p.ns.end(), 99);
    last_.p999_us = rank_us(p.ns.begin(), p.ns.end(), 99.9);
    return p;
  }

  void report_run(Report& rep) override {
    rep.diag("gen.lag_p99_us", last_.lag.pct_us(99), "us");
    rep.diag("gen.lag_max_us", last_.lag.max_us(), "us");
    rep.diag("serve.backlog_end", static_cast<double>(last_.backlog_end), "count");
  }

  void report_layers(Report& rep) override {
    rep.layer("serve.submit_p50_us", last_.submit.pct_us(50), "us");
    rep.layer("serve.submit_p90_us", last_.submit.pct_us(90), "us");
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = std::string("serve.") + kKindName[k];
      rep.layer(name + "_p50_us", last_.by_kind[k].pct_us(50), "us");
      rep.layer(name + "_p90_us", last_.by_kind[k].pct_us(90), "us");
    }
    rep.layer("serve.fused_frac",
              last_.small ? static_cast<double>(last_.fused) /
                                static_cast<double>(last_.small)
                          : 0.0,
              "ratio");
    rep.layer("serve.commands_per_req",
              last_.requests ? static_cast<double>(last_.commands) /
                                   static_cast<double>(last_.requests)
                             : 0.0,
              "ratio");
    rep.layer("serve.backlog_end", static_cast<double>(last_.backlog_end), "count");
    rep.layer("serve.latency_p99_us", last_.p99_us, "us");
    rep.layer("serve.latency_p999_us", last_.p999_us, "us");
    rep.layer("gen.lag_p50_us", last_.lag.pct_us(50), "us");
    rep.layer("gen.lag_p99_us", last_.lag.pct_us(99), "us");
    rep.layer("gen.lag_max_us", last_.lag.max_us(), "us");
  }

  void check(Report& rep) override {
    // Every slot's final read-back must be the square of what it was given.
    // Device buffers are host memory on the CPU device and every request has
    // completed, so the buffers are read directly.
    std::size_t bad = 0;
    for (std::size_t idx = 0; idx < small_last_.size(); ++idx) {
      if (small_last_[idx] == nullptr) continue;
      const Slot& s = small_[idx / kRegions];
      const std::size_t off = (idx % kRegions) * kSmallItems;
      bad += !matches_square(s.input.data() + off, s.out->as<float>() + off,
                             kSmallItems);
    }
    for (const Slot& s : bulk_) {
      if (s.last != nullptr) {
        bad += !matches_square(s.input.data(), s.out->as<float>(), kItems);
      }
    }
    for (const Slot& s : chain_) {
      if (s.last != nullptr) {
        bad += !matches_square(s.input.data(), s.host_out.data(), kItems);
      }
    }
    for (std::size_t i = 0; i < bad; ++i) {
      rep.fail("serve_open: a slot's read-back differs from the square of its input");
    }
  }

  std::vector<LaunchItem> ladder_op() override {
    // One 2:1:1 mix cycle's launches (transfers are not launches).
    const auto ref = [this](std::size_t n) {
      return [this, n] {
        apps::square_reference({ladder_input_.data(), n}, {ladder_ref_.data(), n});
      };
    };
    return {{"square_small", ladder_kernel_.get(), ocl::NDRange{kSmallItems}, ref(kSmallItems)},
            {"square_small", ladder_kernel_.get(), ocl::NDRange{kSmallItems}, ref(kSmallItems)},
            {"square_bulk", ladder_kernel_.get(), ocl::NDRange{kItems}, ref(kItems)},
            {"square_bulk", ladder_kernel_.get(), ocl::NDRange{kItems}, ref(kItems)}};
  }

  [[nodiscard]] bool stuck() const override { return stuck_; }

 private:
  /// Per-pass observations behind the serve.* and gen.* metrics.
  struct Detail {
    Samples lag;     ///< submit start - due
    Samples submit;  ///< time inside Session::submit (all of a chain's)
    Samples by_kind[kKinds];
    double p99_us = 0.0;   ///< over the whole pass
    double p999_us = 0.0;
    std::size_t backlog_end = 0;  ///< requests not complete when the schedule ended
    std::size_t requests = 0;
    std::size_t small = 0;
    std::uint64_t fused = 0;
    std::uint64_t commands = 0;
  };

  static bool matches_square(const float* in, const float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] != in[i] * in[i]) return false;
    }
    return true;
  }

  /// Submits `r` on its tenant's session and arranges for its completion
  /// stamp. A request whose slot is still in flight after the drain
  /// deadline, or whose submit throws, fails.
  void submit(Request& r) {
    const auto fail = [&r](Status s) {
      r.status.store(static_cast<int>(s), std::memory_order_relaxed);
      r.done.store(now_ns(), std::memory_order_release);
    };
    try {
      serve::Session& session = sessions_[r.kind];
      serve::LaunchSpec spec;
      spec.kernel = apps::kSquareKernel;
      serve::Ticket ticket;
      if (r.kind == kSmall) {
        const std::size_t idx = small_count_++ % small_last_.size();
        if (!wait_free(small_last_[idx])) {
          stuck_ = true;
          return fail(Status::Cancelled);
        }
        Slot& s = small_[idx / kRegions];
        const std::size_t region = idx % kRegions;
        spec.args = {serve::ArgSpec::buf(*s.in), serve::ArgSpec::buf(*s.out)};
        spec.global = ocl::NDRange{kSmallItems};
        if (region != 0) spec.offset = ocl::NDRange{region * kSmallItems};
        small_last_[idx] = &r;
        ticket = session.submit(std::move(spec));
      } else {
        std::vector<Slot>& slots = r.kind == kBulk ? bulk_ : chain_;
        Slot& s = slots[(r.kind == kBulk ? bulk_count_++ : chain_count_++) % kSlots];
        if (!wait_free(s.last)) {
          stuck_ = true;
          return fail(Status::Cancelled);
        }
        s.last = &r;
        spec.args = {serve::ArgSpec::buf(*s.in), serve::ArgSpec::buf(*s.out)};
        spec.global = ocl::NDRange{kItems};
        if (r.kind == kBulk) {
          ticket = session.submit(std::move(spec));
        } else {
          const serve::Ticket w =
              session.submit_write(*s.in, 0, kItems * 4, s.input.data());
          const serve::Ticket l = session.submit(std::move(spec), {w});
          ticket = session.submit_read(*s.out, 0, kItems * 4, s.host_out.data(), {l});
        }
      }
      ticket.event()->on_complete([&r](Status s) {
        r.status.store(static_cast<int>(s), std::memory_order_relaxed);
        r.done.store(now_ns(), std::memory_order_release);
      });
    } catch (const mcl::core::Error& e) {
      fail(e.status());
    }
  }

  std::uint64_t seed_;
  std::vector<Slot> small_, bulk_, chain_;
  std::vector<Request*> small_last_;  ///< last request per small region
  std::size_t small_count_ = 0, bulk_count_ = 0, chain_count_ = 0;
  apps::FloatVec ladder_input_, ladder_ref_;
  std::unique_ptr<ocl::Buffer> ladder_in_, ladder_out_;
  std::unique_ptr<ocl::Kernel> ladder_kernel_;
  // Every pass's requests stay alive until the server is gone: completion
  // callbacks write into them.
  std::vector<std::unique_ptr<Request[]>> passes_;
  Detail last_;
  bool stuck_ = false;
  ocl::Context context_{ocl::Platform::default_instance().cpu()};
  std::unique_ptr<serve::Server> server_;  // destroyed first: drains requests
  serve::Session sessions_[kKinds];
};

}  // namespace

std::unique_ptr<Workload> make_serve_open(std::uint64_t seed) {
  return std::make_unique<ServeOpen>(seed);
}

}  // namespace mclbench
