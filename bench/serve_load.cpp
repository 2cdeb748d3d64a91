// Closed-loop load harness for mclserve (docs/serve.md).
//
// N client threads — one per tenant — drive a shared Server with mixed
// profiles (batched small launches, bulk launches, write/launch/read
// transfer chains, in-order streams, and a reject-policy burst tenant that
// retries on admission failure). Each client keeps a bounded window of
// requests outstanding (closed loop: a new request is only submitted once
// an old one retired), so offered load tracks service rate instead of
// overrunning the queues.
//
// Latency percentiles come from the always-on mclprof histograms the server
// records into ("serve.latency_ns" and the per-tenant variants); with --obs
// the top-level p50/p99/p999 are exact nearest-rank values over every
// request's record instead of 2x bucket edges. The harness
// enables metrics recording, runs the configured request count, and writes a
// single-object JSON document (--json, default BENCH_serve.json) with the
// throughput timeline and per-tenant accounting. tools/plot_results.py
// --check validates the document (monotonic timeline, p50 <= p99 <= p999,
// conservation of requests per tenant).
//
// The harness fails (exit 1) when any ticket is lost or hung: every
// submitted request must retire as completed within the deadline, and the
// server must end with zero in-flight commands.
//
//   build/bench/serve_load --requests 1000000 --tenants 8 --seed 42
//   build/bench/serve_load --quick          # tier-1 smoke (50k requests)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/case.hpp"
#include "check/generator.hpp"
#include "check/interp.hpp"
#include "core/time.hpp"
#include "obs/obs.hpp"
#include "ocl/queue.hpp"
#include "prof/metrics.hpp"
#include "serve/serve.hpp"
#include "tune/tune.hpp"
#include "veclegal/kernel_ir.hpp"

namespace {

using namespace mcl;

struct Options {
  std::size_t requests = 1'000'000;  ///< total across all tenants
  std::size_t tenants = 8;
  std::uint64_t seed = 42;
  std::string json = "BENCH_serve.json";
  bool quick = false;
  bool obs = false;          ///< mclobs: exact critical-path accounting
  std::string obs_dump;      ///< write a .mclobs snapshot here at exit
};

/// xorshift64* — deterministic per-client jitter without <random> overhead.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

/// The tenant archetypes the load mix cycles through.
enum class Profile { Small, Bulk, Chain, InOrder, Burst, Generated };

const char* profile_name(Profile p) {
  switch (p) {
    case Profile::Small: return "small-batched";
    case Profile::Bulk: return "bulk";
    case Profile::Chain: return "transfer-chain";
    case Profile::InOrder: return "in-order";
    case Profile::Burst: return "burst-reject";
    case Profile::Generated: return "generated";
  }
  return "?";
}

/// mclcheck-generated kernels for the Generated profile (ISSUE 8 satellite):
/// serve traffic that exercises arbitrary generated programs — and the
/// tuner's feature/candidate machinery — rather than only the five paper
/// kernels. Built once on the main thread before any client spawns
/// (Program::builtin().add and the IR registry are not safe to mutate
/// concurrently); clients resolve them by name like any registered kernel.
struct GeneratedKernels {
  std::vector<check::Case> cases;  ///< stable storage; kernels read via Case*
  std::vector<std::string> names;
};
GeneratedKernels g_generated;

constexpr std::size_t kGeneratedKernels = 6;

void register_generated_kernels(std::uint64_t run_seed) {
  g_generated.cases.reserve(kGeneratedKernels);
  for (std::size_t i = 0; i < kGeneratedKernels; ++i) {
    g_generated.cases.push_back(
        check::generate_case(check::case_seed(run_seed, i)));
  }
  for (const check::Case& c : g_generated.cases) {
    ocl::KernelDef def = check::make_kernel_def(c, /*with_simd=*/false);
    def.name = "gen." + std::to_string(c.seed);
    g_generated.names.push_back(def.name);
    // Register the lowered IR too so mclverify facts (and tuner features)
    // exist for generated kernels exactly as for the paper kernels.
    veclegal::KernelIrRegistry::instance().add(def.name, check::lower_to_ir(c));
    ocl::Program::builtin().add(std::move(def));
  }
}

serve::TenantConfig tenant_config(Profile profile, const std::string& name) {
  serve::TenantConfig cfg;
  cfg.name = name;
  switch (profile) {
    case Profile::Small:
      // Many tiny contiguous launches: the batcher's target workload.
      cfg.weight = 1.0;
      cfg.max_queue_depth = 128;
      cfg.batch_max_items = 4096;
      break;
    case Profile::Bulk:
      cfg.weight = 4.0;
      cfg.max_queue_depth = 32;
      break;
    case Profile::Chain:
      cfg.weight = 2.0;
      cfg.max_queue_depth = 96;
      break;
    case Profile::InOrder:
      cfg.weight = 1.0;
      cfg.max_queue_depth = 64;
      cfg.in_order = true;
      break;
    case Profile::Burst:
      cfg.weight = 1.0;
      cfg.max_queue_depth = 16;
      cfg.admission = serve::AdmissionPolicy::Reject;
      break;
    case Profile::Generated:
      cfg.weight = 1.0;
      cfg.max_queue_depth = 64;
      break;
  }
  return cfg;
}

struct ClientResult {
  std::size_t submitted = 0;
  std::size_t retries = 0;  ///< reject-policy re-submissions
  bool ok = true;
  std::string error;
};

/// One closed-loop client. Keeps at most `window` tickets outstanding,
/// waiting on the oldest before submitting a replacement.
void run_client(serve::Session session, Profile profile, std::size_t requests,
                std::uint64_t seed, std::atomic<std::size_t>& completed,
                ClientResult& result) {
  using namespace std::chrono_literals;
  constexpr std::size_t kSmallItems = 64;
  constexpr std::size_t kBulkItems = 4096;
  constexpr std::size_t kChainBytes = 16 * 1024;

  ocl::Buffer in(ocl::MemFlags::ReadWrite, kBulkItems * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kBulkItems * 4);
  std::uint64_t rng = seed;

  const std::size_t window = profile == Profile::Burst ? 8 : 32;

  // Bulk and Burst kernels write the full output range, and chains reuse
  // host staging — with `window` requests in flight those would be genuine
  // data races on shared memory. Each window slot therefore owns its
  // buffers: a slot's ticket is always drained before the slot is reused,
  // and that completion happens-before the resubmission, so slot-private
  // memory is race-free by construction. Small keeps the shared buffers
  // (its per-request offsets are disjoint across the window, and identical
  // arg bindings are what lets consecutive requests fuse); InOrder keeps
  // them because its stream is serialized.
  struct SlotMem {
    ocl::Buffer in{ocl::MemFlags::ReadWrite, 4096 * 4};
    ocl::Buffer out{ocl::MemFlags::ReadWrite, 4096 * 4};
    std::vector<float> host = std::vector<float>(16 * 1024 / 4, 1.0f);
  };
  const bool slotted = profile == Profile::Bulk || profile == Profile::Burst ||
                       profile == Profile::Chain;
  std::vector<SlotMem> slots(slotted ? window : 0);

  // Generated-profile storage: [slot][case][array]. Writable generated
  // arrays are read-modify-written, so concurrent in-flight launches of one
  // kernel must not share buffers — same slot-privacy argument as SlotMem.
  // Local arrays get no buffer (they ride as ArgSpec::local requests).
  std::vector<std::vector<std::vector<std::unique_ptr<ocl::Buffer>>>> gen;
  if (profile == Profile::Generated) {
    gen.resize(window);
    for (auto& slot_cases : gen) {
      slot_cases.resize(g_generated.cases.size());
      for (std::size_t ci = 0; ci < g_generated.cases.size(); ++ci) {
        const check::Case& c = g_generated.cases[ci];
        for (const check::Array& a : c.arrays) {
          slot_cases[ci].push_back(
              a.local ? nullptr
                      : std::make_unique<ocl::Buffer>(
                            ocl::MemFlags::ReadWrite,
                            static_cast<std::size_t>(a.extent) * 4));
        }
      }
    }
  }

  std::vector<serve::Ticket> live;
  live.reserve(window);
  std::size_t oldest = 0;

  auto drain_oldest = [&]() -> bool {
    serve::Ticket& t = live[oldest];
    if (!t.wait_for(30s)) {
      result.ok = false;
      result.error = "hung ticket: no completion within 30s";
      return false;
    }
    if (t.status() != core::Status::Success) {
      result.ok = false;
      result.error = std::string("ticket failed: ") +
                     std::string(core::to_string(t.status()));
      return false;
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // The slot at `oldest` is always drained (by submit_one) before being
  // overwritten here.
  auto push = [&](serve::Ticket t) -> bool {
    if (live.size() < window) {
      live.push_back(std::move(t));
    } else {
      live[oldest] = std::move(t);
      oldest = (oldest + 1) % window;
    }
    return true;
  };

  auto submit_one = [&](std::size_t i) -> bool {
    // Closed loop: free a slot first when the window is full.
    if (live.size() == window) {
      if (!drain_oldest()) return false;
    }
    // The slot this request's ticket will occupy — just drained above (or
    // never used), so its SlotMem is quiescent.
    const std::size_t slot = live.size() == window ? oldest : live.size();
    serve::LaunchSpec spec;
    spec.kernel = "square";
    spec.args = {serve::ArgSpec::buf(in), serve::ArgSpec::buf(out)};
    switch (profile) {
      case Profile::Small: {
        // Contiguous offsets so consecutive requests fuse.
        const std::size_t slot = i % (kBulkItems / kSmallItems);
        spec.global = ocl::NDRange{kSmallItems};
        if (slot != 0) spec.offset = ocl::NDRange{slot * kSmallItems};
        return push(session.submit(std::move(spec)));
      }
      case Profile::Bulk:
        spec.global = ocl::NDRange{kBulkItems};
        spec.args = {serve::ArgSpec::buf(slots[slot].in),
                     serve::ArgSpec::buf(slots[slot].out)};
        return push(session.submit(std::move(spec)));
      case Profile::InOrder:
        spec.global = ocl::NDRange{kSmallItems};
        return push(session.submit(std::move(spec)));
      case Profile::Chain: {
        // write -> launch -> read; only the tail ticket joins the window
        // (its completion implies the whole chain retired).
        SlotMem& m = slots[slot];
        const std::size_t n = kChainBytes / 4;
        serve::Ticket w =
            session.submit_write(m.in, 0, kChainBytes, m.host.data());
        spec.global = ocl::NDRange{n};
        spec.args = {serve::ArgSpec::buf(m.in), serve::ArgSpec::buf(m.out)};
        serve::Ticket l = session.submit(std::move(spec), {w});
        serve::Ticket r =
            session.submit_read(m.out, 0, kChainBytes, m.host.data(), {l});
        return push(std::move(r));
      }
      case Profile::Burst: {
        spec.global = ocl::NDRange{kSmallItems};
        spec.args = {serve::ArgSpec::buf(slots[slot].in),
                     serve::ArgSpec::buf(slots[slot].out)};
        for (;;) {
          auto maybe = session.try_submit(spec);
          if (maybe) return push(std::move(*maybe));
          ++result.retries;
          // Brief jittered backoff before re-offering the request.
          std::this_thread::sleep_for(
              std::chrono::microseconds(1 + next_rand(rng) % 50));
        }
      }
      case Profile::Generated: {
        const std::size_t ci = next_rand(rng) % g_generated.cases.size();
        const check::Case& c = g_generated.cases[ci];
        spec.kernel = g_generated.names[ci];
        spec.args.clear();
        spec.args.push_back(serve::ArgSpec::scalar_of(&c));
        for (std::size_t ai = 0; ai < c.arrays.size(); ++ai) {
          const check::Array& a = c.arrays[ai];
          if (a.local) {
            spec.args.push_back(serve::ArgSpec::local(
                static_cast<std::size_t>(a.extent) * 4));
          } else {
            spec.args.push_back(serve::ArgSpec::buf(*gen[slot][ci][ai]));
          }
        }
        spec.global = ocl::NDRange{c.global};
        // Barrier/local cases were proven against their generated local
        // size; plain cases leave local to the runtime (and the tuner).
        if (c.has_barrier() || c.has_local()) {
          spec.local = ocl::NDRange{c.local};
        }
        return push(session.submit(std::move(spec)));
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < requests; ++i) {
    if (!submit_one(i)) return;
    ++result.submitted;
    if (profile == Profile::Chain) result.submitted += 2;
  }
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (!drain_oldest()) return;
    oldest = (oldest + 1) % live.size();
  }
  session.finish();
}

std::uint64_t find_histogram_percentile(const prof::Snapshot& snap,
                                        const std::string& name, double p) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.data.percentile(p);
  }
  return 0;
}

/// Zero-based index of the nearest-rank percentile of n > 0 sorted samples,
/// the percentile given in per mille (990 = p99) so the rank is exact.
std::size_t nearest_rank(std::size_t n, std::size_t permille) {
  return std::max<std::size_t>((permille * n + 999) / 1000, 1) - 1;
}

/// Exact per-request critical-path records, teed off obs::set_complete_sink.
/// The mclprof histograms are log-bucketed (2x resolution) — fine for
/// dashboards, useless for asserting "segments sum to within 5% of the
/// measured latency". The sink gives us the un-bucketed Record stream.
struct ObsCollector {
  std::mutex mu;
  std::vector<obs::Record> records;

  void add(const obs::Record& r) {
    const std::lock_guard<std::mutex> lock(mu);
    records.push_back(r);
  }
};

/// Per-tenant critical-path summary over the exact records.
struct PathSummary {
  std::uint64_t count = 0;
  std::uint64_t p50_total_ns = 0;
  std::uint64_t p99_total_ns = 0;
  // Segment values of the nearest-rank p99 request (not per-segment p99s:
  // those would not sum to any single request's latency).
  obs::PathSegments p99_request;
  double mean_admission_ns = 0.0;
  double mean_dependency_ns = 0.0;
  double mean_queue_ns = 0.0;
  double mean_exec_ns = 0.0;
  double mean_total_ns = 0.0;
  double mean_coverage = 0.0;  ///< mean named_sum/total over all requests
};

obs::PathSegments segments_of(const obs::Record& r) {
  obs::PathSegments s;
  s.admission_ns = r.args[0];
  s.dependency_ns = r.args[1];
  s.queue_ns = r.args[2];
  s.exec_ns = r.args[3];
  s.total_ns = r.args[4];
  s.is_kernel = r.args[5] != 0;
  return s;
}

PathSummary summarize_paths(std::vector<const obs::Record*>& recs) {
  PathSummary out;
  out.count = recs.size();
  if (recs.empty()) return out;
  std::sort(recs.begin(), recs.end(),
            [](const obs::Record* a, const obs::Record* b) {
              return a->args[4] < b->args[4];
            });
  out.p50_total_ns = recs[nearest_rank(recs.size(), 500)]->args[4];
  out.p99_request = segments_of(*recs[nearest_rank(recs.size(), 990)]);
  out.p99_total_ns = out.p99_request.total_ns;
  double cov = 0.0;
  for (const obs::Record* r : recs) {
    const obs::PathSegments s = segments_of(*r);
    out.mean_admission_ns += static_cast<double>(s.admission_ns);
    out.mean_dependency_ns += static_cast<double>(s.dependency_ns);
    out.mean_queue_ns += static_cast<double>(s.queue_ns);
    out.mean_exec_ns += static_cast<double>(s.exec_ns);
    out.mean_total_ns += static_cast<double>(s.total_ns);
    cov += s.total_ns > 0 ? static_cast<double>(s.named_sum()) /
                                static_cast<double>(s.total_ns)
                          : 1.0;
  }
  const double n = static_cast<double>(recs.size());
  out.mean_admission_ns /= n;
  out.mean_dependency_ns /= n;
  out.mean_queue_ns /= n;
  out.mean_exec_ns /= n;
  out.mean_total_ns /= n;
  out.mean_coverage = cov / n;
  return out;
}

struct TimelinePoint {
  double t_s = 0.0;
  std::size_t completed = 0;
};

void json_escape_append(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

int run(const Options& opt) {
  ocl::CpuDevice device;
  ocl::Context context(device);
  prof::set_enabled(true);  // serve's latency histograms record only when on
  ObsCollector collector;
  if (opt.obs) {
    obs::set_enabled(true);
    obs::set_complete_sink(
        [&collector](const obs::Record& r) { collector.add(r); });
  }
  register_generated_kernels(opt.seed);

  serve::Server server(context);
  const Profile kMix[] = {Profile::Small,   Profile::Bulk,
                          Profile::Chain,   Profile::InOrder,
                          Profile::Burst,   Profile::Generated};
  struct Client {
    serve::Session session;
    Profile profile = Profile::Small;
    std::string name;
    std::size_t requests = 0;
    ClientResult result;
  };
  std::vector<Client> clients(opt.tenants);
  // Chain tenants retire 3 tickets per loop iteration; divide their share so
  // the configured total is the *ticket* count, the unit the stats report.
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < opt.tenants; ++t) {
    Client& c = clients[t];
    c.profile = kMix[t % std::size(kMix)];
    c.name = std::string(profile_name(c.profile)) + "-" + std::to_string(t);
    std::size_t share = opt.requests / opt.tenants;
    if (t + 1 == opt.tenants) share = opt.requests - assigned;
    assigned += share;
    c.requests = c.profile == Profile::Chain ? std::max<std::size_t>(1, share / 3)
                                             : share;
    c.session = server.create_session(tenant_config(c.profile, c.name));
  }

  std::atomic<std::size_t> completed{0};
  std::atomic<bool> done{false};
  std::vector<TimelinePoint> timeline;
  const core::TimePoint t0 = core::now();

  // Sampler: throughput trajectory at ~50 ms resolution (monotonic clock).
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      timeline.push_back({core::elapsed_s(t0, core::now()),
                          completed.load(std::memory_order_relaxed)});
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    timeline.push_back({core::elapsed_s(t0, core::now()),
                        completed.load(std::memory_order_relaxed)});
  });

  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t t = 0; t < clients.size(); ++t) {
    Client& c = clients[t];
    threads.emplace_back([&c, &completed, seed = opt.seed + t] {
      run_client(c.session, c.profile, c.requests, seed | 1, completed,
                 c.result);
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  const double duration_s = core::elapsed_s(t0, core::now());
  if (opt.obs) obs::set_complete_sink(nullptr);

  bool ok = true;
  for (const Client& c : clients) {
    if (!c.result.ok) {
      std::fprintf(stderr, "serve_load: tenant %s FAILED: %s\n",
                   c.name.c_str(), c.result.error.c_str());
      ok = false;
    }
  }

  // Lost/hung detection: every admitted request must have retired, and the
  // server must be idle.
  const serve::ServerStats sstats = server.stats();
  if (sstats.in_flight != 0) {
    std::fprintf(stderr, "serve_load: %zu commands still in flight at exit\n",
                 sstats.in_flight);
    ok = false;
  }
  std::size_t total_submitted = 0, total_completed = 0;
  for (const serve::SessionStats& ts : sstats.tenants) {
    total_submitted += ts.submitted;
    total_completed += ts.completed;
    if (ts.outstanding != 0) {
      std::fprintf(stderr, "serve_load: tenant %s has %zu lost requests\n",
                   ts.name.c_str(), ts.outstanding);
      ok = false;
    }
    if (ts.completed + ts.failed + ts.cancelled + ts.timed_out != ts.submitted) {
      std::fprintf(stderr, "serve_load: tenant %s accounting leak\n",
                   ts.name.c_str());
      ok = false;
    }
  }

  const prof::Snapshot snap = prof::snapshot();
  const std::string all = "serve.latency_ns";
  // Top-level p50/p99/p999: exact over the --obs records (each one's total
  // is that request's measured latency), else the histogram's bucket edges.
  constexpr std::size_t kPermille[3] = {500, 990, 999};
  std::uint64_t latency[3];
  std::vector<std::uint64_t> totals;
  if (opt.obs) {
    const std::lock_guard<std::mutex> lock(collector.mu);
    totals.reserve(collector.records.size());
    for (const obs::Record& r : collector.records) totals.push_back(r.args[4]);
  }
  std::sort(totals.begin(), totals.end());
  for (int i = 0; i < 3; ++i) {
    latency[i] = totals.empty()
                     ? find_histogram_percentile(snap, all, kPermille[i] / 10.0)
                     : totals[nearest_rank(totals.size(), kPermille[i])];
  }

  std::string json;
  json.reserve(4096 + 64 * timeline.size());
  char buf[512];
  json += "{\n  \"mclserve\": 1,\n  \"bench\": \"serve_load\",\n";
  std::snprintf(buf, sizeof buf, "  \"obs\": %d,\n", opt.obs ? 1 : 0);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"seed\": %llu,\n  \"tenants\": %zu,\n"
                "  \"requests\": %zu,\n  \"completed\": %zu,\n"
                "  \"duration_s\": %.6f,\n  \"throughput_rps\": %.1f,\n",
                static_cast<unsigned long long>(opt.seed), opt.tenants,
                total_submitted, total_completed, duration_s,
                duration_s > 0 ? static_cast<double>(total_completed) / duration_s
                               : 0.0);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"latency_ns\": {\"p50\": %llu, \"p99\": %llu, "
                "\"p999\": %llu},\n",
                static_cast<unsigned long long>(latency[0]),
                static_cast<unsigned long long>(latency[1]),
                static_cast<unsigned long long>(latency[2]));
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"server\": {\"forwarded_commands\": %llu, "
                "\"fused_requests\": %llu},\n",
                static_cast<unsigned long long>(sstats.forwarded_commands),
                static_cast<unsigned long long>(sstats.fused_requests));
  json += buf;

  json += "  \"timeline\": [";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\n    {\"t_s\": %.6f, \"completed\": %zu}",
                  i ? "," : "", timeline[i].t_s, timeline[i].completed);
    json += buf;
  }
  json += "\n  ],\n";

  json += "  \"tenant_stats\": [";
  for (std::size_t i = 0; i < sstats.tenants.size(); ++i) {
    const serve::SessionStats& ts = sstats.tenants[i];
    const std::string hist = all + "." + ts.name;
    json += i ? ",\n    {" : "\n    {";
    json += "\"name\": \"";
    json_escape_append(json, ts.name);
    json += "\", ";
    std::snprintf(
        buf, sizeof buf,
        "\"submitted\": %zu, \"completed\": %zu, \"failed\": %zu, "
        "\"rejected\": %zu, \"cancelled\": %zu, \"timed_out\": %zu, "
        "\"batched\": %zu, \"forwarded\": %zu, ",
        ts.submitted, ts.completed, ts.failed, ts.rejected, ts.cancelled,
        ts.timed_out, ts.batched, ts.forwarded);
    json += buf;
    std::snprintf(buf, sizeof buf,
                  "\"cache_hits\": %zu, \"cache_misses\": %zu, "
                  "\"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu, ",
                  ts.cache_hits, ts.cache_misses,
                  static_cast<unsigned long long>(
                      find_histogram_percentile(snap, hist, 50.0)),
                  static_cast<unsigned long long>(
                      find_histogram_percentile(snap, hist, 99.0)),
                  static_cast<unsigned long long>(
                      find_histogram_percentile(snap, hist, 99.9)));
    json += buf;
    // Admission-wait (submit -> dispatch) and service (dispatch -> complete)
    // recorded separately by the server, so queueing delay under load is
    // visible apart from how long commands actually took.
    const std::string adm = "serve.admission_ns." + ts.name;
    const std::string svc = "serve.service_ns." + ts.name;
    std::snprintf(
        buf, sizeof buf,
        "\"admission_p50_ns\": %llu, \"admission_p99_ns\": %llu, "
        "\"service_p50_ns\": %llu, \"service_p99_ns\": %llu}",
        static_cast<unsigned long long>(
            find_histogram_percentile(snap, adm, 50.0)),
        static_cast<unsigned long long>(
            find_histogram_percentile(snap, adm, 99.0)),
        static_cast<unsigned long long>(
            find_histogram_percentile(snap, svc, 50.0)),
        static_cast<unsigned long long>(
            find_histogram_percentile(snap, svc, 99.0)));
    json += buf;
  }
  json += "\n  ]";

  if (opt.obs) {
    // Exact per-request critical paths, grouped by the tenant id packed into
    // each record. Acceptance: the nearest-rank p99 request's named segments
    // must cover >= 95% of its measured end-to-end latency, per tenant.
    std::vector<std::vector<const obs::Record*>> by_tenant(
        sstats.tenants.size() + 1);
    {
      const std::lock_guard<std::mutex> lock(collector.mu);
      for (const obs::Record& r : collector.records) {
        if (r.tenant < by_tenant.size()) by_tenant[r.tenant].push_back(&r);
      }
    }
    json += ",\n  \"critical_path\": [";
    bool first = true;
    for (std::size_t i = 0; i < sstats.tenants.size(); ++i) {
      auto& recs = by_tenant[i + 1];  // tenant ids are 1-based creation order
      if (recs.empty()) continue;
      const PathSummary ps = summarize_paths(recs);
      const double cover =
          ps.p99_request.total_ns > 0
              ? static_cast<double>(ps.p99_request.named_sum()) /
                    static_cast<double>(ps.p99_request.total_ns)
              : 1.0;
      if (cover < 0.95) {
        std::fprintf(stderr,
                     "serve_load: tenant %s p99 critical-path coverage %.1f%% "
                     "(< 95%% of measured latency)\n",
                     sstats.tenants[i].name.c_str(), cover * 100.0);
        ok = false;
      }
      json += first ? "\n    {" : ",\n    {";
      first = false;
      json += "\"name\": \"";
      json_escape_append(json, sstats.tenants[i].name);
      json += "\", ";
      std::snprintf(buf, sizeof buf,
                    "\"count\": %llu, \"p50_total_ns\": %llu, "
                    "\"p99_total_ns\": %llu, \"mean_coverage\": %.4f,\n     ",
                    static_cast<unsigned long long>(ps.count),
                    static_cast<unsigned long long>(ps.p50_total_ns),
                    static_cast<unsigned long long>(ps.p99_total_ns),
                    ps.mean_coverage);
      json += buf;
      std::snprintf(
          buf, sizeof buf,
          "\"p99_request\": {\"admission_ns\": %llu, \"dependency_ns\": %llu, "
          "\"queue_ns\": %llu, \"exec_ns\": %llu, \"total_ns\": %llu},\n     ",
          static_cast<unsigned long long>(ps.p99_request.admission_ns),
          static_cast<unsigned long long>(ps.p99_request.dependency_ns),
          static_cast<unsigned long long>(ps.p99_request.queue_ns),
          static_cast<unsigned long long>(ps.p99_request.exec_ns),
          static_cast<unsigned long long>(ps.p99_request.total_ns));
      json += buf;
      std::snprintf(
          buf, sizeof buf,
          "\"mean\": {\"admission_ns\": %.1f, \"dependency_ns\": %.1f, "
          "\"queue_ns\": %.1f, \"exec_ns\": %.1f, \"total_ns\": %.1f}}",
          ps.mean_admission_ns, ps.mean_dependency_ns, ps.mean_queue_ns,
          ps.mean_exec_ns, ps.mean_total_ns);
      json += buf;
    }
    json += "\n  ]";
  }
  json += "\n}\n";

  if (!opt.obs_dump.empty()) {
    const std::string written =
        obs::dump_now(obs::Kind::Mark, 0, "serve_load --obs", opt.obs_dump);
    if (written.empty()) {
      std::fprintf(stderr, "serve_load: failed to write obs dump %s\n",
                   opt.obs_dump.c_str());
      ok = false;
    }
  }

  std::ofstream f(opt.json);
  if (!f) {
    std::fprintf(stderr, "serve_load: cannot open %s\n", opt.json.c_str());
    return 1;
  }
  f << json;
  f.close();

  std::printf(
      "serve_load: %zu requests, %zu tenants, %.2f s, %.0f req/s, "
      "p50=%llu ns p99=%llu ns (%s)\n",
      total_submitted, opt.tenants, duration_s,
      duration_s > 0 ? static_cast<double>(total_completed) / duration_s : 0.0,
      static_cast<unsigned long long>(latency[0]),
      static_cast<unsigned long long>(latency[1]), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_load: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests") {
      opt.requests = std::stoull(value());
    } else if (arg == "--tenants") {
      opt.tenants = std::stoull(value());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--json") {
      opt.json = value();
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.requests = 50'000;
    } else if (arg == "--obs") {
      opt.obs = true;
    } else if (arg == "--obs-dump") {
      opt.obs = true;
      opt.obs_dump = value();
    } else if (arg == "--tune") {
      // Convenience override of MCL_TUNE for load runs under tuning.
      const std::string m = value();
      if (m == "off") {
        mcl::tune::Tuner::instance().set_mode(mcl::tune::Mode::Off);
      } else if (m == "seed") {
        mcl::tune::Tuner::instance().set_mode(mcl::tune::Mode::Seed);
      } else if (m == "online") {
        mcl::tune::Tuner::instance().set_mode(mcl::tune::Mode::Online);
      } else {
        std::fprintf(stderr, "serve_load: --tune must be off|seed|online\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: serve_load [--requests N] [--tenants N] [--seed S]\n"
          "                  [--json PATH] [--quick] [--tune off|seed|online]\n"
          "                  [--obs] [--obs-dump PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "serve_load: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.tenants == 0 || opt.requests == 0) {
    std::fprintf(stderr, "serve_load: --tenants and --requests must be > 0\n");
    return 2;
  }
  return run(opt);
}
