// mclobs tests: context-id plumbing (trace TLS scope, tenant packing),
// critical-path decomposition arithmetic, flight-recorder ring semantics,
// dump schema (parsed back with the bundled JSON reader), the always-on
// trace.dropped counter, fault injection parsing, and the end-to-end
// MCL_OBS_INJECT=hang -> timeout anomaly -> `.mclobs` dump flow against a
// manual-schedule mclserve instance. The `obs` label runs these under the
// plain and TSan tiers (tools/tier1.sh).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "ocl/queue.hpp"
#include "prof/metrics.hpp"
#include "serve/serve.hpp"
#include "trace/trace.hpp"

namespace mcl::obs {
namespace {

/// Every test leaves the global recorder the way it found it.
struct ObsGuard {
  ObsGuard() {
    set_enabled(true);
    reset();
  }
  ~ObsGuard() {
    set_complete_sink(nullptr);
    set_inject(Inject::None);
    set_dump_dir("");
    set_ring_capacity(kDefaultRingCapacity);
    set_enabled(false);
  }
};

void copy_fn(const ocl::KernelArgs& a, const ocl::WorkItemCtx& c) {
  const std::size_t i = c.global_id(0);
  a.buffer<float>(1)[i] = a.buffer<float>(0)[i];
}
const ocl::KernelRegistrar reg_copy{{.name = "obs_copy", .scalar = &copy_fn}};

// ----- context ids -------------------------------------------------------------

TEST(ObsContext, MintPacksTenantAndNeverReturnsZero) {
  const std::uint64_t anon = mint_context(0);
  EXPECT_NE(anon, 0u);
  EXPECT_EQ(context_tenant(anon), 0u);

  const std::uint64_t t7 = mint_context(7);
  EXPECT_EQ(context_tenant(t7), 7u);
  EXPECT_NE(mint_context(7), t7) << "ids must be unique per mint";
}

TEST(ObsContext, ContextScopeNestsAndRestores) {
  trace::set_context(0);
  EXPECT_EQ(trace::current_context(), 0u);
  {
    trace::ContextScope outer(41);
    EXPECT_EQ(trace::current_context(), 41u);
    {
      trace::ContextScope inner(42);
      EXPECT_EQ(trace::current_context(), 42u);
    }
    EXPECT_EQ(trace::current_context(), 41u);
    {
      // ctx 0 is a no-op scope: it must NOT clobber the outer context (a
      // direct enqueue without obs enabled runs inside serve spans).
      trace::ContextScope noop(0);
      EXPECT_EQ(trace::current_context(), 41u);
    }
    EXPECT_EQ(trace::current_context(), 41u);
  }
  EXPECT_EQ(trace::current_context(), 0u);
}

TEST(ObsContext, EnsureContextUsesThreadLocalOrMints) {
  trace::set_context(0);
  const std::uint64_t fresh = ensure_context();
  EXPECT_NE(fresh, 0u);
  EXPECT_EQ(context_tenant(fresh), 0u) << "lazy mints are anonymous";

  trace::ContextScope scope(1234);
  EXPECT_EQ(ensure_context(), 1234u);
}

TEST(ObsContext, ThreadLocalContextIsPerThread) {
  trace::ContextScope scope(77);
  std::uint64_t seen = 99;
  std::thread other([&] { seen = trace::current_context(); });
  other.join();
  EXPECT_EQ(seen, 0u) << "contexts must not leak across threads";
  EXPECT_EQ(trace::current_context(), 77u);
}

// ----- critical-path decomposition ---------------------------------------------

TEST(ObsDecompose, FullServeTimeline) {
  RequestTimes t;
  t.submit_ns = 100;
  t.forward_ns = 200;
  t.dep_ready_ns = 150;
  t.queued_ns = 200;
  t.submitted_ns = 210;
  t.started_ns = 260;
  t.ended_ns = 400;
  t.done_ns = 410;
  const PathSegments s = decompose(t);
  // serve-side dependency wait: dep_ready - submit = 50 (within pre-forward)
  EXPECT_EQ(s.dependency_ns, 50u + 10u);  // + queue wait-list (submitted-queued)
  EXPECT_EQ(s.admission_ns, 100u - 50u);  // pre-forward remainder
  EXPECT_EQ(s.queue_ns, 50u);
  EXPECT_EQ(s.exec_ns, 140u);
  EXPECT_EQ(s.total_ns, 310u);
  EXPECT_LE(s.named_sum(), s.total_ns);
  EXPECT_EQ(s.total_ns - s.named_sum(), 10u);  // completion dispatch
}

TEST(ObsDecompose, DirectEnqueueUsesProfilingOnly) {
  RequestTimes t;
  t.queued_ns = 1000;
  t.submitted_ns = 1100;
  t.started_ns = 1200;
  t.ended_ns = 1500;
  t.is_kernel = false;
  const PathSegments s = decompose(t);
  EXPECT_EQ(s.admission_ns, 0u);
  EXPECT_EQ(s.dependency_ns, 100u);
  EXPECT_EQ(s.queue_ns, 100u);
  EXPECT_EQ(s.exec_ns, 300u);
  EXPECT_EQ(s.total_ns, 500u);  // done falls back to ended
  EXPECT_FALSE(s.is_kernel);
}

TEST(ObsDecompose, ZeroTimesYieldZeroSegmentsAndSaturate) {
  const PathSegments zero = decompose(RequestTimes{});
  EXPECT_EQ(zero.named_sum(), 0u);
  EXPECT_EQ(zero.total_ns, 0u);

  // Out-of-order stamps must clamp, not wrap.
  RequestTimes bad;
  bad.submit_ns = 500;
  bad.done_ns = 400;
  bad.started_ns = 300;
  bad.ended_ns = 200;
  const PathSegments s = decompose(bad);
  EXPECT_EQ(s.total_ns, 0u);
  EXPECT_EQ(s.exec_ns, 0u);
}

TEST(ObsDecompose, DependencyClampedToPreForwardWindow) {
  // A dependency that resolved after forwarding (possible with user events)
  // must not inflate dependency_ns past the pre-forward window.
  RequestTimes t;
  t.submit_ns = 100;
  t.forward_ns = 150;
  t.dep_ready_ns = 900;
  t.done_ns = 1000;
  const PathSegments s = decompose(t);
  EXPECT_EQ(s.dependency_ns, 50u);
  EXPECT_EQ(s.admission_ns, 0u);
}

TEST(ObsDecompose, ServeWindowEndsAtQueued) {
  // The scheduler's forward work (forward -> queued) is admission, not an
  // unattributed gap; a dependency forwarded late in that window clamps to
  // it.
  RequestTimes t;
  t.submit_ns = 100;
  t.forward_ns = 150;
  t.queued_ns = 400;
  t.submitted_ns = 400;
  t.started_ns = 400;
  t.ended_ns = 500;
  t.done_ns = 500;
  PathSegments s = decompose(t);
  EXPECT_EQ(s.admission_ns, 300u);
  EXPECT_EQ(s.named_sum(), s.total_ns);

  t.dep_ready_ns = 900;
  s = decompose(t);
  EXPECT_EQ(s.admission_ns, 0u);
  EXPECT_EQ(s.dependency_ns, 300u);
  EXPECT_EQ(s.named_sum(), s.total_ns);
}

// ----- flight-recorder ring ----------------------------------------------------

TEST(ObsRecorder, RingOverwritesOldestAndCountsTotal) {
  ObsGuard guard;
  set_ring_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    Record r;
    r.kind = Kind::Mark;
    r.ctx = i;
    record(r);
  }
  EXPECT_EQ(total_recorded(), 20u);
  const std::vector<Record> snap = snapshot_records();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].ctx, 12u + i) << "recorder must keep the newest tail";
  }
}

TEST(ObsRecorder, DisabledRecordIsDropped) {
  ObsGuard guard;
  set_enabled(false);
  record(Record{});
  EXPECT_EQ(total_recorded(), 0u);
  set_enabled(true);
}

TEST(ObsRecorder, CompleteSinkSeesExactSegments) {
  ObsGuard guard;
  std::vector<Record> seen;
  set_complete_sink([&](const Record& r) { seen.push_back(r); });
  PathSegments s;
  s.admission_ns = 1;
  s.dependency_ns = 2;
  s.queue_ns = 3;
  s.exec_ns = 4;
  s.total_ns = 11;
  note_request_complete(mint_context(3), 3, s, core::Status::Success);
  set_complete_sink(nullptr);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].kind, Kind::Complete);
  EXPECT_EQ(seen[0].tenant, 3u);
  EXPECT_EQ(seen[0].args[0], 1u);
  EXPECT_EQ(seen[0].args[1], 2u);
  EXPECT_EQ(seen[0].args[2], 3u);
  EXPECT_EQ(seen[0].args[3], 4u);
  EXPECT_EQ(seen[0].args[4], 11u);
  EXPECT_EQ(seen[0].args[5], 1u);
}

// ----- trace integration -------------------------------------------------------

TEST(ObsTrace, CommandAndWorkgroupSpansCarryContext) {
  ObsGuard guard;
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  ocl::CommandQueue q(ctx);
  ocl::Buffer in(ocl::MemFlags::ReadWrite, 64 * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, 64 * 4);
  ocl::Kernel k = ctx.create_kernel(ocl::Program::builtin(), "obs_copy");
  k.set_arg(0, in);
  k.set_arg(1, out);

  const std::uint64_t my_ctx = mint_context(9);
  trace::start(0);
  ocl::AsyncEventPtr ev;
  {
    // The async path crosses threads: the worker that runs and finalizes
    // the command must re-install the submitter's context.
    trace::ContextScope scope(my_ctx);
    ev = q.enqueue_ndrange_async(k, ocl::NDRange{64});
  }
  ev->wait();
  q.finish();
  trace::stop();

  bool saw_cmd = false, saw_wg = false;
  for (const trace::TaggedEvent& te : trace::collect()) {
    const trace::TraceEvent& ev = te.event;
    if (ev.name == nullptr) continue;
    const std::string name = ev.name;
    if (name == "cmd.kernel" && ev.ctx == my_ctx) saw_cmd = true;
    if (name.rfind("wg:", 0) == 0 && ev.ctx == my_ctx) saw_wg = true;
  }
  EXPECT_TRUE(saw_cmd) << "cmd.kernel span must carry the submitter context";
  EXPECT_TRUE(saw_wg) << "workgroup spans must inherit the context";
}

TEST(ObsProf, TraceDroppedCounterAlwaysPresent) {
  const prof::Snapshot snap = prof::snapshot();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "trace.dropped") found = true;
  }
  EXPECT_TRUE(found) << "trace.dropped must be surfaced even with prof off";
}

// ----- dump schema -------------------------------------------------------------

TEST(ObsDump, SnapshotJsonParsesAndFiltersRelatedEvents) {
  ObsGuard guard;
  const std::uint64_t a = mint_context(1);
  const std::uint64_t b = mint_context(2);
  Record r;
  r.kind = Kind::Submit;
  r.ctx = a;
  r.tenant = 1;
  r.detail = "a-submit";
  record(r);
  r.ctx = b;
  r.tenant = 2;
  r.detail = "b-submit";
  record(r);
  anomaly(Kind::Timeout, a, "test timeout", core::Status::Cancelled);

  const int token = register_section("obs_test", [] {
    return std::string("{\"marker\":42}");
  });
  const std::string doc_text = snapshot_json(Kind::Timeout, a, "test timeout");
  unregister_section(token);

  std::string error;
  const json::ValuePtr doc = json::parse(doc_text, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get_u64("mclobs"), 1u);
  const json::Value* trig = doc->get("trigger");
  ASSERT_NE(trig, nullptr);
  EXPECT_EQ(trig->get_string("kind"), "timeout");
  EXPECT_EQ(trig->get_u64("ctx"), a) << "64-bit ctx must round-trip exactly";
  EXPECT_EQ(trig->get_u64("tenant"), 1u);

  const json::Value* events = doc->get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), 3u);
  const json::Value* related = doc->get("related_events");
  ASSERT_NE(related, nullptr);
  ASSERT_EQ(related->array.size(), 2u) << "submit + timeout of ctx a";
  for (const json::ValuePtr& ev : related->array) {
    EXPECT_EQ(ev->get_u64("ctx"), a);
  }
  ASSERT_NE(doc->get("metrics"), nullptr);
  const json::Value* sections = doc->get("sections");
  ASSERT_NE(sections, nullptr);
  const json::Value* mine = sections->get("obs_test");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->get_u64("marker"), 42u);
}

TEST(ObsDump, DumpNowWritesFileAndReportsPath) {
  ObsGuard guard;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "obs_unit.mclobs")
          .string();
  std::filesystem::remove(path);
  const std::string written = dump_now(Kind::Mark, 0, "unit test", path);
  EXPECT_EQ(written, path);
  std::string error;
  const json::ValuePtr doc = json::parse_file(path, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get_u64("mclobs"), 1u);
  std::filesystem::remove(path);
}

// ----- JSON reader -------------------------------------------------------------

TEST(ObsJson, ParsesScalarsArraysObjectsAndEscapes) {
  std::string error;
  const json::ValuePtr doc = json::parse(
      R"({"u": 18446744073709551615, "neg": -2.5, "s": "a\"\\\nA",
          "t": true, "n": null, "arr": [1, 2, 3], "obj": {"k": "v"}})",
      &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get_u64("u"), 18446744073709551615ull)
      << "max uint64 must survive (doubles cannot hold it)";
  EXPECT_DOUBLE_EQ(doc->get_number("neg"), -2.5);
  EXPECT_EQ(doc->get_string("s"), "a\"\\\nA");
  EXPECT_TRUE(doc->get("t")->boolean);
  EXPECT_TRUE(doc->get("n")->is_null());
  ASSERT_TRUE(doc->get("arr")->is_array());
  EXPECT_EQ(doc->get("arr")->array.size(), 3u);
  EXPECT_EQ(doc->get("obj")->get_string("k"), "v");
}

TEST(ObsJson, RejectsMalformedDocuments) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "{'single':1}"}) {
    std::string error;
    EXPECT_EQ(json::parse(bad, &error), nullptr) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ----- fault injection ---------------------------------------------------------

TEST(ObsInject, ParseInject) {
  EXPECT_EQ(parse_inject(nullptr), Inject::None);
  EXPECT_EQ(parse_inject(""), Inject::None);
  EXPECT_EQ(parse_inject("hang"), Inject::Hang);
  EXPECT_EQ(parse_inject("error"), Inject::Error);
  EXPECT_EQ(parse_inject("bogus"), Inject::None);
}

/// End-to-end flight-recorder flow: an injected hang parks the request, its
/// pending-phase deadline expires, the Timeout anomaly writes a `.mclobs`
/// dump, and the dump is triageable — trigger ctx equals the hung ticket's
/// context and every related event carries it.
TEST(ObsInject, HangProducesTriageableDump) {
  using namespace std::chrono_literals;
  ObsGuard guard;
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_hang_dumps")
          .string();
  std::filesystem::remove_all(dir);
  set_dump_dir(dir);
  set_inject(Inject::Hang);  // consumed by the Server constructor

  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  serve::Server server(ctx, serve::ServerConfig{.manual_schedule = true});
  serve::TenantConfig tc;
  tc.name = "hang-tenant";
  tc.default_timeout_ns = 20'000'000;  // 20 ms pending-phase deadline
  serve::Session session = server.create_session(tc);

  ocl::Buffer in(ocl::MemFlags::ReadWrite, 64 * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, 64 * 4);
  serve::LaunchSpec spec;
  spec.kernel = "obs_copy";
  spec.args = {serve::ArgSpec::buf(in), serve::ArgSpec::buf(out)};
  spec.global = ocl::NDRange{64};
  serve::Ticket ticket = session.submit(std::move(spec));
  const std::uint64_t hung_ctx = ticket.context();
  ASSERT_NE(hung_ctx, 0u);

  // First pass: the armed hang parks the head instead of forwarding it.
  EXPECT_EQ(server.step(), 0u);
  EXPECT_FALSE(ticket.complete());

  std::this_thread::sleep_for(40ms);
  // Deadline passed: this pass expires the request -> Timeout anomaly ->
  // dump into `dir`.
  EXPECT_EQ(server.step(), 0u);
  EXPECT_TRUE(ticket.complete());
  EXPECT_EQ(ticket.status(), core::Status::Cancelled);

  std::string dump_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".mclobs")
      dump_path = entry.path().string();
  }
  ASSERT_FALSE(dump_path.empty()) << "timeout anomaly must write a dump";

  std::string error;
  const json::ValuePtr doc = json::parse_file(dump_path, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get_u64("mclobs"), 1u);
  const json::Value* trig = doc->get("trigger");
  ASSERT_NE(trig, nullptr);
  EXPECT_EQ(trig->get_string("kind"), "timeout");
  EXPECT_EQ(trig->get_u64("ctx"), hung_ctx);

  const json::Value* related = doc->get("related_events");
  ASSERT_NE(related, nullptr);
  ASSERT_FALSE(related->array.empty());
  bool saw_inject = false, saw_timeout = false;
  for (const json::ValuePtr& ev : related->array) {
    EXPECT_EQ(ev->get_u64("ctx"), hung_ctx);
    const std::string kind = ev->get_string("kind");
    if (kind == "inject") saw_inject = true;
    if (kind == "timeout") saw_timeout = true;
  }
  EXPECT_TRUE(saw_inject) << "the parked request's Inject record is related";
  EXPECT_TRUE(saw_timeout);

  // The serve section snapshots the tenant's queue state at dump time.
  const json::Value* sections = doc->get("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_NE(sections->get("serve"), nullptr);

  std::filesystem::remove_all(dir);
}

/// MCL_OBS_INJECT=error: the first forwarded request fails with
/// InternalError and raises an Error anomaly (no dump dir -> no file).
TEST(ObsInject, ErrorFailsFirstForwardedRequest) {
  ObsGuard guard;
  set_inject(Inject::Error);

  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  serve::Server server(ctx, serve::ServerConfig{.manual_schedule = true});
  serve::TenantConfig tc;
  tc.name = "error-tenant";
  serve::Session session = server.create_session(tc);

  ocl::Buffer in(ocl::MemFlags::ReadWrite, 64 * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, 64 * 4);
  serve::LaunchSpec spec;
  spec.kernel = "obs_copy";
  spec.args = {serve::ArgSpec::buf(in), serve::ArgSpec::buf(out)};
  spec.global = ocl::NDRange{64};
  serve::Ticket t1 = session.submit(std::move(spec));
  server.step();
  ASSERT_TRUE(t1.complete());
  EXPECT_EQ(t1.status(), core::Status::InternalError);

  // The fault is one-shot: the next request must succeed.
  serve::LaunchSpec spec2;
  spec2.kernel = "obs_copy";
  spec2.args = {serve::ArgSpec::buf(in), serve::ArgSpec::buf(out)};
  spec2.global = ocl::NDRange{64};
  serve::Ticket t2 = session.submit(std::move(spec2));
  while (!t2.complete()) server.step();
  EXPECT_EQ(t2.status(), core::Status::Success);

  bool saw_inject = false;
  for (const Record& r : snapshot_records()) {
    if (r.kind == Kind::Inject) saw_inject = true;
  }
  EXPECT_TRUE(saw_inject);
}

/// Serve-side completion records decompose into segments that cover the
/// measured latency (the serve_load --obs acceptance check in miniature).
TEST(ObsServe, CompleteRecordsCoverMeasuredLatency) {
  ObsGuard guard;
  std::vector<Record> completes;
  set_complete_sink([&](const Record& r) { completes.push_back(r); });

  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  serve::Server server(ctx);
  serve::TenantConfig tc;
  tc.name = "cover-tenant";
  serve::Session session = server.create_session(tc);

  // Big enough that execution dominates: for ~20 us requests the
  // unattributed remainder (completion-callback dispatch) is a large
  // fraction, which is a property of tiny requests, not a decomposition bug.
  constexpr std::size_t kItems = 1 << 16;
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kItems * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kItems * 4);
  for (int i = 0; i < 50; ++i) {
    serve::LaunchSpec spec;
    spec.kernel = "obs_copy";
    spec.args = {serve::ArgSpec::buf(in), serve::ArgSpec::buf(out)};
    spec.global = ocl::NDRange{kItems};
    session.submit(std::move(spec)).wait();
  }
  session.finish();
  set_complete_sink(nullptr);

  ASSERT_EQ(completes.size(), 50u);
  std::uint64_t named_sum = 0, total_sum = 0;
  for (const Record& r : completes) {
    EXPECT_EQ(r.tenant, 1u);
    EXPECT_NE(r.ctx, 0u);
    const std::uint64_t named =
        r.args[0] + r.args[1] + r.args[2] + r.args[3];
    EXPECT_LE(named, r.args[4]) << "segments must never exceed the total";
    named_sum += named;
    total_sum += r.args[4];
  }
  ASSERT_GT(total_sum, 0u);
  EXPECT_GE(10 * named_sum, 8 * total_sum)
      << "named segments should cover >= 80% of aggregate latency";
}

}  // namespace
}  // namespace mcl::obs
