// mclserve tests: admission control and backpressure, weighted-fair-queueing
// starvation regression, dependency eligibility, batching/fusion,
// kernel-descriptor caching, cancellation and pending-phase timeouts, and a
// multi-tenant dependency stress run (the `serve` label is in the plain,
// ASan and TSan tiers).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "ocl/queue.hpp"
#include "serve/serve.hpp"

namespace mcl::serve {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kN = 64;

struct ServeFixture {
  ocl::CpuDevice dev{ocl::CpuDeviceConfig{.threads = 2}};
  ocl::Context ctx{dev};
};

LaunchSpec square_launch(ocl::Buffer& in, ocl::Buffer& out, std::size_t items,
                         std::size_t offset_0 = 0) {
  LaunchSpec spec;
  spec.kernel = "square";
  spec.args = {ArgSpec::buf(in), ArgSpec::buf(out)};
  spec.global = ocl::NDRange{items};
  if (offset_0 != 0) spec.offset = ocl::NDRange{offset_0};
  return spec;
}

/// Manual-mode helper: spin until every forwarded command retired (the
/// in-flight window is free again). Commands on the CPU device always
/// terminate, so the loop is bounded by the test timeout.
void drain_in_flight(Server& server) {
  while (server.stats().in_flight != 0) std::this_thread::yield();
}

// ----- roundtrip -----------------------------------------------------------------

TEST(Serve, RoundtripWriteLaunchRead) {
  ServeFixture f;
  Server server(f.ctx);
  Session s = server.create_session({.name = "t0"});

  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  std::vector<float> host_in(kN), host_out(kN, 0.0f);
  for (std::size_t i = 0; i < kN; ++i) host_in[i] = static_cast<float>(i);

  Ticket w = s.submit_write(in, 0, kN * 4, host_in.data());
  Ticket l = s.submit(square_launch(in, out, kN), {w});
  Ticket r = s.submit_read(out, 0, kN * 4, host_out.data(), {l});
  r.wait();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(host_out[i], host_in[i] * host_in[i]) << i;
  }
  EXPECT_EQ(r.status(), core::Status::Success);
  s.finish();
  const SessionStats st = s.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.outstanding, 0u);
}

TEST(Serve, UnknownKernelFailsAtSubmit) {
  ServeFixture f;
  Server server(f.ctx);
  Session s = server.create_session({.name = "t0"});
  LaunchSpec spec;
  spec.kernel = "serve_no_such_kernel";
  spec.global = ocl::NDRange{1};
  try {
    s.submit(std::move(spec));
    FAIL() << "expected InvalidKernelName";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::InvalidKernelName);
  }
}

TEST(Serve, KernelDescriptorCacheCountsHits) {
  ServeFixture f;
  Server server(f.ctx);
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  s.submit(square_launch(in, out, kN)).wait();
  s.submit(square_launch(in, out, kN)).wait();
  s.finish();
  const SessionStats st = s.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
}

// ----- admission control / backpressure ------------------------------------------

TEST(Serve, RejectPolicyBouncesAtDepth) {
  ServeFixture f;
  // Manual mode: nothing dispatches, so admitted requests stay pending and
  // the depth bound is what is being observed.
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session({.name = "t0",
                                     .max_queue_depth = 2,
                                     .admission = AdmissionPolicy::Reject});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN));
  Ticket b = s.submit(square_launch(in, out, kN));
  try {
    s.submit(square_launch(in, out, kN));
    FAIL() << "expected OutOfResources";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::OutOfResources);
  }
  EXPECT_FALSE(s.try_submit(square_launch(in, out, kN)).has_value());

  const SessionStats st = s.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.outstanding, 2u);

  // Free the stream so the destructor's cancel path is also exercised on a
  // known state (both still pending).
  EXPECT_TRUE(server.cancel(a));
  EXPECT_TRUE(server.cancel(b));
}

TEST(Serve, BlockPolicyAppliesBackpressureThenResumes) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session({.name = "t0", .max_queue_depth = 1});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN));
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    Ticket b = s.submit(square_launch(in, out, kN));  // blocks: depth 1
    admitted.store(true);
    EXPECT_TRUE(b.valid());
  });
  std::this_thread::sleep_for(30ms);
  // Still blocked: depth 1, nothing dispatched. outstanding never exceeds
  // the configured bound — offered load does not grow server memory.
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(s.stats().outstanding, 1u);

  EXPECT_TRUE(server.cancel(a));  // frees the slot; the waiter admits
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(s.stats().outstanding, 1u);
  EXPECT_EQ(s.stats().submitted, 2u);
}

// ----- cancellation / timeout ----------------------------------------------------

TEST(Serve, CancelPendingCompletesTicketCancelled) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN));
  EXPECT_TRUE(server.cancel(a));
  EXPECT_TRUE(a.complete());
  EXPECT_EQ(a.status(), core::Status::Cancelled);
  try {
    a.wait();
    FAIL() << "expected Cancelled";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::Cancelled);
  }
  EXPECT_FALSE(server.cancel(a));  // already done
  EXPECT_EQ(s.stats().cancelled, 1u);
}

TEST(Serve, CancellationPropagatesToDependents) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN));
  Ticket b = s.submit(square_launch(in, out, kN), {a});
  EXPECT_TRUE(server.cancel(a));
  // b's dependency is now terminal-with-failure, so the scheduler forwards
  // it and the event graph's failed-dependency propagation fails it with
  // the dep's Status — the same path a failed kernel takes.
  while (!b.complete()) {
    server.step();
    std::this_thread::yield();
  }
  EXPECT_EQ(b.status(), core::Status::Cancelled);
  s.finish();  // the ticket completes before the stats are updated
  EXPECT_EQ(s.stats().failed, 1u);
  EXPECT_EQ(s.stats().cancelled, 1u);
}

TEST(Serve, PendingPhaseTimeoutCancels) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session(
      {.name = "t0", .default_timeout_ns = 1'000'000});  // 1 ms
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN));
  std::this_thread::sleep_for(5ms);
  server.step();  // deadline pass runs before dispatch
  EXPECT_TRUE(a.complete());
  EXPECT_EQ(a.status(), core::Status::Cancelled);
  EXPECT_EQ(s.stats().timed_out, 1u);
  EXPECT_EQ(s.stats().outstanding, 0u);
}

/// Automatic mode: a request queued behind a full window expires at its
/// deadline, not when the window next frees. The deadline timer runs the
/// pass; no completion or submit does.
TEST(Serve, DeadlineExpiresWhileWindowIsFull) {
  ServeFixture f;
  // A 1024 x 1024 naive matrix multiply over depth 4096: about 0.1 s on
  // the fixture's two workers, far longer than the deadline. The buffers
  // outlive the server, which drains the launch even when an assertion
  // ends the test early.
  constexpr unsigned kDim = 1024;
  constexpr unsigned kDepth = 4096;
  ocl::Buffer a(ocl::MemFlags::ReadWrite, std::size_t{kDim} * kDepth * 4);
  ocl::Buffer b(ocl::MemFlags::ReadWrite, std::size_t{kDepth} * kDim * 4);
  ocl::Buffer c(ocl::MemFlags::ReadWrite, std::size_t{kDim} * kDim * 4);
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  Server server(f.ctx, {.max_in_flight = 1});
  Session slow = server.create_session({.name = "slow"});
  Session timed = server.create_session(
      {.name = "timed", .default_timeout_ns = 1'000'000});  // 1 ms
  LaunchSpec matmul;
  matmul.kernel = "matrixmul_naive";
  matmul.args = {ArgSpec::buf(a),          ArgSpec::buf(b),
                 ArgSpec::buf(c),          ArgSpec::scalar_of(kDim),
                 ArgSpec::scalar_of(kDim), ArgSpec::scalar_of(kDepth)};
  matmul.global = ocl::NDRange{kDim, kDim};

  Ticket long_launch = slow.submit(std::move(matmul));
  Ticket queued = timed.submit(square_launch(in, out, kN));
  EXPECT_THROW(queued.wait(), core::Error);
  EXPECT_FALSE(long_launch.complete()) << "expired only once the window freed";
  EXPECT_EQ(queued.status(), core::Status::Cancelled);
  EXPECT_EQ(timed.stats().timed_out, 1u);
  long_launch.wait();
}

/// On an idle server the submitting thread runs the pass itself: the
/// request is forwarded before submit() returns, with no thread hop.
TEST(Serve, IdleServerForwardsBeforeSubmitReturns) {
  ServeFixture f;
  Server server(f.ctx);
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  Ticket t = s.submit(square_launch(in, out, kN));
  EXPECT_EQ(server.stats().forwarded_commands, 1u);
  t.wait();
}

TEST(Serve, TicketWaitForTimesOutWhilePending) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  Ticket a = s.submit(square_launch(in, out, kN));
  EXPECT_FALSE(a.wait_for(2ms));  // never dispatched in manual mode
  EXPECT_TRUE(server.cancel(a));
}

// ----- dependencies --------------------------------------------------------------

/// A dependent is eligible once its dependencies are in flight: one pass
/// forwards a whole write -> launch -> read chain, and the event graph's
/// wait lists still order it.
TEST(Serve, ChainForwardsInOneStep) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 4, .manual_schedule = true});
  Session s = server.create_session({.name = "t0"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  std::vector<float> host_in(kN), host_out(kN, 0.0f);
  for (std::size_t i = 0; i < kN; ++i) host_in[i] = static_cast<float>(i);

  Ticket w = s.submit_write(in, 0, kN * 4, host_in.data());
  Ticket l = s.submit(square_launch(in, out, kN), {w});
  Ticket r = s.submit_read(out, 0, kN * 4, host_out.data(), {l});
  ASSERT_EQ(server.step(), 3u);
  r.wait();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(host_out[i], host_in[i] * host_in[i]) << i;
  }
  EXPECT_EQ(s.stats().forwarded, 3u);
}

/// A dependency that is still queued keeps blocking its dependent, even
/// when WFQ would pick the dependent's tenant first.
TEST(Serve, PendingDependencyStillBlocks) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 1, .manual_schedule = true});
  Session a = server.create_session({.name = "a"});
  Session b = server.create_session({.name = "b"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  a.submit(square_launch(in, out, kN));
  Ticket a1 = a.submit(square_launch(in, out, kN));
  Ticket b0 = b.submit(square_launch(in, out, kN), {a1});

  // Equal tags: the first tenant wins the tie.
  ASSERT_EQ(server.step(), 1u);
  drain_in_flight(server);
  // Now b's head has the lower tag, but its dependency a1 is still queued.
  ASSERT_EQ(server.step(), 1u);
  ASSERT_EQ(b.stats().forwarded, 0u);
  ASSERT_EQ(a.stats().forwarded, 2u);
  drain_in_flight(server);
  ASSERT_EQ(server.step(), 1u);
  b0.wait();
  b.finish();  // the ticket completes before the stats are updated
  EXPECT_EQ(b.stats().completed, 1u);
}

/// Dependents forwarded behind an unfinished dependency hold window slots,
/// but while the window has room a ready tenant is forwarded in the same
/// pass and finishes without waiting for them.
TEST(Serve, BlockedDependentsLeaveRoomForReadyTenant) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 4, .manual_schedule = true});
  Session a = server.create_session({.name = "a"});
  Session b = server.create_session({.name = "b"});
  constexpr std::size_t kBig = std::size_t{1} << 16;
  ocl::Buffer big_in(ocl::MemFlags::ReadWrite, kBig * 4);
  ocl::Buffer big_out(ocl::MemFlags::ReadWrite, kBig * 4);
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket slow = a.submit(square_launch(big_in, big_out, kBig));
  Ticket d1 = a.submit(square_launch(big_out, big_in, kN), {slow});
  Ticket d2 = a.submit(square_launch(big_out, big_in, kN, kN), {slow});
  Ticket ready = b.submit(square_launch(in, out, kN));
  ASSERT_EQ(server.step(), 4u);
  EXPECT_EQ(b.stats().forwarded, 1u);
  ready.wait();
  d1.wait();
  d2.wait();
  EXPECT_EQ(slow.status(), core::Status::Success);
}

TEST(Serve, RejectsDependencyFromAnotherServer) {
  ServeFixture f;
  Server first(f.ctx, {.manual_schedule = true});
  Server second(f.ctx, {.manual_schedule = true});
  Session s1 = first.create_session({.name = "t"});
  Session s2 = second.create_session({.name = "t"});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  Ticket foreign = s1.submit(square_launch(in, out, kN));
  try {
    s2.submit(square_launch(in, out, kN), {foreign});
    FAIL() << "expected InvalidValue";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::InvalidValue);
  }
  std::vector<float> host(kN);
  EXPECT_THROW(s2.submit_read(out, 0, kN * 4, host.data(), {foreign}),
               core::Error);
  EXPECT_EQ(s2.stats().submitted, 0u);
}

/// 64 dependent requests alternating between two tenants through a
/// one-command window: each waits on the one before, so they must run and
/// finish in submission order (the ping-pong sum counts the steps).
TEST(Serve, CrossTenantChainCompletesInOrder) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 1});
  Session tenants[2] = {server.create_session({.name = "even"}),
                        server.create_session({.name = "odd"})};
  constexpr std::size_t kSteps = 64;
  ocl::Buffer ones(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer acc[2] = {ocl::Buffer(ocl::MemFlags::ReadWrite, kN * 4),
                        ocl::Buffer(ocl::MemFlags::ReadWrite, kN * 4)};
  for (std::size_t i = 0; i < kN; ++i) {
    ones.as<float>()[i] = 1.0f;
    acc[0].as<float>()[i] = 0.0f;
  }

  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < kSteps; ++i) {
    LaunchSpec spec;
    spec.kernel = "vectoradd";
    spec.args = {ArgSpec::buf(acc[i % 2]), ArgSpec::buf(ones),
                 ArgSpec::buf(acc[(i + 1) % 2])};
    spec.global = ocl::NDRange{kN};
    std::vector<Ticket> deps;
    if (!tickets.empty()) deps.push_back(tickets.back());
    tickets.push_back(tenants[i % 2].submit(std::move(spec), std::move(deps)));
  }
  tickets.back().wait();
  for (std::size_t i = 0; i < kSteps; ++i) {
    ASSERT_EQ(tickets[i].status(), core::Status::Success) << i;
    if (i > 0) {
      EXPECT_LE(tickets[i - 1].event()->profiling_ns().ended_ns,
                tickets[i].event()->profiling_ns().ended_ns)
          << i;
    }
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(acc[kSteps % 2].as<float>()[i], static_cast<float>(kSteps)) << i;
  }
  for (Session& s : tenants) {
    s.finish();
    EXPECT_EQ(s.stats().completed, kSteps / 2);
  }
}

// ----- weighted fair queueing ----------------------------------------------------

/// Starvation regression: with a heavy tenant holding a deep backlog, a
/// light tenant of equal weight still gets every other dispatch slot — its
/// K requests complete after at most K+1 heavy dispatches, not after the
/// heavy backlog drains.
TEST(Serve, WfqEqualWeightsPreventStarvation) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 1, .manual_schedule = true});
  Session heavy =
      server.create_session({.name = "heavy", .max_queue_depth = 256});
  Session light =
      server.create_session({.name = "light", .max_queue_depth = 256});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  constexpr std::size_t kHeavyBacklog = 64;
  constexpr std::size_t kLightJobs = 8;
  for (std::size_t i = 0; i < kHeavyBacklog; ++i) {
    heavy.submit(square_launch(in, out, kN));
  }
  for (std::size_t i = 0; i < kLightJobs; ++i) {
    light.submit(square_launch(in, out, kN));
  }

  while (light.stats().completed < kLightJobs) {
    ASSERT_GT(server.step(), 0u) << "scheduler stalled";
    drain_in_flight(server);
  }
  // Equal weights, equal cost: dispatches alternate, so the heavy tenant
  // got at most one extra slot while the light tenant drained.
  EXPECT_LE(heavy.stats().forwarded, kLightJobs + 1);
  // No finish(): in manual mode nothing steps the remaining heavy backlog;
  // ~Server cancels it.
}

TEST(Serve, WfqShareTracksWeights) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 1, .manual_schedule = true});
  Session w3 = server.create_session(
      {.name = "w3", .weight = 3.0, .max_queue_depth = 256});
  Session w1 = server.create_session(
      {.name = "w1", .weight = 1.0, .max_queue_depth = 256});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);

  for (std::size_t i = 0; i < 60; ++i) {
    w3.submit(square_launch(in, out, kN));
    w1.submit(square_launch(in, out, kN));
  }
  std::size_t dispatches = 0;
  while (dispatches < 40) {
    dispatches += server.step();
    drain_in_flight(server);
  }
  // Expected split while both stay backlogged: 30 / 10. Allow slack for the
  // tag tie-breaks at round boundaries.
  EXPECT_GE(w3.stats().forwarded, 27u);
  EXPECT_LE(w1.stats().forwarded, 13u);
  // No finish(): the 80 still-pending requests are cancelled by ~Server.
}

/// Start-time fair queueing: a tenant whose head costs 64x more than a
/// backlogged light tenant's still gets its turn at once, and another after
/// the light tenant has dispatched the same cost. Ranking by finish tag
/// forwarded it only after the light backlog drained.
TEST(Serve, WfqHeavyCostTenantIsNotStarved) {
  ServeFixture f;
  Server server(f.ctx, {.max_in_flight = 1, .manual_schedule = true});
  Session light =
      server.create_session({.name = "light", .max_queue_depth = 256});
  Session heavy = server.create_session({.name = "heavy"});
  constexpr std::size_t kLightJobs = 128;
  constexpr std::size_t kLightItems = 64;
  constexpr std::size_t kHeavyItems = 4096;
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kHeavyItems * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kHeavyItems * 4);

  for (std::size_t i = 0; i < kLightJobs; ++i) {
    light.submit(square_launch(in, out, kLightItems));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    heavy.submit(square_launch(in, out, kHeavyItems));
  }
  while (light.stats().forwarded < kLightJobs) {
    ASSERT_GT(server.step(), 0u) << "scheduler stalled";
    drain_in_flight(server);
  }
  EXPECT_GE(heavy.stats().forwarded, 2u);
  // No finish(): ~Server cancels the heavy requests still pending.
}

// ----- batching ------------------------------------------------------------------

TEST(Serve, BatchingFusesContiguousSmallLaunches) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session(
      {.name = "t0", .max_queue_depth = 64, .batch_max_items = 512});
  constexpr std::size_t kTotal = 512;
  constexpr std::size_t kChunk = 64;
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kTotal * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kTotal * 4);
  for (std::size_t i = 0; i < kTotal; ++i) {
    in.as<float>()[i] = static_cast<float>(i % 97);
  }

  std::vector<Ticket> tickets;
  for (std::size_t off = 0; off < kTotal; off += kChunk) {
    tickets.push_back(s.submit(square_launch(in, out, kChunk, off)));
  }
  server.step();
  for (Ticket& t : tickets) t.wait();
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(out.as<float>()[i], in.as<float>()[i] * in.as<float>()[i]) << i;
  }
  s.finish();  // tickets complete before the stats are updated
  const SessionStats st = s.stats();
  EXPECT_EQ(st.forwarded, 1u);  // all eight launches fused into one command
  EXPECT_EQ(st.batched, 8u);
  EXPECT_EQ(st.completed, 8u);
  EXPECT_EQ(server.stats().fused_requests, 7u);
}

/// A launch that depends on the request heading a batch is otherwise
/// fusable with it, but joining would make the command wait on itself: it
/// is forwarded as a command of its own in the same pass.
TEST(Serve, DependencyOnBatchMateEndsBatch) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session(
      {.name = "t0", .max_queue_depth = 64, .batch_max_items = 512});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, 2 * kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, 2 * kN * 4);

  Ticket a = s.submit(square_launch(in, out, kN, 0));
  Ticket b = s.submit(square_launch(in, out, kN, kN), {a});
  ASSERT_EQ(server.step(), 2u);
  ASSERT_TRUE(b.wait_for(10s)) << "dependent fused into its dependency's command";
  EXPECT_EQ(a.status(), core::Status::Success);
  EXPECT_EQ(b.status(), core::Status::Success);
  s.finish();  // tickets complete before the stats are updated
  EXPECT_EQ(s.stats().forwarded, 2u);
  EXPECT_EQ(s.stats().batched, 0u);
  EXPECT_EQ(server.stats().fused_requests, 0u);
}

TEST(Serve, BatchingStopsAtNonContiguousOffset) {
  ServeFixture f;
  Server server(f.ctx, {.manual_schedule = true});
  Session s = server.create_session(
      {.name = "t0", .max_queue_depth = 64, .batch_max_items = 512});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, 256 * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, 256 * 4);

  Ticket a = s.submit(square_launch(in, out, kN, 0));
  Ticket b = s.submit(square_launch(in, out, kN, 128));  // gap: not fusable
  server.step();
  drain_in_flight(server);
  server.step();
  a.wait();
  b.wait();
  EXPECT_EQ(s.stats().forwarded, 2u);
  EXPECT_EQ(s.stats().batched, 0u);
}

// ----- in-order streams ----------------------------------------------------------

TEST(Serve, InOrderTenantSerializesWithoutExplicitDeps) {
  ServeFixture f;
  Server server(f.ctx);
  Session s = server.create_session({.name = "t0", .in_order = true});
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
  std::vector<float> host_in(kN, 3.0f), host_out(kN, 0.0f);

  // No dep tickets: the tenant's in-order stream is the ordering.
  s.submit_write(in, 0, kN * 4, host_in.data());
  s.submit(square_launch(in, out, kN));
  Ticket r = s.submit_read(out, 0, kN * 4, host_out.data());
  r.wait();
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(host_out[i], 9.0f) << i;
  s.finish();
}

// ----- multi-tenant stress -------------------------------------------------------

/// Eight tenants, each a client thread running dependent
/// write -> square -> read chains through bounded Block-admission streams.
/// Exercises admission blocking, WFQ under concurrency, the dep-wake path,
/// and completion accounting; runs under TSan via the `serve` label.
TEST(Serve, MultiTenantStressNoLostTickets) {
  ServeFixture f;
  Server server(f.ctx);
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kIters = 50;

  std::vector<Session> sessions;
  for (std::size_t t = 0; t < kTenants; ++t) {
    sessions.push_back(server.create_session(
        {.name = "tenant" + std::to_string(t),
         .weight = static_cast<double>(1 + t % 3),
         .max_queue_depth = 16}));
  }

  std::vector<std::thread> clients;
  std::vector<int> failures(kTenants, 0);
  for (std::size_t t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      Session s = sessions[t];
      ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * 4);
      ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * 4);
      std::vector<float> host_in(kN), host_out(kN);
      Ticket last, prev_write;
      for (std::size_t i = 0; i < kIters; ++i) {
        // The previous write's async memcpy may still be reading host_in;
        // the chain deps below only order the device-side commands.
        if (prev_write.valid()) prev_write.wait();
        for (std::size_t j = 0; j < kN; ++j) {
          host_in[j] = static_cast<float>(t + i + j);
        }
        std::vector<Ticket> chain_dep;
        if (last.valid()) chain_dep.push_back(last);
        Ticket w = s.submit_write(in, 0, kN * 4, host_in.data(), chain_dep);
        prev_write = w;
        Ticket l = s.submit(square_launch(in, out, kN), {w});
        last = s.submit_read(out, 0, kN * 4, host_out.data(), {l});
      }
      last.wait();
      for (std::size_t j = 0; j < kN; ++j) {
        const float x = static_cast<float>(t + (kIters - 1) + j);
        if (host_out[j] != x * x) failures[t]++;
      }
      s.finish();
    });
  }
  for (std::thread& c : clients) c.join();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.in_flight, 0u);
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(failures[t], 0) << "tenant " << t;
    const SessionStats& ts = st.tenants[t];
    EXPECT_EQ(ts.submitted, kIters * 3);
    EXPECT_EQ(ts.completed, kIters * 3);
    EXPECT_EQ(ts.failed, 0u);
    EXPECT_EQ(ts.outstanding, 0u);
  }
}

// ----- config validation ---------------------------------------------------------

TEST(Serve, RejectsInvalidTenantConfig) {
  ServeFixture f;
  Server server(f.ctx);
  EXPECT_THROW((void)server.create_session({.name = ""}), core::Error);
  EXPECT_THROW((void)server.create_session({.name = "t", .weight = 0.0}),
               core::Error);
  EXPECT_THROW(
      (void)server.create_session({.name = "t", .max_queue_depth = 0}),
      core::Error);
  const Session a = server.create_session({.name = "dup"});
  EXPECT_EQ(a.tenant_name(), "dup");
  EXPECT_THROW((void)server.create_session({.name = "dup"}), core::Error);
}

}  // namespace
}  // namespace mcl::serve
