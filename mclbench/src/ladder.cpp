// The ladder: one op entered at each lower layer's public entry point, so
// the difference between adjacent rungs is that layer's own cost.
#include <algorithm>
#include <exception>
#include <set>

#include "bench.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "threading/thread_pool.hpp"

namespace mclbench {

namespace {

namespace ocl = mcl::ocl;

constexpr int kRungs = 7;
constexpr int kMinReps = 3;

/// Repeats `op` until `seconds` have passed, and at least kMinReps times.
template <typename Op>
void repeat(double seconds, Op&& op) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int rep = 0; rep < kMinReps || now_ns() < deadline; ++rep) op();
}

/// Whole-op samples plus per-key samples of one rung.
struct Rung {
  Samples op;
  std::map<std::string, Samples> by_key;
};

/// Device-rung observations per key (from LaunchResult).
struct DeviceObs {
  Samples kernel;  ///< LaunchResult::seconds
  Samples self;    ///< Device::launch wall time minus LaunchResult::seconds
  double local_items = 0.0;
  double imbalance = 0.0;
  std::size_t launches = 0;
  std::size_t groups = 1;  ///< of the last launch (same every launch)
  std::string picked;      ///< executor and local size of the last launch
};

/// Computed bytes one launch moves: each bound buffer once, capped at one
/// float per work-item (every Table II kernel touches at most that much of
/// each buffer). A count from sizes, not a measurement of traffic.
std::uint64_t launch_bytes(const LaunchItem& item) {
  std::set<const ocl::Buffer*> seen;
  std::uint64_t bytes = 0;
  const ocl::KernelArgs& args = item.kernel->args();
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    if (args.is_buffer(i) && seen.insert(args.buffer_object(i)).second) {
      bytes += std::min<std::uint64_t>(args.buffer_object(i)->size(),
                                       item.global.total() * sizeof(float));
    }
  }
  return bytes;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Times one call in nanoseconds.
template <typename Fn>
std::uint64_t timed(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

}  // namespace

void run_ladder(const std::vector<LaunchItem>& op, double seconds,
                Report& rep) {
  const double rung_s = seconds / kRungs;
  ocl::CpuDevice& device = ocl::Platform::default_instance().cpu();
  const auto workers = static_cast<std::size_t>(device.compute_units());
  ocl::Context context(device);
  ocl::CommandQueue queue(context);

  Rung cl, async, blocking, device_wall, pool, serial, reference;
  Samples enqueue, submit_wait, pool_wait, run, wake;  // CL stamp segments
  Samples op_kernel, op_self;
  std::map<std::string, DeviceObs> obs;
  std::uint64_t launches = 0;

  // Runs every item of the op through `launch` (which returns the item's
  // time in ns) and records per-key and whole-op samples.
  auto run_op = [&](Rung& rung, auto&& launch) {
    std::uint64_t total = 0;
    for (const LaunchItem& item : op) {
      const std::uint64_t ns = launch(item);
      rung.by_key[item.key].add(ns);
      total += ns;
      ++launches;
    }
    rung.op.add(total);
  };

  try {
    {
      ClMirror mirror;
      for (const LaunchItem& item : op) (void)mirror.kernel_for(*item.kernel);
      repeat(rung_s, [&] {
        std::uint64_t seg[5] = {0, 0, 0, 0, 0};
        run_op(cl, [&](const LaunchItem& item) -> std::uint64_t {
          ClStamps st;
          const cl_int err = cl_launch(mirror.queue(),
                                       mirror.kernel_for(*item.kernel),
                                       item.global, st, /*profile=*/true);
          if (err != CL_SUCCESS) {
            rep.fail("ladder cl " + item.key + ": CL error " +
                     std::to_string(err));
            return st.ret - st.call;
          }
          seg[0] += st.queued - st.call;
          seg[1] += st.submit - st.queued;
          seg[2] += st.start - st.submit;
          seg[3] += st.end - st.start;
          seg[4] += st.ret - st.end;
          return st.ret - st.call;
        });
        enqueue.add(seg[0]);
        submit_wait.add(seg[1]);
        pool_wait.add(seg[2]);
        run.add(seg[3]);
        wake.add(seg[4]);
      });
    }

    repeat(rung_s, [&] {
      run_op(async, [&](const LaunchItem& item) {
        return timed([&] {
          queue.enqueue_ndrange_async(*item.kernel, item.global)->wait();
        });
      });
    });

    repeat(rung_s, [&] {
      run_op(blocking, [&](const LaunchItem& item) {
        return timed([&] { (void)queue.enqueue_ndrange(*item.kernel, item.global); });
      });
    });

    repeat(rung_s, [&] {
      std::uint64_t kernel_sum = 0;
      std::uint64_t self_sum = 0;
      run_op(device_wall, [&](const LaunchItem& item) {
        ocl::LaunchResult r;
        const std::uint64_t wall = timed([&] {
          r = device.launch(item.kernel->def(), item.kernel->args(),
                            item.global, ocl::NDRange{});
        });
        const auto kernel_ns = static_cast<std::uint64_t>(r.seconds * 1e9);
        const std::uint64_t self = wall > kernel_ns ? wall - kernel_ns : 0;
        DeviceObs& o = obs[item.key];
        o.kernel.add(kernel_ns);
        o.self.add(self);
        o.local_items += static_cast<double>(r.local_used.total());
        o.imbalance += r.schedule.imbalance;
        ++o.launches;
        o.groups = std::max<std::size_t>(
            item.global.total() / std::max<std::size_t>(r.local_used.total(), 1),
            1);
        o.picked = picked_text(r.executor_used, r.local_used);
        kernel_sum += kernel_ns;
        self_sum += self;
        return wall;
      });
      op_kernel.add(kernel_sum);
      op_self.add(self_sum);
    });

    {
      // Same width and chunking as the CPU device's untuned pooled launch
      // (chunk = clamp(groups / (threads * 16), 1, 64)), with a no-op body.
      mcl::threading::ThreadPool no_op_pool(workers);
      const std::function<void(std::size_t)> no_op = [](std::size_t) {};
      repeat(rung_s, [&] {
        run_op(pool, [&](const LaunchItem& item) {
          const std::size_t groups = obs[item.key].groups;
          const std::size_t chunk =
              std::clamp<std::size_t>(groups / (workers * 16), 1, 64);
          return timed([&] { (void)no_op_pool.parallel_run(groups, no_op, chunk); });
        });
      });
    }

    {
      ocl::CpuDeviceConfig config;
      config.threads = 1;
      config.dispatch_order = [](std::size_t k, std::size_t) { return k; };
      ocl::CpuDevice serial_device(config);
      repeat(rung_s, [&] {
        run_op(serial, [&](const LaunchItem& item) {
          const ocl::LaunchResult r = serial_device.launch(
              item.kernel->def(), item.kernel->args(), item.global,
              ocl::NDRange{});
          return static_cast<std::uint64_t>(r.seconds * 1e9);
        });
      });
    }

    repeat(rung_s, [&] {
      run_op(reference, [&](const LaunchItem& item) { return timed(item.reference); });
    });
  } catch (const std::exception& e) {
    rep.fail(std::string("ladder: ") + e.what());
    return;
  }
  rep.attempted += launches;

  const double cl_us = cl.op.pct_us(50);
  const double async_us = async.op.pct_us(50);
  const double blocking_us = blocking.op.pct_us(50);
  const double kernel_us = op_kernel.pct_us(50);
  const double serial_us = serial.op.pct_us(50);
  const double reference_us = reference.op.pct_us(50);
  const double threads = static_cast<double>(workers + 1);
  std::uint64_t op_bytes = 0;
  double local_items = 0.0, imbalance = 0.0, device_launches = 0.0;
  for (const LaunchItem& item : op) op_bytes += launch_bytes(item);
  for (const auto& [_, o] : obs) {
    local_items += o.local_items;
    imbalance += o.imbalance;
    device_launches += static_cast<double>(o.launches);
  }

  rep.layer("cl.op_us", cl_us, "us");
  rep.layer("cl.self_us", cl_us - async_us, "us");
  rep.layer("cl.enqueue_us", enqueue.pct_us(50), "us");
  rep.layer("queue.async_us", async_us, "us");
  rep.layer("queue.graph_us", async_us - blocking_us, "us");
  rep.layer("queue.blocking_us", blocking_us, "us");
  rep.layer("queue.submit_wait_us", submit_wait.pct_us(50), "us");
  rep.layer("queue.pool_wait_us", pool_wait.pct_us(50), "us");
  rep.layer("queue.run_us", run.pct_us(50), "us");
  rep.layer("queue.wake_us", wake.pct_us(50), "us");
  rep.layer("layers.coverage",
            ratio(enqueue.pct_us(50) + submit_wait.pct_us(50) +
                      pool_wait.pct_us(50) + run.pct_us(50) + wake.pct_us(50),
                  cl_us),
            "ratio");
  rep.layer("device.launch_us", device_wall.op.pct_us(50), "us");
  rep.layer("device.self_us", op_self.pct_us(50), "us");
  rep.layer("device.kernel_us", kernel_us, "us");
  rep.layer("tune.local_items", ratio(local_items, device_launches), "items");
  rep.layer("pool.dispatch_us", pool.op.pct_us(50), "us");
  rep.layer("pool.imbalance", ratio(imbalance, device_launches), "ratio");
  rep.layer("executor.serial_us", serial_us, "us");
  rep.layer("executor.parallel_eff", ratio(serial_us, kernel_us * threads),
            "ratio");
  rep.layer("apps.reference_us", reference_us, "us");
  rep.layer("apps.dispatch_over_ref", ratio(serial_us, reference_us), "ratio");
  rep.layer("apps.gbps_computed",
            ratio(static_cast<double>(op_bytes), kernel_us * 1e3), "GB/s");

  for (auto& [key, o] : obs) {
    const double k_kernel_us = o.kernel.pct_us(50);
    const double k_serial_us = serial.by_key[key].pct_us(50);
    const double k_ref_us = reference.by_key[key].pct_us(50);
    const LaunchItem& item = *std::find_if(
        op.begin(), op.end(), [&](const LaunchItem& i) { return i.key == key; });
    const double n = static_cast<double>(o.launches);
    rep.layer(key + ".kernel_ms", k_kernel_us / 1e3, "ms");
    rep.layer(key + ".device_self_us", o.self.pct_us(50), "us");
    rep.layer(key + ".local_items", o.local_items / n, "items");
    rep.layer(key + ".imbalance", o.imbalance / n, "ratio");
    rep.layer(key + ".executor_serial_ms", k_serial_us / 1e3, "ms");
    rep.layer(key + ".parallel_eff", ratio(k_serial_us, k_kernel_us * threads),
              "ratio");
    rep.layer(key + ".reference_ms", k_ref_us / 1e3, "ms");
    rep.layer(key + ".dispatch_over_ref", ratio(k_serial_us, k_ref_us), "ratio");
    rep.layer(key + ".gbps_computed",
              ratio(static_cast<double>(launch_bytes(item)),
                    k_kernel_us * 1e3),
              "GB/s");
    rep.note(key + ".picked", o.picked);
  }
  const std::pair<const char*, const Rung*> rungs[] = {
      {"cl", &cl},         {"async", &async},   {"blocking", &blocking},
      {"device", &device_wall}, {"pool", &pool}, {"serial", &serial},
      {"reference", &reference}};
  for (const auto& [name, rung] : rungs) {
    rep.diag(std::string("ladder.") + name + "_ops",
             static_cast<double>(rung->op.size()), "count");
  }
}

}  // namespace mclbench
