// suite_default: closed-loop rounds of blocking
// CommandQueue::enqueue_ndrange launches of Table II kernels at default
// sizes with NULL local and MCL_TUNE=off — the paper-default path every
// figure measures. One round is 16x Square (1M), 16x VectorAdd (1M), 4x
// MatrixmulNaive (256^2), 1x Matrixmul tiled (256^2) and 6x Blackscholes
// (512^2); with these counts each kernel takes 13-35% of a round, so a
// change to any one of them shows.
#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>

#include "apps_setup.hpp"
#include "bench.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"

namespace mclbench {

namespace {

namespace apps = mcl::apps;
namespace ocl = mcl::ocl;
using mcl::bench::AppDriver;

constexpr std::size_t kVectorItems = std::size_t{1} << 20;
constexpr std::size_t kMatrix = 256;
constexpr std::size_t kOptions = 512;
constexpr int kWarmupRounds = 3;
constexpr float kRate = 0.02f;        // BlackScholesDriver's R argument
constexpr float kVolatility = 0.30f;  // BlackScholesDriver's V argument

std::span<float> floats(const AppDriver& d, std::size_t traffic_index) {
  ocl::Buffer* b = d.traffic()[traffic_index].first;
  return {b->as<float>(), b->size() / sizeof(float)};
}

class Suite final : public Workload {
 public:
  explicit Suite(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    add("square", 16,
        std::make_unique<mcl::bench::SquareDriver>(kVectorItems, seed_), {1},
        false, 0.0, [](Kern& k) {
          apps::square_reference(floats(*k.driver, 0), k.expected[0]);
        });
    add("vectoradd", 16,
        std::make_unique<mcl::bench::VectorAddDriver>(kVectorItems, seed_ + 100),
        {2}, false, 0.0, [](Kern& k) {
          apps::vectoradd_reference(floats(*k.driver, 0), floats(*k.driver, 1),
                                    k.expected[0]);
        });
    const auto matmul_reference = [](Kern& k) {
      apps::matmul_reference(floats(*k.driver, 0), floats(*k.driver, 1),
                             k.expected[0], kMatrix, kMatrix, kMatrix);
    };
    add("matrixmul_naive", 4,
        std::make_unique<mcl::bench::MatMulDriver>(false, kMatrix, kMatrix,
                                                   kMatrix, seed_ + 200),
        {2}, true, 1e-4, matmul_reference);
    add("matrixmul", 1,
        std::make_unique<mcl::bench::MatMulDriver>(true, kMatrix, kMatrix,
                                                   kMatrix, seed_ + 300),
        {2}, true, 1e-4, matmul_reference);
    // The tiled kernel's local-memory tiles for a NULL local size, as
    // MatMulDriver sizes them (16x16 floats each).
    for (std::size_t arg = 6; arg <= 8; ++arg) {
      kerns_.back().driver->kernel().set_arg_local(arg, 16 * 16 * 4);
    }
    add("blackscholes", 6,
        std::make_unique<mcl::bench::BlackScholesDriver>(kOptions, kOptions,
                                                         seed_ + 400),
        {3, 4}, false, 2e-4, [](Kern& k) {
          apps::blackscholes_reference(floats(*k.driver, 0), floats(*k.driver, 1),
                                       floats(*k.driver, 2), k.expected[0],
                                       k.expected[1], kRate, kVolatility);
        });
    for (int r = 0; r < kWarmupRounds; ++r) {
      if (!round(nullptr, 0)) throw std::runtime_error("warmup round failed");
    }
  }

  Pass run_pass(double seconds, SpanLog* spans) override {
    for (Kern& k : kerns_) k.wall = Samples{};
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    Pass p(t0, seconds, static_cast<std::size_t>(seconds * 200.0));
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      p.sample(now_ns());
      const std::uint64_t start = now_ns();
      const bool ok = round(spans, op);
      const std::uint64_t end = now_ns();
      ++p.attempted;
      if (!ok) {
        ++p.failed;
        continue;
      }
      p.record(end, end - start);
      if (spans != nullptr && spans->wants(op)) {
        spans->add(op, "op:round", start, end);
      }
    }
    p.finish();
    return p;
  }

  void report_run(Report& rep) override {
    for (Kern& k : kerns_) {
      rep.e2e(k.key + "_ms", k.wall.pct_us(50) / 1e3, "ms", "lower", kTimeBound);
      rep.note(k.key + ".picked", picked_text(k.picked_executor, k.picked_local));
    }
  }

  void check(Report& rep) override {
    for (Kern& k : kerns_) {
      k.reference(k);
      double dev = 0.0;
      for (std::size_t i = 0; i < k.outputs.size(); ++i) {
        const std::span<const float> got = floats(*k.driver, k.outputs[i]);
        dev = std::max(dev, k.relative ? apps::max_rel_diff(got, k.expected[i], 1.0)
                                       : apps::max_abs_diff(got, k.expected[i]));
      }
      if (!(dev <= k.tolerance)) {
        rep.fail(k.key + ": output differs from reference by " +
                 std::to_string(dev) + " (tolerance " +
                 std::to_string(k.tolerance) + ")");
      }
    }
  }

  std::vector<LaunchItem> ladder_op() override {
    std::vector<LaunchItem> op;
    for (Kern& k : kerns_) {
      for (int i = 0; i < k.per_round; ++i) {
        op.push_back({k.key, &k.driver->kernel(), k.driver->global(),
                      [&k] { k.reference(k); }});
      }
    }
    return op;
  }

 private:
  struct Kern {
    std::string key;
    int per_round = 1;
    std::unique_ptr<AppDriver> driver;
    /// Fills `expected` from the driver's inputs with the apps reference.
    std::function<void(Kern&)> reference;
    std::vector<std::size_t> outputs;  ///< traffic indices of the outputs
    std::vector<apps::FloatVec> expected;  ///< one per output
    /// Error relative to max(|expected|, 1) instead of absolute: a K=256 dot
    /// product's rounding depends on the executor's summation order, and
    /// a plain relative error is unbounded for results near zero.
    bool relative = false;
    double tolerance = 0.0;
    Samples wall;  ///< blocking-launch wall time of the current pass
    ocl::ExecutorKind picked_executor = ocl::ExecutorKind::Auto;  ///< last launch
    ocl::NDRange picked_local;                                    ///< last launch
  };

  void add(std::string key, int per_round, std::unique_ptr<AppDriver> driver,
           std::vector<std::size_t> outputs, bool relative, double tolerance,
           std::function<void(Kern&)> reference) {
    Kern& k = kerns_.emplace_back();
    k.key = std::move(key);
    k.per_round = per_round;
    k.driver = std::move(driver);
    for (std::size_t out : outputs) {
      k.expected.emplace_back(floats(*k.driver, out).size());
    }
    k.outputs = std::move(outputs);
    k.relative = relative;
    k.tolerance = tolerance;
    k.reference = std::move(reference);
  }

  /// One round; returns false when any launch threw.
  bool round(SpanLog* spans, std::uint64_t op) {
    bool ok = true;
    for (Kern& k : kerns_) {
      for (int i = 0; i < k.per_round; ++i) {
        const std::uint64_t t0 = now_ns();
        try {
          const ocl::Event ev =
              queue_.enqueue_ndrange(k.driver->kernel(), k.driver->global());
          const std::uint64_t t1 = now_ns();
          k.wall.add(t1 - t0);
          k.picked_executor = ev.launch.executor_used;
          k.picked_local = ev.launch.local_used;
          if (spans != nullptr && spans->wants(op)) {
            spans->add(op, "launch:" + k.key, t0, t1,
                       "\"kernel_us\":" + json_num(ev.launch.seconds * 1e6) +
                           ",\"local_items\":" +
                           std::to_string(ev.launch.local_used.total()) +
                           ",\"executor\":" +
                           json_str(executor_name(ev.launch.executor_used)));
          }
        } catch (const std::exception&) {
          ok = false;
        }
      }
    }
    return ok;
  }

  std::uint64_t seed_;
  ocl::Context context_{ocl::Platform::default_instance().cpu()};
  ocl::CommandQueue queue_{context_};
  std::vector<Kern> kerns_;
};

}  // namespace

std::unique_ptr<Workload> make_suite(std::uint64_t seed) {
  return std::make_unique<Suite>(seed);
}

}  // namespace mclbench
