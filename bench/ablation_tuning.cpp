// mcltune ablation — does the closed measurement->policy loop actually pay?
//
// For every fig workload + Table 2/3 app, four arms on the CPU device:
//
//   paper-default : MCL_TUNE=off, Auto executor, NULL local — exactly what
//                   every figure bench launches today;
//   best-manual   : exhaustive sweep over the explicit executor x workgroup
//                   configurations a careful human would try (the paper's
//                   hand-tuning methodology), keep the fastest;
//   tuned-seed    : MCL_TUNE=seed — the cost model's top-ranked config,
//                   zero measurements taken;
//   tuned-online  : MCL_TUNE=online — repeated single launches until the
//                   tuner converges (bounded explore/exploit), then the
//                   steady-state time under the incumbent. `converged_at`
//                   records how many launches convergence took.
//
// Every arm reports its median single-launch time over the measurement
// window, so one descheduled launch cannot decide a comparison.
//
// Writes BENCH_tune.json: one JSON object with an "mcltune" version marker
// (validated by tools/plot_results.py --check, smoke-run by tools/tier1.sh).
// The check asserts tuned arms are no worse than paper-default within noise
// and that online converges within the launch budget on >= 3 workloads.
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps_setup.hpp"
#include "core/sysinfo.hpp"
#include "tune/tune.hpp"

namespace {

using namespace mcl;

struct Options {
  bool quick = false;
  bool full = false;
  std::uint64_t seed = 42;
  std::size_t threads = 0;      // 0 = one worker per logical CPU
  int repeats = 50;             // online-arm launch budget
  std::string json = "BENCH_tune.json";
};

struct ArmResult {
  double ms = 0.0;
  std::string config;
};

struct WorkloadResult {
  std::string name;
  std::string global;
  ArmResult paper_default;
  ArmResult best_manual;
  ArmResult tuned_seed;
  ArmResult tuned_online;
  int converged_at = 0;       // launches until the tuner converged (0 = never)
  std::uint64_t explore = 0;  // exploration launches the online arm spent
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Exactly one untimed-warmup-free launch per measurement.
core::MeasureOptions one_launch() {
  core::MeasureOptions one;
  one.min_time = 0.0;
  one.warmup_iters = 0;
  one.min_iters = 1;
  one.max_iters = 1;
  return one;
}

/// An arm's time in ms: the median single launch over `opts`. A mean over
/// the same launches moves with one descheduled launch; the median does not.
double median_ms(bench::AppDriver& app, ocl::CommandQueue& q,
                 const ocl::NDRange& local, const core::MeasureOptions& opts) {
  const core::MeasureOptions one = one_launch();
  return core::measure_reported([&] { return app.time(q, local, one); }, opts)
             .per_iter_stats.median *
         1e3;
}

/// One timed arm on a fresh device/context/queue (mirrors
/// ablation_executors: per-config device so executor/scheduler state never
/// leaks between arms).
double time_arm(const std::function<std::unique_ptr<bench::AppDriver>()>& make,
                const ocl::CpuDeviceConfig& cfg, const ocl::NDRange& local,
                const core::MeasureOptions& opts) {
  ocl::CpuDevice device(cfg);
  ocl::Context ctx(device);
  ocl::CommandQueue q(ctx);
  std::unique_ptr<bench::AppDriver> app = make();
  return median_ms(*app, q, local, opts);
}

/// Candidate explicit workgroup sizes for the manual sweep (NULL first: the
/// runtime default is itself a manual choice). Filtered to legal divisors.
std::vector<ocl::NDRange> manual_locals(const ocl::NDRange& global) {
  std::vector<ocl::NDRange> out;
  out.push_back(ocl::NDRange{});
  auto divides = [&](const ocl::NDRange& l) {
    for (std::size_t d = 0; d < global.dims; ++d) {
      if (l[d] == 0 || global[d] % l[d] != 0) return false;
    }
    return true;
  };
  if (global.dims == 1) {
    for (std::size_t w : {64, 128, 256, 512}) {
      ocl::NDRange l{w};
      if (divides(l)) out.push_back(l);
    }
  } else if (global.dims == 2) {
    for (std::size_t w : {8, 16, 32}) {
      ocl::NDRange l(w, w);
      if (divides(l)) out.push_back(l);
    }
  }
  return out;
}

WorkloadResult run_workload(
    const std::function<std::unique_ptr<bench::AppDriver>()>& make,
    const Options& opt, const core::MeasureOptions& opts) {
  tune::Tuner& tuner = tune::Tuner::instance();
  WorkloadResult r;
  {
    std::unique_ptr<bench::AppDriver> probe = make();
    r.name = probe->name();
    r.global = bench::range_str(probe->global());
  }

  ocl::CpuDeviceConfig base;
  base.threads = opt.threads;

  // Arm 1: paper default (tuning off, Auto executor, NULL local).
  tuner.set_mode(tune::Mode::Off);
  r.paper_default.ms = time_arm(make, base, ocl::NDRange{}, opts);
  r.paper_default.config = "auto/NULL";

  // Arm 2: best manual — sweep explicit executors x workgroup sizes, keep
  // the fastest. Barrier kernels only run under Auto(->Fiber); Simd needs a
  // registered simd form.
  {
    std::unique_ptr<bench::AppDriver> probe = make();
    const ocl::KernelDef& def = probe->kernel().def();
    std::vector<std::pair<const char*, ocl::ExecutorKind>> execs;
    if (def.needs_barrier) {
      execs.emplace_back("auto", ocl::ExecutorKind::Auto);
    } else {
      execs.emplace_back("loop", ocl::ExecutorKind::Loop);
      if (def.simd != nullptr) execs.emplace_back("simd", ocl::ExecutorKind::Simd);
    }
    const std::vector<ocl::NDRange> locals = manual_locals(probe->global());
    r.best_manual.ms = 0.0;
    for (const auto& [elabel, ekind] : execs) {
      for (const ocl::NDRange& local : locals) {
        ocl::CpuDeviceConfig cfg = base;
        cfg.executor = ekind;
        const double ms = time_arm(make, cfg, local, opts);
        if (r.best_manual.ms == 0.0 || ms < r.best_manual.ms) {
          r.best_manual.ms = ms;
          r.best_manual.config =
              std::string(elabel) + "/" + bench::range_str(local);
        }
      }
    }
  }

  // Arm 3: tuned, seed mode — cost-model ranking only, no measurements.
  tuner.reset();
  tuner.set_mode(tune::Mode::Seed);
  r.tuned_seed.ms = time_arm(make, base, ocl::NDRange{}, opts);

  // Arm 4: tuned, online mode — single launches until the entry converges,
  // then the steady-state time under the incumbent config.
  tuner.reset();
  tuner.reset_stats();
  tuner.set_mode(tune::Mode::Online);
  // The tuner keys entries on whether the launch binds local memory (tiled
  // Matrixmul does, from its first launch on), so every query below must
  // name the entry the launches tuned.
  bool has_local_args = false;
  {
    ocl::CpuDevice device(base);
    ocl::Context ctx(device);
    ocl::CommandQueue q(ctx);
    std::unique_ptr<bench::AppDriver> app = make();
    const std::size_t threads = static_cast<std::size_t>(device.compute_units());
    const core::MeasureOptions one_shot = one_launch();
    for (int i = 1; i <= opt.repeats; ++i) {
      (void)app->time(q, ocl::NDRange{}, one_shot);
      has_local_args = app->kernel().args().total_local_bytes() > 0;
      if (tuner.converged(app->kernel().def().name, app->global(),
                          ocl::NDRange{}, threads, has_local_args)) {
        r.converged_at = i;
        break;
      }
    }
    r.explore = tuner.stats().explore;
    r.tuned_online.ms = median_ms(*app, q, ocl::NDRange{}, opts);
    // Report the configs the tuner settled on (online: the measured
    // incumbent; seed: what the pure ranking would pick).
    if (auto cfg = tuner.tuned_config(app->kernel().def(), app->global(),
                                      ocl::NDRange{}, has_local_args,
                                      threads)) {
      r.tuned_online.config = cfg->to_string();
    }
  }
  tuner.set_mode(tune::Mode::Seed);
  {
    // Seed-mode config string from a fresh ranking (entry state cleared so
    // online measurements don't leak into the seed arm's label).
    tune::Tuner& t = tuner;
    std::unique_ptr<bench::AppDriver> probe = make();
    ocl::CpuDevice device(base);
    const std::size_t threads = static_cast<std::size_t>(device.compute_units());
    t.reset();
    if (auto cfg = t.tuned_config(probe->kernel().def(), probe->global(),
                                  ocl::NDRange{}, has_local_args, threads)) {
      r.tuned_seed.config = cfg->to_string();
    }
  }
  tuner.set_mode(tune::Mode::Off);
  return r;
}

void write_json(const Options& opt, const core::MeasureOptions& opts,
                const std::vector<WorkloadResult>& results) {
  const core::HostInfo host = core::probe_host();
  std::ostringstream out;
  out << "{\n  \"mcltune\": 1,\n";
  out << "  \"bench\": \"ablation_tuning\",\n";
  out << "  \"meta\": {\"host\": \"" << json_escape(host.cpu_model)
      << "\", \"logical_cpus\": " << host.logical_cpus << ", \"simd\": \""
      << json_escape(host.simd_isa) << "\", \"threads\": "
      << (opt.threads == 0 ? static_cast<std::size_t>(host.logical_cpus)
                           : opt.threads)
      << ", \"seed\": " << opt.seed << ", \"repeats\": " << opt.repeats
      << ", \"min_time\": " << opts.min_time
      << ", \"quick\": " << (opt.quick ? "true" : "false")
      << ", \"full\": " << (opt.full ? "true" : "false") << "},\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    out << "    {\"name\": \"" << json_escape(r.name) << "\", \"global\": \""
        << r.global << "\",\n"
        << "     \"paper_default_ms\": " << r.paper_default.ms
        << ", \"best_manual_ms\": " << r.best_manual.ms
        << ", \"tuned_seed_ms\": " << r.tuned_seed.ms
        << ", \"tuned_online_ms\": " << r.tuned_online.ms << ",\n"
        << "     \"converged_at\": " << r.converged_at
        << ", \"explore_launches\": " << r.explore << ",\n"
        << "     \"best_manual_config\": \"" << json_escape(r.best_manual.config)
        << "\", \"tuned_seed_config\": \"" << json_escape(r.tuned_seed.config)
        << "\", \"tuned_online_config\": \""
        << json_escape(r.tuned_online.config) << "\"}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::ofstream f(opt.json);
  f << out.str();
  if (f) {
    std::cout << "wrote " << opt.json
              << " (validate with tools/plot_results.py --check)\n";
  } else {
    std::cerr << "failed to write " << opt.json << "\n";
  }
}

int run(const Options& opt) {
  core::MeasureOptions opts =
      opt.quick ? core::MeasureOptions::quick() : core::MeasureOptions{};

  const std::size_t vec_n =
      opt.quick ? (1u << 17) : (opt.full ? (1u << 23) : (1u << 20));
  const std::size_t mm = opt.quick ? 128 : (opt.full ? 512 : 256);
  const std::size_t bs = opt.quick ? 128 : (opt.full ? 1024 : 512);
  const std::uint64_t seed = opt.seed;

  using Make = std::function<std::unique_ptr<bench::AppDriver>()>;
  const std::vector<Make> workloads = {
      [=] { return std::make_unique<bench::SquareDriver>(vec_n, seed); },
      [=] { return std::make_unique<bench::VectorAddDriver>(vec_n, seed); },
      [=] {
        return std::make_unique<bench::MatMulDriver>(false, mm, mm, mm, seed);
      },
      [=] {
        return std::make_unique<bench::MatMulDriver>(true, mm, mm, mm, seed);
      },
      [=] { return std::make_unique<bench::BlackScholesDriver>(bs, bs, seed); },
  };

  std::vector<WorkloadResult> results;
  core::Table t("Ablation - self-tuning (mcltune)",
                {"workload", "global", "paper default ms", "best manual ms",
                 "tuned seed ms", "tuned online ms", "converged at",
                 "online config"});
  for (const Make& make : workloads) {
    WorkloadResult r = run_workload(make, opt, opts);
    t.add_row({r.name, r.global, r.paper_default.ms, r.best_manual.ms,
               r.tuned_seed.ms, r.tuned_online.ms,
               static_cast<double>(r.converged_at), r.tuned_online.config});
    results.push_back(std::move(r));
  }
  t.emit("", "", "");
  write_json(opt, opts, results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--full") {
      opt.full = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(next("--seed"));
    } else if (a == "--threads") {
      opt.threads = std::stoul(next("--threads"));
    } else if (a == "--repeats") {
      opt.repeats = std::stoi(next("--repeats"));
    } else if (a == "--json") {
      opt.json = next("--json");
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "ablation_tuning: mcltune tuned vs paper-default vs best-manual\n"
             "  --quick          small sizes, short measurements\n"
             "  --full           paper-scale sizes\n"
             "  --seed N         input data seed (default 42)\n"
             "  --threads N      CPU-device workers (0 = all logical CPUs)\n"
             "  --repeats N      online-arm launch budget (default 50)\n"
             "  --json PATH      output document (default BENCH_tune.json)\n";
      return 0;
    } else {
      std::cerr << "unknown flag: " << a << " (see --help)\n";
      return 2;
    }
  }
  std::cout << "Ablation: self-tuning runtime (mcltune) vs manual configs\n";
  return run(opt);
}
