// Ablation — workgroup distribution policy: the central shared counter
// (what several CPU OpenCL runtimes shipped) vs TBB-style range splitting
// with work stealing (the default). Stealing trades one contended cache
// line for per-thread slices that stay the same across repeated launches —
// the counter's cost grows with workgroup count, i.e. exactly in the
// many-small-workgroups regime the paper's Fig 1/3 study.
#include <cstdio>

#include "apps_setup.hpp"

int main(int argc, char** argv) {
  using namespace mcl;
  bench::Env env;
  if (!env.init(argc, argv,
                "Ablation: central-counter vs work-stealing workgroup "
                "scheduling"))
    return 0;

  const std::size_t sq_n = env.size<std::size_t>(100'000, 1'000'000, 10'000'000);
  const std::size_t bs = env.size<std::size_t>(256, 512, 1280);

  core::Table t("Ablation - workgroup scheduler",
                {"benchmark", "local", "workgroups", "central ms",
                 "stealing ms", "stealing speedup", "imbalance c/s"});

  struct Config {
    int app;  // 0 = Square, 1 = Blackscholes
    ocl::NDRange local;
  };
  const Config configs[] = {
      {0, ocl::NDRange{10}},    // many tiny groups: scheduling-bound
      {0, ocl::NDRange{1000}},  // few large groups
      {1, ocl::NDRange(4, 4)},  // many medium 2D groups
      {1, ocl::NDRange(16, 16)},
  };

  for (const Config& cfg : configs) {
    double central = 0, stealing = 0;
    double imb_central = 1.0, imb_stealing = 1.0;
    std::size_t groups = 0;
    std::string name, local_str;
    for (threading::ScheduleStrategy strategy :
         {threading::ScheduleStrategy::CentralCounter,
          threading::ScheduleStrategy::WorkStealing}) {
      ocl::CpuDeviceConfig dev_cfg;
      dev_cfg.scheduler = strategy;
      ocl::CpuDevice device(dev_cfg);
      ocl::Context ctx(device);
      ocl::CommandQueue q(ctx);

      std::unique_ptr<bench::AppDriver> app;
      if (cfg.app == 0) {
        app = std::make_unique<bench::SquareDriver>(sq_n, env.seed());
      } else {
        app = std::make_unique<bench::BlackScholesDriver>(bs, bs, env.seed());
      }
      name = app->name();
      local_str = bench::range_str(cfg.local);
      groups = app->global().total() / cfg.local.total();

      const double time = app->time(q, cfg.local, env.opts());
      // One extra launch to sample the balance telemetry.
      app->kernel();  // keep args bound
      const ocl::Event ev = q.enqueue_ndrange(app->kernel(), app->global(),
                                              cfg.local);
      if (strategy == threading::ScheduleStrategy::CentralCounter) {
        central = time * 1e3;
        imb_central = ev.launch.schedule.imbalance;
      } else {
        stealing = time * 1e3;
        imb_stealing = ev.launch.schedule.imbalance;
      }
    }
    char imb[48];
    std::snprintf(imb, sizeof(imb), "%.2f / %.2f", imb_central, imb_stealing);
    t.add_row({name, local_str, static_cast<double>(groups), central, stealing,
               central / stealing, std::string(imb)});
  }
  t.emit(env.csv(), env.json(), env.md());
  return 0;
}
