// Ablation — the NULL-local-size policy (DESIGN.md: the CPU device grows a
// group-oblivious kernel's groups to the largest SIMD-aligned divisor of at
// most 4096 items that leaves 64 groups). Sweeps the base policy's old
// targets and explicit local sizes for Square and VectorAdd, showing where
// the shipped NULL lands relative to the best explicit size (the paper's
// point: a runtime's NULL is below peak, so programmers should set the
// local size explicitly).
#include "apps_setup.hpp"

namespace {

using namespace mcl;

/// Largest divisor of n that is <= target (the base policy's clamping rule).
std::size_t divisor_below(std::size_t n, std::size_t target) {
  for (std::size_t d = std::min(n, target); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Env env;
  if (!env.init(argc, argv, "Ablation: NULL-local-size policy targets"))
    return 0;

  ocl::Context ctx(env.platform().cpu());
  ocl::CommandQueue q(ctx);

  const std::size_t sq_n = env.size<std::size_t>(100'000, 1'000'000, 10'000'000);
  const std::size_t va_n = env.size<std::size_t>(110'000, 1'100'000, 11'445'000);

  core::Table t("Ablation - NULL local-size policy",
                {"benchmark", "policy", "resolved local", "ms/iter",
                 "vs best explicit"});

  for (int app_idx = 0; app_idx < 2; ++app_idx) {
    std::unique_ptr<bench::AppDriver> app;
    if (app_idx == 0) {
      app = std::make_unique<bench::SquareDriver>(sq_n, env.seed());
    } else {
      app = std::make_unique<bench::VectorAddDriver>(va_n, env.seed());
    }
    const std::size_t n = app->global()[0];

    // Best explicit local size over a coarse sweep.
    double best = 1e30;
    std::size_t best_local = 1;
    for (std::size_t target : {16u, 64u, 256u, 1024u, 4096u}) {
      const std::size_t local = divisor_below(n, target);
      const double time = app->time(q, ocl::NDRange{local}, env.opts());
      if (time < best) {
        best = time;
        best_local = local;
      }
    }
    t.add_row({std::string(app->name()),
               std::string("best explicit"),
               static_cast<double>(best_local), best * 1e3, 1.0});

    // Base-policy candidates (what pick_default_local would do with
    // different targets), plus the shipped NULL behavior, reported at the
    // local the device resolved it to.
    for (std::size_t target : {16u, 64u, 256u}) {
      const std::size_t local = divisor_below(n, target);
      const double time = app->time(q, ocl::NDRange{local}, env.opts());
      t.add_row({std::string(app->name()),
                 "policy target " + std::to_string(target),
                 static_cast<double>(local), time * 1e3, best / time});
    }
    const double null_time = app->time(q, ocl::NDRange{}, env.opts());
    const ocl::NDRange null_local =
        q.enqueue_ndrange(app->kernel(), app->global(), ocl::NDRange{})
            .launch.local_used;
    t.add_row({std::string(app->name()), std::string("NULL (shipped policy)"),
               static_cast<double>(null_local[0]), null_time * 1e3,
               best / null_time});
  }
  t.emit(env.csv(), env.json(), env.md());
  return 0;
}
