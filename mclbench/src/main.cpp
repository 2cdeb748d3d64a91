// mclbench — the repository's benchmark. Three workloads drive the runtime's
// public entry points; each run prints every end-to-end metric by name with
// its unit, checks the outputs, and writes one JSON document. A traced run
// (--layers) reports per-layer metrics instead, from a traced repeat of the
// workload and the ladder (bench.hpp).
//
//   mclbench --workload launch_small|suite_default|serve_open|all
//            [--seed N] [--duration S] [--layers] [--out DIR]
//
// Exit status: 0 when every op and output check succeeded, 1 otherwise, 2 on
// a usage error.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/sysinfo.hpp"
#include "ocl/platform.hpp"
#include "tune/tune.hpp"

extern char** environ;

namespace mclbench {
namespace {

const char* const kWorkloads[] = {"launch_small", "suite_default",
                                  "serve_open"};

/// Telemetry and fault-injection switches that would perturb or break a
/// measurement; every workload runs with them removed.
const char* const kRemovedEnv[] = {"MCL_TRACE",        "MCL_PROF",
                                   "MCL_OBS",          "MCL_OBS_INJECT",
                                   "MCL_CHECK_INJECT", "MCL_TUNE_CACHE"};

/// Set-ups behind setup_s: this run's own and kSetups - 1 setup-only child
/// processes. A single process start varies by 10-20%.
constexpr int kSetups = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double duration = 36.0;
  bool layers = false;
  bool setup_only = false;
  std::string out = "mclbench-out";
};

/// CPU-device pool workers; the calling thread joins every launch. The
/// suite's blocking launches run on the caller and the pool alone, so three
/// workers fill a 4-vCPU host. launch_small and serve_open also run the
/// event-graph executor, the serve scheduler and completion callbacks, so
/// they get two workers and leave one vCPU to those threads. Each choice
/// was the faster of the two on such a host, and no less steady (README.md).
std::size_t pool_threads_for(const std::string& workload) {
  return workload == "suite_default" ? 3 : 2;
}

/// Puts this process's environment in the state `workload` runs under;
/// returns true when anything changed.
bool sanitize_env(const std::string& workload) {
  bool changed = false;
  const std::string threads = std::to_string(pool_threads_for(workload));
  const std::pair<const char*, const char*> wanted[] = {
      {"MCL_CPU_THREADS", threads.c_str()}, {"MCL_TUNE", "off"}};
  for (const auto& [name, value] : wanted) {
    const char* cur = std::getenv(name);
    if (cur == nullptr || std::strcmp(cur, value) != 0) {
      setenv(name, value, 1);
      changed = true;
    }
  }
  for (const char* name : kRemovedEnv) {
    if (std::getenv(name) != nullptr) {
      unsetenv(name);
      changed = true;
    }
  }
  return changed;
}

/// Runs this binary with `args` in a child process and waits for it. When
/// `captured` is non-null the child's stdout is collected there. Returns the
/// exit status (128 + signal when killed, -1 when it could not start).
int spawn_self(const std::vector<std::string>& args, std::string* captured) {
  std::vector<char*> argv{const_cast<char*>("mclbench")};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2] = {-1, -1};
  if (captured != nullptr && pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (captured != nullptr) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
  }
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (captured != nullptr) {
    close(fds[1]);
    char buf[4096];
    ssize_t n = 0;
    while (rc == 0 && ((n = read(fds[0], buf, sizeof buf)) > 0 ||
                       (n < 0 && errno == EINTR))) {
      if (n > 0) captured->append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
  }
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string git_commit() {
  const std::string root = MCLBENCH_ROOT;
  if (!std::filesystem::exists(root + "/.git")) return "unknown";
  std::string out;
  if (FILE* p = popen(("git -C '" + root + "' rev-parse HEAD 2>/dev/null").c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Peak resident set of this process image in MiB. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the pages of the image this
/// one was exec'd from (a forking parent's, or this binary's pre-exec self).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "launch_small") return make_launch_small(seed);
  if (name == "serve_open") return make_serve_open(seed);
  return make_suite(seed);
}

/// The number after `"key":` in `json`; false when the key is missing.
bool json_value(const std::string& json, const std::string& key, double& out) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.rfind(tag);
  if (at == std::string::npos) return false;
  out = std::strtod(json.c_str() + at + tag.size(), nullptr);
  return true;
}

/// Median setup time over this run and kSetups - 1 setup-only child
/// processes, each measured from the start of its own main(), among the
/// set-ups least_stolen() keeps.
double median_setup_s(const Options& opt, double own, double own_steal,
                      Report& rep) {
  std::vector<double> values{own}, steal{own_steal};
  for (int i = 0; i < kSetups - 1; ++i) {
    std::string out;
    const int rc = spawn_self({"--workload", opt.workload, "--seed",
                               std::to_string(opt.seed), "--setup-only"},
                              &out);
    double v = 0.0, s = 0.0;
    if (rc != 0 || !json_value(out, "setup_s", v) ||
        !json_value(out, "steal_frac", s)) {
      rep.fail("setup-only run exited with status " + std::to_string(rc));
      continue;
    }
    values.push_back(v);
    steal.push_back(s);
  }
  std::vector<double> used;
  for (const std::size_t i : least_stolen(steal)) used.push_back(values[i]);
  std::sort(used.begin(), used.end());
  rep.diag("setup_runs", static_cast<double>(values.size()), "count");
  rep.diag("setup_runs_used", static_cast<double>(used.size()), "count");
  return used[(used.size() - 1) / 2];
}

void add_pass_metrics(Pass& p, Report& rep) {
  rep.attempted += p.attempted;
  rep.failed += p.failed;
  rep.e2e("ops_per_s", p.ops_per_s, "ops/s", "higher", kTimeBound);
  rep.e2e("latency_p50_us", p.p50_us, "us", "lower", kTimeBound);
  rep.e2e("latency_p90_us", p.p90_us, "us", "lower", kTimeBound);
  // p99 and p99.9 over the whole pass do not repeat from run to run on a
  // small shared host; they are diagnostics, with the samples behind them.
  rep.diag("latency_p99_us", rank_us(p.ns.begin(), p.ns.end(), 99), "us");
  rep.diag("latency_p999_us", rank_us(p.ns.begin(), p.ns.end(), 99.9), "us");
  rep.diag("samples", static_cast<double>(p.ns.size()), "count");
  rep.diag("windows", static_cast<double>(p.windows), "count");
  rep.diag("windows_used", static_cast<double>(p.windows_used), "count");
  rep.diag("steal_frac", p.steal_frac, "ratio");
}

std::string metrics_json(const std::vector<Report::Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Report::Metric& m = ms[i];
    if (i > 0) s += ',';
    s += json_str(m.name) + ":{\"value\":" + json_num(m.value) +
         ",\"unit\":" + json_str(m.unit);
    if (!m.better.empty()) s += ",\"better\":" + json_str(m.better);
    if (m.bound >= 0.0) s += ",\"bound\":" + json_num(m.bound);
    s += "}";
  }
  return s + "}";
}

std::string document(const Options& opt, const Report& rep) {
  const mcl::core::HostInfo host = mcl::core::probe_host();
  std::string d = "{\"mclbench\":1,\"workload\":" + json_str(opt.workload) +
                  ",\"mode\":" + json_str(opt.layers ? "layers" : "run") +
                  ",\"correct\":" +
                  (rep.failed == 0 && rep.errors.empty() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(rep.attempted) +
                  ",\"failed\":" + std::to_string(rep.failed) +
                  ",\"end_to_end\":" + metrics_json(rep.end_to_end) +
                  ",\"layers\":" + metrics_json(rep.layers) +
                  ",\"diagnostics\":" + metrics_json(rep.diagnostics);
  d += ",\"provenance\":{\"seed\":" + std::to_string(opt.seed) +
       ",\"duration_s\":" + json_num(opt.duration) +
       ",\"host\":" + json_str(host.cpu_model) +
       ",\"nproc\":" + std::to_string(host.logical_cpus) +
       ",\"commit\":" + json_str(git_commit()) +
       ",\"pool_threads\":" +
       std::to_string(mcl::ocl::Platform::default_instance().cpu().compute_units()) +
       ",\"tune_mode\":" +
       json_str(mcl::tune::to_string(mcl::tune::Tuner::instance().mode())) +
       ",\"env\":{";
  const char* shown[] = {"MCL_CPU_THREADS", "MCL_TUNE"};
  for (std::size_t i = 0; i < std::size(shown); ++i) {
    const char* v = std::getenv(shown[i]);
    if (i > 0) d += ',';
    d += json_str(shown[i]) + ":" + json_str(v ? v : "");
  }
  d += "}";
  for (const auto& [k, v] : rep.provenance) {
    d += ',';
    d += json_str(k) + ":" + json_str(v);
  }
  d += "},\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i > 0) d += ',';
    d += json_str(rep.errors[i]);
  }
  return d + "]}";
}

void print_metrics(const char* title, const std::vector<Report::Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const Report::Metric& m : ms) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Prints and writes the run's document; returns the exit status.
int finish(const Options& opt, const Report& rep, const SpanLog& spans) {
  const std::string doc = document(opt, rep);
  const std::string stem = opt.out + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + (opt.layers ? "-layers" : "");
  std::error_code ec;
  std::filesystem::create_directories(opt.out, ec);
  std::ofstream(stem + ".json") << doc << "\n";
  if (opt.layers && !spans.write_chrome(stem + ".trace.json")) {
    std::fprintf(stderr, "mclbench: cannot write %s.trace.json\n", stem.c_str());
  }
  std::printf("mclbench %s seed=%llu %s: attempted=%llu failed=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.layers ? "layers" : "run",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  print_metrics("end-to-end:", rep.end_to_end);
  print_metrics("layers:", rep.layers);
  print_metrics("diagnostics:", rep.diagnostics);
  for (const std::string& e : rep.errors) std::printf("FAILED: %s\n", e.c_str());
  std::printf("%s\n", doc.c_str());
  std::fflush(stdout);
  return rep.failed == 0 && rep.errors.empty() ? 0 : 1;
}

/// `steal_main` is host_steal_s() at `t_main`.
int run_one(const Options& opt, std::uint64_t t_main, double steal_main) {
  Report rep;
  SpanLog spans;
  std::unique_ptr<Workload> w;
  double setup_s = 0.0;
  double setup_steal = 0.0;
  try {
    w = make_workload(opt.workload, opt.seed);
    w->setup();
    setup_s = static_cast<double>(now_ns() - t_main) / 1e9;
    setup_steal = steal_share(host_steal_s() - steal_main, setup_s);
    if (opt.setup_only) {
      std::printf("{\"setup_s\":%s,\"steal_frac\":%s}\n",
                  json_num(setup_s).c_str(), json_num(setup_steal).c_str());
      std::fflush(stdout);
      if (w->stuck()) std::_Exit(1);
      return 0;
    }
    if (!opt.layers) {
      Pass p = w->run_pass(opt.duration, nullptr);
      add_pass_metrics(p, rep);
      w->report_run(rep);
      w->check(rep);
    } else {
      // Untraced and traced halves of the same pass length: their p50s give
      // the tracing overhead. The ladder takes the other half of the time.
      Pass untraced = w->run_pass(opt.duration / 4, nullptr);
      Pass traced = w->run_pass(opt.duration / 4, &spans);
      for (const Pass* p : {&untraced, &traced}) {
        rep.attempted += p->attempted;
        rep.failed += p->failed;
      }
      rep.layer("trace.overhead_frac",
                untraced.p50_us > 0.0 ? traced.p50_us / untraced.p50_us - 1.0 : 0.0,
                "ratio");
      w->report_layers(rep);
      run_ladder(w->ladder_op(), opt.duration / 2, rep);
      w->check(rep);
    }
  } catch (const std::exception& e) {
    rep.fail(std::string("run: ") + e.what());
  }
  if (w != nullptr && w->stuck()) {
    // A request never completed; destroying the workload would wait on it.
    finish(opt, rep, spans);
    std::_Exit(1);
  }
  w.reset();
  if (!opt.layers) {
    // fail_frac is not a bound metric: it is 0 on a healthy run, and any
    // increase is a regression (compare.py).
    rep.e2e("fail_frac",
            rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 1.0,
            "ratio", "lower", 0.0);
    rep.e2e("setup_s", median_setup_s(opt, setup_s, setup_steal, rep), "s",
            "lower", kTimeBound);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "lower", kMemoryBound);
  }
  return finish(opt, rep, spans);
}

/// Runs every workload, each in a fresh child process of this binary.
int run_all(const Options& opt) {
  int status = 0;
  for (const char* w : kWorkloads) {
    std::vector<std::string> args = {
        "--workload", w, "--seed", std::to_string(opt.seed), "--duration",
        json_num(opt.duration), "--out", opt.out};
    if (opt.layers) args.push_back("--layers");
    std::fflush(stdout);
    const int rc = spawn_self(args, nullptr);
    if (rc != 0) {
      std::printf("mclbench: workload %s exited with status %d\n", w, rc);
      status = 1;
    }
  }
  return status;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mclbench: %s\n"
               "usage: mclbench --workload "
               "launch_small|suite_default|serve_open|all\n"
               "                [--seed N] [--duration S] [--layers] "
               "[--out DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace mclbench

int main(int argc, char** argv) {
  using namespace mclbench;
  const std::uint64_t t_main = now_ns();
  const double steal_main = host_steal_s();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--layers") {
      opt.layers = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (!has_value) {
      return usage(("missing value or unknown flag " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration") {
      opt.duration = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out") {
      opt.out = argv[++i];
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(opt.duration > 0.0 && opt.duration <= 600.0)) {
    return usage("--duration must be in (0, 600]");
  }
  if (opt.workload == "all") return run_all(opt);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    return usage("--workload is required and must name a workload");
  }
  // The runtime reads MCL_* at static initialisation and on first use, so
  // a changed environment only takes effect in a fresh image of the binary.
  if (sanitize_env(opt.workload)) {
    execv("/proc/self/exe", argv);
    std::perror("mclbench: execv");
    return 2;
  }
  return run_one(opt, t_main, steal_main);
}
