// mclcheck: differential conformance fuzzer driver.
//
//   mclcheck [--cases N] [--seed S|clock] [--ulp U] [--budget-seconds T]
//            [--repro-dir DIR] [--no-gpusim] [--quiet]
//       Generate N seeded cases and run each through every backend (pooled,
//       simd, simd-plane, checked, gpusim, dispatch-order, rechunk,
//       null-local, split-oo, plan-flip)
//       against the scalar reference. On the first mismatch: minimize,
//       write a replayable .mclrepro file, print the diagnosis, exit 1.
//
//   mclcheck --replay FILE [--ulp U]
//       Parse, validate and re-run one repro file. Exit 0 when all backends
//       agree, 1 on a mismatch (printed), 2 on a parse/validation error.
//
//   mclcheck --dump-case SEED
//       Print the generated case and its lowered veclegal IR, then exit.
//
//   mclcheck --soundness [--cases N] [--seed S|clock] [--budget-seconds T]
//       mclverify soundness oracle: run every generated case under the
//       Checked executor with full replay forced and assert that no array
//       the static launch proof covers is ever flagged dynamically. Each
//       case is also rerun with one proven array's declared extent shrunk
//       to the exact boundary (replay must flag it, discharge must refuse
//       it). MCL_CHECK_INJECT=verify makes the discharge deliberately lax,
//       which this mode MUST report as a violation (self-test of the
//       oracle). Exit 0 sound, 1 violations, 2 usage/internal error.
//
// Exit codes: 0 all cases agree, 1 mismatch found, 2 usage/internal error.
//
// Tier-1 runs a fixed-seed 60-second-budget smoke of this tool
// (tools/tier1.sh); the nightly `ctest -C nightly -L fuzz` label runs it
// clock-seeded and longer. See docs/mclcheck.md.

#include <cstdint>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/differ.hpp"
#include "check/generator.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"
#include "check/soundness.hpp"
#include "core/error.hpp"
#include "core/time.hpp"
#include "veclegal/kernel_ir.hpp"
#include "verify/verify.hpp"

namespace {

using mcl::check::Case;
using mcl::check::DiffOptions;
using mcl::check::Mismatch;

struct Options {
  std::uint64_t cases = 500;
  std::uint64_t seed = 1;
  bool clock_seed = false;
  std::uint32_t ulp = 0;
  double budget_seconds = 0.0;  // 0 = unlimited
  std::string repro_dir = ".";
  std::string replay_file;
  bool dump_case = false;
  std::uint64_t dump_seed = 0;
  bool run_gpusim = true;
  bool quiet = false;
  bool soundness = false;
};

int usage() {
  std::cerr
      << "usage: mclcheck [--cases N] [--seed S|clock] [--ulp U]\n"
         "                [--budget-seconds T] [--repro-dir DIR]\n"
         "                [--no-gpusim] [--quiet]\n"
         "       mclcheck --replay FILE [--ulp U]\n"
         "       mclcheck --dump-case SEED\n"
         "       mclcheck --soundness [--cases N] [--seed S|clock]\n"
         "                [--budget-seconds T] [--quiet]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--cases") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.cases = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      if (std::string(v) == "clock") {
        opt.clock_seed = true;
      } else {
        opt.seed = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--ulp") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.ulp = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--budget-seconds") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.budget_seconds = std::strtod(v, nullptr);
    } else if (arg == "--repro-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.repro_dir = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.replay_file = v;
    } else if (arg == "--dump-case") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.dump_case = true;
      opt.dump_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--soundness") {
      opt.soundness = true;
    } else if (arg == "--no-gpusim") {
      opt.run_gpusim = false;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      std::cerr << "mclcheck: unknown option '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

int replay(const Options& opt) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::cerr << "mclcheck: cannot open '" << opt.replay_file << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto parsed = mcl::check::parse_repro(text.str(), &error);
  if (!parsed) {
    std::cerr << "mclcheck: bad repro file: " << error << "\n";
    return 2;
  }
  std::cout << mcl::check::describe(parsed->kase);
  DiffOptions diff;
  diff.ulp_tol = opt.ulp;
  diff.run_gpusim = opt.run_gpusim;
  if (const auto m = mcl::check::run_case(parsed->kase, diff)) {
    std::cout << "MISMATCH: " << m->to_string() << "\n";
    return 1;
  }
  std::cout << "all backends agree\n";
  return 0;
}

int fuzz(const Options& opt) {
  DiffOptions diff;
  diff.ulp_tol = opt.ulp;
  diff.run_gpusim = opt.run_gpusim;
  const std::uint64_t run_seed =
      opt.clock_seed ? static_cast<std::uint64_t>(std::time(nullptr))
                     : opt.seed;
  if (!opt.quiet) {
    std::cout << "mclcheck: " << opt.cases << " cases, seed " << run_seed
              << (opt.clock_seed ? " (clock)" : "") << ", ulp " << opt.ulp
              << "\n";
  }
  const mcl::core::TimePoint t0 = mcl::core::now();
  std::uint64_t ran = 0;
  std::uint64_t barrier_cases = 0;
  std::uint64_t guarded_cases = 0;
  for (std::uint64_t i = 0; i < opt.cases; ++i) {
    if (opt.budget_seconds > 0.0 &&
        mcl::core::elapsed_s(t0, mcl::core::now()) > opt.budget_seconds) {
      if (!opt.quiet) {
        std::cout << "mclcheck: budget reached after " << ran << " cases\n";
      }
      break;
    }
    const std::uint64_t cs = mcl::check::case_seed(run_seed, i);
    const Case c = mcl::check::generate_case(cs);
    barrier_cases += c.has_barrier() ? 1 : 0;
    guarded_cases +=
        c.work_items < static_cast<long long>(c.global) ? 1 : 0;
    ++ran;
    const auto mismatch = mcl::check::run_case(c, diff);
    if (!mismatch) continue;

    std::cout << "mclcheck: case " << i << " (seed " << cs
              << ") FAILED: " << mismatch->to_string() << "\n";
    std::cout << "mclcheck: minimizing...\n";
    mcl::check::ShrinkStats stats;
    const Case small = mcl::check::shrink_case(
        c,
        [&](const Case& cand) {
          return mcl::check::run_case(cand, diff).has_value();
        },
        400, &stats);
    const auto small_mismatch = mcl::check::run_case(small, diff);
    std::ostringstream note;
    note << "found by: mclcheck --cases " << opt.cases << " --seed "
         << run_seed << " (case " << i << ")\n";
    note << "mismatch: "
         << (small_mismatch ? small_mismatch->to_string()
                            : mismatch->to_string())
         << "\n";
    note << "shrink: " << stats.attempts << " attempts, " << stats.accepted
         << " accepted\n";
    std::istringstream desc(mcl::check::describe(small));
    for (std::string line; std::getline(desc, line);) note << line << "\n";

    const std::string path = opt.repro_dir + "/mclcheck-" +
                             std::to_string(run_seed) + "-" +
                             std::to_string(i) + ".mclrepro";
    std::ofstream out(path);
    out << mcl::check::serialize_repro(small, /*minimized=*/true, note.str());
    out.close();
    std::cout << "mclcheck: minimized to global=" << small.global
              << " local=" << small.local << " stmts=" << small.stmts.size()
              << " (" << stats.attempts << " shrink attempts)\n";
    std::cout << "mclcheck: repro written to " << path << "\n";
    std::cout << "mclcheck: replay with: tools/mclcheck --replay " << path
              << "\n";
    return 1;
  }
  if (!opt.quiet) {
    std::cout << "mclcheck: " << ran << " cases passed ("
              << barrier_cases << " barrier, " << guarded_cases
              << " guarded) in "
              << mcl::core::elapsed_s(t0, mcl::core::now()) << " s\n";
  }
  return 0;
}

int soundness(const Options& opt) {
  const std::uint64_t run_seed =
      opt.clock_seed ? static_cast<std::uint64_t>(std::time(nullptr))
                     : opt.seed;
  const bool injected = mcl::verify::inject_unsound();
  if (!mcl::verify::runtime_enabled()) {
    std::cerr << "mclcheck: --soundness is meaningless with MCL_VERIFY=off "
                 "(no proofs to check)\n";
    return 2;
  }
  if (!opt.quiet) {
    std::cout << "mclcheck: soundness oracle, " << opt.cases
              << " cases, seed " << run_seed
              << (opt.clock_seed ? " (clock)" : "")
              << (injected ? ", MCL_CHECK_INJECT=verify (expect violations)"
                           : "")
              << "\n";
  }
  const mcl::core::TimePoint t0 = mcl::core::now();
  mcl::check::SoundnessStats stats;
  for (std::uint64_t i = 0; i < opt.cases; ++i) {
    if (opt.budget_seconds > 0.0 &&
        mcl::core::elapsed_s(t0, mcl::core::now()) > opt.budget_seconds) {
      if (!opt.quiet) {
        std::cout << "mclcheck: budget reached after " << stats.cases
                  << " cases\n";
      }
      break;
    }
    const Case c =
        mcl::check::generate_case(mcl::check::case_seed(run_seed, i));
    (void)mcl::check::run_soundness_case(c, stats);
  }
  if (!opt.quiet) {
    std::cout << "mclcheck: " << stats.cases << " cases, " << stats.launches
              << " launches, " << stats.proven_arrays << " proven arrays ("
              << stats.fully_proven << " fully proven launches, "
              << stats.accesses_covered << " accesses exempted), "
              << stats.boundary_checks << " boundary variants, "
              << stats.violations << " violations in "
              << mcl::core::elapsed_s(t0, mcl::core::now()) << " s\n";
  }
  for (const std::string& f : stats.failures) {
    std::cout << "mclcheck: SOUNDNESS VIOLATION: " << f << "\n";
  }
  // Under the fault hook, violations are the PASS condition: the lax
  // discharge must be caught. Without it, any violation is a real unsound
  // proof.
  if (injected) {
    if (stats.sound()) {
      std::cout << "mclcheck: MCL_CHECK_INJECT=verify produced no violation "
                   "-- the soundness check cannot fail, which is itself a "
                   "failure\n";
      return 1;
    }
    std::cout << "mclcheck: injected unsoundness detected as expected\n";
    return 0;
  }
  return stats.sound() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  try {
    if (opt.dump_case) {
      const Case c = mcl::check::generate_case(opt.dump_seed);
      std::cout << mcl::check::describe(c);
      std::cout << mcl::veclegal::to_string(mcl::check::lower_to_ir(c));
      return 0;
    }
    if (!opt.replay_file.empty()) return replay(opt);
    if (opt.soundness) return soundness(opt);
    return fuzz(opt);
  } catch (const mcl::core::Error& e) {
    std::cerr << "mclcheck: " << e.what() << "\n";
    return 2;
  }
}
