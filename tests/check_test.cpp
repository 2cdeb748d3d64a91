// mclcheck conformance-fuzzer tests: generator determinism and validity,
// descriptor validation, hand-computed reference-oracle checks, a
// differential smoke over many seeds, repro-file round-trips, and the
// injected-chunker-bug acceptance path (catch -> minimize -> replay).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "check/case.hpp"
#include "check/differ.hpp"
#include "check/generator.hpp"
#include "check/reference.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"
#include "check/soundness.hpp"
#include "core/rng.hpp"
#include "ocl/types.hpp"
#include "simd/vec.hpp"
#include "testseed.hpp"

namespace mcl::check {
namespace {

// --- generator ----------------------------------------------------------------

TEST(Generator, DeterministicAndAlwaysValid) {
  for (std::uint64_t i = 0; i < 30; ++i) {
    const std::uint64_t cs = case_seed(7, i);
    const Case a = generate_case(cs);
    const Case b = generate_case(cs);
    EXPECT_EQ(a, b) << "seed " << cs;
    EXPECT_FALSE(validate(a).has_value()) << *validate(a);
    EXPECT_EQ(a.global % a.local, 0u);
  }
}

TEST(Generator, DistinctSeedsProduceDistinctCases) {
  const Case a = generate_case(case_seed(1, 0));
  const Case b = generate_case(case_seed(1, 1));
  EXPECT_NE(a, b);
}

TEST(Generator, CoversBarrierAndGuardedShapes) {
  int barrier = 0, guarded = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Case c = generate_case(case_seed(3, i));
    barrier += c.has_barrier() ? 1 : 0;
    guarded += c.work_items < static_cast<long long>(c.global) ? 1 : 0;
  }
  EXPECT_GT(barrier, 5);
  EXPECT_GT(guarded, 5);
}

// --- validate -----------------------------------------------------------------

/// Smallest well-formed case: A1[i] = add(init, A0[i]) over 4 items.
Case tiny_case(Ty type) {
  Case c;
  c.type = type;
  c.global = 4;
  c.local = 2;
  c.work_items = 4;
  c.arrays.push_back(Array{4, /*read_only=*/true, false, 11});
  c.arrays.push_back(Array{4, false, false, 22});
  Stmt s;
  s.dst_array = 1;
  s.dst = Access{1, 1, 0};
  s.op = Op::Add;
  s.init_bits = 5;
  s.reads.push_back(Access{0, 1, 0});
  c.stmts.push_back(std::move(s));
  return c;
}

TEST(Validate, AcceptsTinyCase) {
  EXPECT_FALSE(validate(tiny_case(Ty::I32)).has_value());
}

TEST(Validate, RejectsNonDivisibleGeometry) {
  Case c = tiny_case(Ty::I32);
  c.global = 10;
  c.local = 3;
  c.work_items = 10;
  c.arrays[0].extent = c.arrays[1].extent = 10;
  EXPECT_TRUE(validate(c).has_value());
}

TEST(Validate, RejectsOutOfBoundsRead) {
  Case c = tiny_case(Ty::I32);
  c.stmts[0].reads[0].offset = 1;  // index 4 at gid 3, extent 4
  EXPECT_TRUE(validate(c).has_value());
}

TEST(Validate, RejectsDoubleWriteOfGlobalArray) {
  Case c = tiny_case(Ty::I32);
  c.stmts.push_back(c.stmts[0]);
  EXPECT_TRUE(validate(c).has_value());
}

TEST(Validate, RejectsNonInjectiveWrite) {
  Case c = tiny_case(Ty::I32);
  c.stmts[0].dst = Access{1, 0, 0};  // every item stores to element 0: race
  EXPECT_TRUE(validate(c).has_value());
}

TEST(Validate, RejectsReadAwayFromWriteSubscript) {
  Case c = tiny_case(Ty::I32);
  c.stmts[0].reads.push_back(Access{1, 1, 1});  // cross-item read of output
  c.arrays[1].extent = 5;
  EXPECT_TRUE(validate(c).has_value());
  // ...but the distance-0 RMW shape is legal.
  Case rmw = tiny_case(Ty::I32);
  rmw.stmts[0].reads.push_back(rmw.stmts[0].dst);
  EXPECT_FALSE(validate(rmw).has_value());
}

TEST(Validate, RejectsBarrierWithoutUniformStructure) {
  Case c = tiny_case(Ty::I32);
  Stmt bar;
  bar.barrier = true;
  c.stmts.insert(c.stmts.begin(), bar);
  c.work_items = 3;  // guarded tail + barrier: P1 divergence
  EXPECT_TRUE(validate(c).has_value());
}

TEST(Validate, RejectsUndefinedTempRead) {
  Case c = tiny_case(Ty::I32);
  c.num_temps = 2;
  c.stmts[0].temp_reads.push_back(1);  // never defined
  EXPECT_TRUE(validate(c).has_value());
}

// --- shared evaluation core ----------------------------------------------------

TEST(EvalCore, SanitizeBitsRemapsNonFinite) {
  const std::uint32_t inf = 0x7f800000u;
  const std::uint32_t nan = 0x7fc00001u;
  const std::uint32_t subnormal = 0x00000001u;
  for (std::uint32_t bits : {inf, nan, subnormal}) {
    const float v = std::bit_cast<float>(sanitize_bits(Ty::F32, bits));
    EXPECT_TRUE(std::isfinite(v)) << std::hex << bits;
  }
  // Identity for normal values and for I32.
  EXPECT_EQ(sanitize_bits(Ty::F32, 0x3f800000u), 0x3f800000u);
  EXPECT_EQ(sanitize_bits(Ty::I32, inf), inf);
}

TEST(EvalCore, I32ArithmeticWrapsWithoutUb) {
  EXPECT_EQ(apply_op(Ty::I32, Op::Add, 0xffffffffu, 2u), 1u);
  EXPECT_EQ(apply_op(Ty::I32, Op::Mul, 0x80000000u, 2u), 0u);
  // min/max compare as signed int32.
  EXPECT_EQ(apply_op(Ty::I32, Op::Min, 0xffffffffu, 1u), 0xffffffffu);
  EXPECT_EQ(apply_op(Ty::I32, Op::Max, 0xffffffffu, 1u), 1u);
}

// --- reference oracle ----------------------------------------------------------

TEST(Reference, HandComputedElementwiseAdd) {
  const Case c = tiny_case(Ty::I32);
  const Memory init = initial_memory(c);
  const Memory got = reference_result(c);
  ASSERT_EQ(got.arrays.size(), 2u);
  for (long long i = 0; i < 4; ++i) {
    EXPECT_EQ(got.arrays[1][i], 5u + init.arrays[0][i]) << i;
    EXPECT_EQ(got.arrays[0][i], init.arrays[0][i]) << i;  // input untouched
  }
}

TEST(Reference, GuardedTailLeavesInitialContents) {
  Case c = tiny_case(Ty::I32);
  c.work_items = 2;  // items 2..3 inactive
  const Memory init = initial_memory(c);
  const Memory got = reference_result(c);
  EXPECT_EQ(got.arrays[1][0], 5u + init.arrays[0][0]);
  EXPECT_EQ(got.arrays[1][1], 5u + init.arrays[0][1]);
  EXPECT_EQ(got.arrays[1][2], init.arrays[1][2]);
  EXPECT_EQ(got.arrays[1][3], init.arrays[1][3]);
}

TEST(Reference, BarrierReversesThroughLocalMemory) {
  // A2 local: epoch 0 fills A2[lid] = A0[gid]; epoch 1 stores the
  // group-reversed element A2[L-1-lid] into A1[gid].
  Case c;
  c.type = Ty::I32;
  c.global = 8;
  c.local = 4;
  c.work_items = 8;
  c.arrays.push_back(Array{8, true, false, 31});
  c.arrays.push_back(Array{8, false, false, 32});
  c.arrays.push_back(Array{4, false, true, 0});
  Stmt fill;
  fill.dst_array = 2;
  fill.dst = Access{2, 1, 0};
  fill.op = Op::Add;
  fill.reads.push_back(Access{0, 1, 0});
  c.stmts.push_back(std::move(fill));
  Stmt bar;
  bar.barrier = true;
  c.stmts.push_back(std::move(bar));
  Stmt store;
  store.dst_array = 1;
  store.dst = Access{1, 1, 0};
  store.op = Op::Add;
  store.reads.push_back(Access{2, -1, 3});
  c.stmts.push_back(std::move(store));
  ASSERT_FALSE(validate(c).has_value()) << *validate(c);

  const Memory init = initial_memory(c);
  const Memory got = reference_result(c);
  for (long long g = 0; g < 2; ++g) {
    for (long long l = 0; l < 4; ++l) {
      EXPECT_EQ(got.arrays[1][g * 4 + l], init.arrays[0][g * 4 + (3 - l)])
          << "group " << g << " lane " << l;
    }
  }
}

// --- differential driver --------------------------------------------------------

TEST(Differ, FiftySeedsAllBackendsAgree) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Case c = generate_case(case_seed(mcl::test::seed(0xD1FF), i));
    const auto m = run_case(c);
    EXPECT_FALSE(m.has_value())
        << "seed " << c.seed << ": " << m->to_string();
  }
}

// A fixed case for the simd-plane backend: 33 items fold into a 3-row plane
// of 11-item rows, so one Simd call covers three rows and each row ends in
// scalar remainder items (W = 4 or 8). The guard leaves the last 3 inactive.
TEST(Differ, SimdPlaneCoversRowsAndRemainders) {
  Case c = tiny_case(Ty::F32);
  c.global = 33;
  c.local = 11;
  c.work_items = 30;
  for (Array& a : c.arrays) a.extent = 33;
  ASSERT_FALSE(validate(c).has_value()) << *validate(c);
  const auto m = run_case(c);
  EXPECT_FALSE(m.has_value()) << m->to_string();
}

/// tiny_case stretched to `global` items launched at `local`, the last
/// `guarded` items inactive.
Case wide_case(std::size_t global, std::size_t local, long long guarded) {
  Case c = tiny_case(Ty::F32);
  c.global = global;
  c.local = local;
  c.work_items = static_cast<long long>(global) - guarded;
  for (Array& a : c.arrays) a.extent = static_cast<long long>(global);
  return c;
}

// Fixed cases for the null-local backend. At a prime global the CPU rule
// keeps one-item groups; at 2^14 items it grows dim 0 past the base pick of
// 64 (to 256: the largest SIMD-aligned divisor leaving 64 groups).
TEST(Differ, NullLocalAtPrimeGlobal) {
  const Case c = wide_case(8191, 1, 0);
  ASSERT_FALSE(validate(c).has_value()) << *validate(c);
  EXPECT_EQ(ocl::pick_cpu_default_local(ocl::NDRange{8191}, true,
                                        simd::kNativeFloatWidth)[0],
            1u);
  const auto m = run_case(c);
  EXPECT_FALSE(m.has_value()) << m->to_string();
}

TEST(Differ, NullLocalGrowsPowerOfTwoGroups) {
  const Case c = wide_case(std::size_t{1} << 14, 64, 5);
  ASSERT_FALSE(validate(c).has_value()) << *validate(c);
  EXPECT_EQ(ocl::pick_cpu_default_local(ocl::NDRange{c.global}, true,
                                        simd::kNativeFloatWidth)[0],
            256u);
  const auto m = run_case(c);
  EXPECT_FALSE(m.has_value()) << m->to_string();
}

TEST(Differ, UlpDistanceIsMonotoneAcrossZero) {
  const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  EXPECT_EQ(ulp_distance(bits(1.0f), bits(1.0f)), 0u);
  EXPECT_EQ(ulp_distance(bits(1.0f), std::bit_cast<std::uint32_t>(
                                         std::nextafter(1.0f, 2.0f))),
            1u);
  // +0 and -0 are one bit pattern apart in the monotone mapping but
  // numerically identical neighborhoods: distance 0.
  EXPECT_EQ(ulp_distance(bits(0.0f), bits(-0.0f)), 0u);
  EXPECT_GT(ulp_distance(bits(-1.0f), bits(1.0f)), 1u << 20);
}

// --- repro files ----------------------------------------------------------------

TEST(Repro, RoundTripsGeneratedCases) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Case c = generate_case(case_seed(99, i));
    const std::string text = serialize_repro(c, /*minimized=*/false, "note");
    std::string error;
    const auto parsed = parse_repro(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kase, c);
    EXPECT_FALSE(parsed->minimized);
  }
}

TEST(Repro, RejectsHandEditedRacyProgram) {
  const Case c = tiny_case(Ty::I32);
  std::string text = serialize_repro(c, true, "");
  // A broadcast write (scale 0) races; parse must re-validate and refuse.
  const std::size_t at = text.find("stmt array 1 1 0");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, 16, "stmt array 1 0 0");
  std::string error;
  EXPECT_FALSE(parse_repro(text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Repro, RejectsTruncatedFile) {
  const Case c = tiny_case(Ty::I32);
  std::string text = serialize_repro(c, true, "");
  text.resize(text.find("stmt"));
  std::string error;
  EXPECT_FALSE(parse_repro(text, &error).has_value());
}

// --- fault injection acceptance -------------------------------------------------

/// Sets MCL_CHECK_INJECT for the scope; restores on exit even if the test
/// fails mid-way.
struct InjectGuard {
  explicit InjectGuard(const char* what) {
    setenv("MCL_CHECK_INJECT", what, 1);
  }
  ~InjectGuard() { unsetenv("MCL_CHECK_INJECT"); }
};

TEST(Injection, ChunkerBugCaughtMinimizedAndReplayed) {
  // Find a case the injected bug breaks. The bug drops the last workgroup
  // whenever the pooled device dispatches more than one, so any multi-group
  // case whose last group writes observable output fails.
  std::optional<Case> failing;
  Mismatch first;
  {
    InjectGuard inject("chunker");
    for (std::uint64_t i = 0; i < 50 && !failing; ++i) {
      const Case c = generate_case(case_seed(1, i));
      if (auto m = run_case(c)) {
        failing = c;
        first = *m;
      }
    }
    ASSERT_TRUE(failing.has_value())
        << "injected chunker bug survived 50 cases undetected";

    // Minimize under the injection; the failure must survive shrinking and
    // land at <= 4 workitems (the bug needs only 2 groups of 1).
    ShrinkStats stats;
    const Case small = shrink_case(
        *failing, [](const Case& cand) { return run_case(cand).has_value(); },
        400, &stats);
    EXPECT_LE(small.work_items, 4);
    EXPECT_GT(stats.accepted, 0);

    // Round-trip through the repro format and replay: still failing,
    // deterministically.
    const std::string text = serialize_repro(small, true, first.to_string());
    std::string error;
    const auto parsed = parse_repro(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const auto replayed = run_case(parsed->kase);
    ASSERT_TRUE(replayed.has_value());
    const auto again = run_case(parsed->kase);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(replayed->to_string(), again->to_string());
  }

  // With the injection removed the same case passes: the bug was in the
  // (injected) runtime path, not in the generated program.
  EXPECT_FALSE(run_case(*failing).has_value());
}

// --- soundness oracle ------------------------------------------------------------

TEST(Soundness, FiftySeedsNoProvenArrayEverFlagged) {
  SoundnessStats stats;
  for (std::uint64_t i = 0; i < 50; ++i) {
    run_soundness_case(generate_case(case_seed(mcl::test::seed(0x50FD), i)),
                       stats);
  }
  EXPECT_TRUE(stats.sound())
      << (stats.failures.empty() ? std::string() : stats.failures.front());
  EXPECT_EQ(stats.cases, 50u);
  // The sweep only means something if proofs actually discharged: the
  // generator's guarded/barrier mix must yield proven arrays and boundary
  // variants to stress.
  EXPECT_GT(stats.proven_arrays, 0u);
  EXPECT_GT(stats.accesses_covered, 0u);
  EXPECT_GT(stats.boundary_checks, 0u);
}

TEST(Soundness, InjectedLaxDischargeIsDetected) {
  // MCL_CHECK_INJECT=verify makes discharge() accept one element past the
  // extent; the boundary variant (extent shrunk to the statically reached
  // maximum) must then convict it — proving the oracle can fail.
  InjectGuard inject("verify");
  SoundnessStats stats;
  for (std::uint64_t i = 0; i < 20 && stats.violations == 0; ++i) {
    run_soundness_case(generate_case(case_seed(mcl::test::seed(0x50FD), i)),
                       stats);
  }
  EXPECT_GT(stats.violations, 0u)
      << "lax discharge survived " << stats.cases << " boundary variants";
  EXPECT_FALSE(stats.sound());
  EXPECT_FALSE(stats.failures.empty());
}

}  // namespace
}  // namespace mcl::check
