// mcltune: self-tuning runtime — closes the loop from measurement to policy.
//
// For seven PRs the runtime has measured everything (mclprof IPC/GB/s,
// cachesim, mclverify KernelFacts) while every launch knob the source paper
// shows is worth 1.5-10x — workgroup size, executor choice, chunking,
// dispatch order, map-vs-copy plan — stayed hand-set per bench. The Tuner
// turns that observability into policy, per (kernel, shape-class, device)
// key:
//
//   1. static features from mclverify KernelFacts + a cachesim replay of the
//      declared affine access stream (stride/locality class, reuse, memory
//      entropy, arithmetic intensity, barrier/local-memory use) — the
//      architecture-independent feature set of Chilukuri & Milthorpe;
//   2. a cost model seeded from those features ranks candidate configs
//      (workgroup size, executor {loop/fiber/simd; Checked excluded}, chunk
//      divisor), pruning every candidate veclegal/mclverify legality rules
//      reject (barrier kernels never get Loop/Simd, Simd needs a registered
//      simd form, locals must divide the global size, kernels with
//      local-memory args keep their caller-sized local);
//   3. online refinement from repeated-launch timing via a bounded
//      explore/exploit policy: round-robin trials over the top-ranked
//      candidates, epsilon-greedy afterwards, with a regression guard that
//      quarantines any config measurably worse than the incumbent;
//   4. persistence to an MCL_TUNE_CACHE file (versioned, checksummed,
//      invalidated by KernelIrRegistry generation counters) so warm
//      processes skip exploration entirely.
//
// Launch-path wiring lives in ocl::CpuDevice::launch behind
// MCL_TUNE={off,seed,online}; CL/cl_ext_mcl.h exposes clSetTuningMCL /
// clGetTunedConfigMCL. Decisions surface as "tune.decide:<kernel>" trace
// instants and tune.* metrics. See docs/tune.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ocl/kernel.hpp"
#include "ocl/types.hpp"

namespace mcl::tune {

/// MCL_TUNE values. Off: the launch path is untouched (one relaxed load).
/// Seed: the cost model's top-ranked config is applied, no exploration.
/// Online: seed + bounded explore/exploit refinement from measured seconds.
enum class Mode { Off, Seed, Online };

[[nodiscard]] const char* to_string(Mode m) noexcept;

/// One concrete knob setting the tuner can apply to a launch.
struct TunedConfig {
  /// Workgroup size override; null means "leave the caller/runtime choice".
  /// Only applied when the caller passed NullRange and the kernel binds no
  /// local-memory args (their size was chosen for the caller's local).
  ocl::NDRange local;
  ocl::ExecutorKind executor = ocl::ExecutorKind::Auto;
  /// Replaces the launch path's fixed divisor in
  /// chunk = clamp(total_groups / (threads * chunk_divisor), 1, 64).
  std::size_t chunk_divisor = 16;

  [[nodiscard]] std::string to_string() const;
};

/// Architecture-independent feature vector of one kernel (cached per
/// (kernel, IR generation) in the KernelIrRegistry analysis cache).
struct Features {
  bool have_facts = false;  ///< false: no IR registered, defaults below
  double arithmetic_intensity = 0.0;  ///< fold stmts per byte accessed/item
  /// Shannon entropy (bits) over the access-count-weighted |stride| class
  /// distribution: 0 = one uniform access pattern, higher = mixed strides.
  double memory_entropy = 0.0;
  double reuse_score = 0.0;       ///< 0 none, 0.5 spatial|temporal, 1 both
  double unit_stride_fraction = 0.0;  ///< accesses with |scale| <= 1
  long long dominant_stride = 1;
  bool gather_scatter = false;    ///< any mixed-stride array
  bool race_free = true;
  bool divergent_guards = false;  ///< any item-dependent guarded statement
  bool barrier = false;
  bool local_mem = false;
  bool has_simd_form = false;
  bool has_workgroup_form = false;
  /// Modal cachesim hit level replaying the declared access stream over a
  /// model shape: 1=L1 .. 4=memory (1 when no facts).
  int locality_class = 1;
  double sim_cycles_per_access = 0.0;
};

/// Computes the feature vector for `def` (facts come from verify::facts_for;
/// absent IR degrades to a default vector with have_facts=false). Cached per
/// (kernel, generation); thread-safe.
[[nodiscard]] Features features_for(const ocl::KernelDef& def);

/// Cost-model score of one candidate under `feats` for a launch of `global`
/// on `threads` workers — higher is better. Pure; exposed for tests/docs.
[[nodiscard]] double score_candidate(const TunedConfig& cfg,
                                     const Features& feats,
                                     const ocl::NDRange& global,
                                     std::size_t threads);

/// Legal candidate configs for one launch, ranked by score (best first),
/// truncated to the exploration width. Pure; exposed for tests.
[[nodiscard]] std::vector<TunedConfig> enumerate_candidates(
    const ocl::KernelDef& def, const Features& feats,
    const ocl::NDRange& global, const ocl::NDRange& local,
    bool has_local_args, std::size_t threads);

/// One decision handed to the launch path; pass it back to report().
struct Decision {
  TunedConfig config;
  bool explore = false;   ///< this launch is an exploration trial
  std::string key;        ///< tuner entry key (kernel|shape|threads|localargs)
  std::uint32_t candidate = 0;  ///< index into the entry's candidate list
  /// IR generation of the entry at decide() time; report() drops the sample
  /// when it no longer matches (the entry was evicted and recreated for a
  /// re-registered kernel body between decide and report).
  std::uint64_t generation = 0;
};

/// Monotone internal counters (metrics-registry independent, so tests can
/// assert on them without enabling mclprof).
struct TunerStats {
  std::uint64_t decisions = 0;
  std::uint64_t explore = 0;      ///< exploration launches issued
  std::uint64_t exploit = 0;      ///< incumbent/seed launches issued
  std::uint64_t quarantined = 0;  ///< candidates retired by regression guard
  std::uint64_t converged = 0;    ///< entries that finished exploring
  std::uint64_t cache_rows_loaded = 0;   ///< persisted rows accepted
  std::uint64_t cache_rows_rejected = 0; ///< rows dropped (stale/corrupt)
  std::uint64_t cache_hits = 0;   ///< decisions served by a warm entry
  std::uint64_t evictions = 0;    ///< entries dropped on IR re-registration
};

[[nodiscard]] Mode mode_from_env();  ///< parses MCL_TUNE (default Off)

namespace detail {
/// g_mode starts at kModeUnset and resolves from MCL_TUNE on the first
/// enabled()/mode() query — NOT in the Tuner constructor, which is only
/// reached once a decision is requested; gating the env parse behind the
/// singleton would make `MCL_TUNE=online some_binary` a no-op.
inline constexpr int kModeUnset = -1;
extern std::atomic<int> g_mode;
int resolve_mode_from_env() noexcept;  ///< one-time CAS publish of MCL_TUNE
}

/// True when any tuning is active — the only cost on the launch path when
/// MCL_TUNE is off (one relaxed load + not-taken branch after the first
/// query, same budget as the trace/prof gates).
[[nodiscard]] inline bool enabled() noexcept {
  int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m == detail::kModeUnset) m = detail::resolve_mode_from_env();
  return m != static_cast<int>(Mode::Off);
}

/// Process-wide tuner. One instance; tenants, queues and devices share it —
/// that is what makes mclserve's per-tenant kernel caches converge onto one
/// tuned config per (kernel, shape, device) instead of re-exploring per
/// tenant.
class Tuner {
 public:
  /// Leaky singleton (never destroyed: decisions may be reported from
  /// worker threads during static teardown). First call installs the
  /// KernelIrRegistry invalidation hook and loads MCL_TUNE_CACHE if set.
  [[nodiscard]] static Tuner& instance();

  [[nodiscard]] Mode mode() const noexcept {
    int m = detail::g_mode.load(std::memory_order_relaxed);
    if (m == detail::kModeUnset) m = detail::resolve_mode_from_env();
    return static_cast<Mode>(m);
  }
  void set_mode(Mode m) noexcept;

  /// Decides the config for one launch. Returns nullopt when tuning is off
  /// or the launch is not tunable (explicit executor configs never reach
  /// here; workgroup-form kernels with nothing to choose return the single
  /// legal candidate). `has_local_args` gates local-size overrides.
  [[nodiscard]] std::optional<Decision> decide(const ocl::KernelDef& def,
                                               const ocl::NDRange& global,
                                               const ocl::NDRange& local,
                                               bool has_local_args,
                                               std::size_t threads);

  /// Feeds one measured launch back (online mode). Unknown/evicted keys are
  /// ignored (the entry was invalidated between decide and report).
  void report(const Decision& decision, double seconds);

  /// The current best config for a launch shape without recording a
  /// decision: the incumbent when an entry exists, else the seed ranking's
  /// top candidate. Works in every mode (pure query; clGetTunedConfigMCL).
  [[nodiscard]] std::optional<TunedConfig> tuned_config(
      const ocl::KernelDef& def, const ocl::NDRange& global,
      const ocl::NDRange& local, bool has_local_args, std::size_t threads);

  /// Computes (and caches) the feature vector ahead of the first launch —
  /// mclserve calls this on kernel-descriptor cache misses so feature
  /// extraction cost never lands on a tenant's first request.
  void prewarm(const ocl::KernelDef& def);

  /// Drops every entry of `kernel` (all shapes) plus its pending persisted
  /// rows. Wired to KernelIrRegistry re-registration; also for tests.
  void evict(const std::string& kernel);

  /// Drops all entries and loaded rows (tests).
  void reset();

  [[nodiscard]] std::size_t entry_count() const;
  [[nodiscard]] std::size_t entry_count(const std::string& kernel) const;

  /// True when the entry for this exact launch shape finished exploring
  /// (exhausted its trial budget or was loaded from a warm cache).
  [[nodiscard]] bool converged(const std::string& kernel,
                               const ocl::NDRange& global,
                               const ocl::NDRange& local, std::size_t threads,
                               bool has_local_args = false) const;

  [[nodiscard]] TunerStats stats() const;
  void reset_stats();

  /// Persists every converged entry: "mcltune v4" header, one row per
  /// entry carrying the kernel's IR generation, FNV-1a checksum trailer.
  /// Written to <path>.tmp.<pid> then renamed (concurrent-writer safe).
  [[nodiscard]] bool save_cache(const std::string& path) const;

  /// Loads a cache file; returns rows accepted. A version mismatch, bad
  /// checksum, or truncated file rejects the whole file (cold start); a row
  /// whose generation differs from the kernel's current IR generation is
  /// skipped individually.
  std::size_t load_cache(const std::string& path);

 private:
  Tuner();

  struct CandidateState {
    TunedConfig config;
    double seed_score = 0.0;
    double best_seconds = 0.0;  ///< 0 = never measured
    int trials = 0;
    bool quarantined = false;
  };
  struct Entry {
    std::string kernel;
    std::uint64_t generation = 0;
    std::vector<CandidateState> candidates;
    std::uint32_t incumbent = 0;
    bool converged = false;
    bool from_cache = false;   ///< warm start: never explores
    /// Warm entries carry configs written by a possibly different build;
    /// the first decide() re-checks the incumbent against live executor
    /// legality (candidate_executors + simd width) and drops the entry if
    /// it no longer holds. Entries built in-process are legal by
    /// construction.
    bool validated = false;
    std::uint64_t launches = 0;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;  ///< per-entry epsilon stream
  };

  [[nodiscard]] static std::string entry_key(const std::string& kernel,
                                             const ocl::NDRange& global,
                                             const ocl::NDRange& local,
                                             std::size_t threads,
                                             bool has_local_args);
  Entry* find_or_create(const ocl::KernelDef& def, const ocl::NDRange& global,
                        const ocl::NDRange& local, bool has_local_args,
                        std::size_t threads, const std::string& key);
  /// Returns the number of candidates newly quarantined by this call so
  /// report() can raise the mclobs anomaly after mutex_ is released (the
  /// tune dump section takes mutex_; dumping under it would deadlock).
  std::size_t maybe_quarantine(Entry& entry);
  [[nodiscard]] std::string obs_section_json() const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  TunerStats stats_;
  std::string cache_path_;  ///< MCL_TUNE_CACHE; empty = no persistence
};

}  // namespace mcl::tune
