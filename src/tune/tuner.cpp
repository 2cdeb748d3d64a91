// Tuner core: candidate enumeration (with GroupRunner-matched legality
// pruning), cost-model ranking, and the bounded explore/exploit policy.
//
// Online policy (docs/tune.md): a cold entry round-robins its top-ranked
// candidates for kTrialsPerCandidate timed launches each — a bounded budget
// of at most kMaxCandidates * kTrialsPerCandidate exploration launches —
// quarantining any candidate whose best observed time is measurably worse
// than the current minimum (regression guard). Once every candidate is
// trialed or quarantined the entry CONVERGES: the incumbent (argmin best
// time) is served forever after with zero exploration, which is what makes
// warm-cache processes deterministic (tune.explore == 0).
#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "prof/metrics.hpp"
#include "simd/vec.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl::tune {
namespace {

/// Exploration budget per entry.
constexpr std::size_t kMaxCandidates = 8;
constexpr int kTrialsPerCandidate = 3;
/// Regression guard: quarantined when best observed time exceeds the
/// entry-wide minimum by this factor (measurably worse, beyond timer noise).
constexpr double kQuarantineRatio = 1.25;
/// Soft cap on tuner entries; beyond it new shapes fall back to seed-only
/// decisions (no stored state) instead of growing without bound.
constexpr std::size_t kMaxEntries = 4096;

/// Fiber stacks are allocated per workitem of a group, so barrier kernels
/// cap their candidate group size well below the generic 1024 limit.
constexpr std::size_t kMaxItemsPerGroup = 1024;
constexpr std::size_t kMaxBarrierItemsPerGroup = 256;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// xorshift64*: deterministic per-entry epsilon stream (no global RNG, no
/// wall clock — warm runs replay identically).
std::uint64_t next_rand(std::uint64_t& state) {
  std::uint64_t x = state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

bool divides(const ocl::NDRange& local, const ocl::NDRange& global) {
  for (std::size_t d = 0; d < global.dims && d < 3; ++d) {
    if (local[d] == 0 || global[d] % local[d] != 0) return false;
  }
  return true;
}

/// The local size the CPU device gives this launch at NULL — the runtime
/// default every tuned arm competes with.
ocl::NDRange runtime_default_local(const ocl::KernelDef& def,
                                   const ocl::NDRange& global,
                                   bool has_local_args) {
  return ocl::pick_cpu_default_local(
      global, ocl::group_oblivious(def, has_local_args, ocl::ExecutorKind::Auto),
      static_cast<std::size_t>(simd::kNativeFloatWidth));
}

/// Candidate local sizes for one global shape: the runtime default plus the
/// paper's Fig 2 sweep points, legality-filtered (must divide the global,
/// items/group capped; the runtime default is exempt from the cap, since
/// the untuned launch already runs it). Returns an empty vector when the
/// caller fixed the local size or the kernel binds local-memory args (whose
/// byte counts were sized for the caller's groups — overriding would
/// corrupt them).
std::vector<ocl::NDRange> candidate_locals(const ocl::KernelDef& def,
                                           const ocl::NDRange& global,
                                           const ocl::NDRange& local,
                                           bool has_local_args) {
  std::vector<ocl::NDRange> out;
  if (!local.is_null() || has_local_args) return out;
  out.push_back(runtime_default_local(def, global, has_local_args));
  const std::size_t cap =
      def.needs_barrier ? kMaxBarrierItemsPerGroup : kMaxItemsPerGroup;
  auto push = [&](const ocl::NDRange& cand) {
    if (!divides(cand, global) || cand.total() > cap) return;
    if (std::find(out.begin(), out.end(), cand) == out.end()) out.push_back(cand);
  };
  if (global.dims == 1) {
    for (const std::size_t w : {std::size_t{64}, std::size_t{128},
                                std::size_t{256}, std::size_t{512}}) {
      push(ocl::NDRange{w});
    }
  } else if (global.dims == 2) {
    push(ocl::NDRange{8, 8});
    push(ocl::NDRange{16, 16});
    push(ocl::NDRange{32, 4});
  } else {
    push(ocl::NDRange{4, 4, 4});
    push(ocl::NDRange{8, 8, 2});
  }
  return out;
}

/// Executors legal for this kernel — exactly GroupRunner's rules:
/// workgroup-form kernels ignore the knob (Auto only); barrier kernels must
/// run on fibers (Loop/Simd throw InvalidLaunch); Simd needs a registered
/// simd form and a multi-lane build. Checked is never a tuning candidate
/// (it is the sanitizer, ~100x slower by design).
std::vector<ocl::ExecutorKind> candidate_executors(const ocl::KernelDef& def) {
  if (def.workgroup != nullptr && def.scalar == nullptr) {
    return {ocl::ExecutorKind::Auto};
  }
  if (def.needs_barrier) return {ocl::ExecutorKind::Fiber};
  std::vector<ocl::ExecutorKind> out{ocl::ExecutorKind::Loop};
  if (def.simd != nullptr && simd::kNativeFloatWidth > 1) {
    out.push_back(ocl::ExecutorKind::Simd);
  }
  return out;
}

/// Legality of one concrete config for one launch — the same rules candidate
/// enumeration applies, re-checkable after the fact. Used to vet warm-cache
/// rows on their first decide(): the generation guard only proves the IR is
/// unchanged, not that the row is legal for THIS build (executor legality is
/// build-dependent — a cache written by a SIMD-enabled build loads into a
/// scalar build — and the file may have been hand-edited).
bool config_legal(const ocl::KernelDef& def, const TunedConfig& cfg,
                  const ocl::NDRange& global, const ocl::NDRange& local,
                  bool has_local_args) {
  if (cfg.executor != ocl::ExecutorKind::Auto) {
    const std::vector<ocl::ExecutorKind> execs = candidate_executors(def);
    if (std::find(execs.begin(), execs.end(), cfg.executor) == execs.end()) {
      return false;
    }
  }
  if (!cfg.local.is_null()) {
    if (!local.is_null() || has_local_args) return false;
    const std::size_t cap =
        def.needs_barrier ? kMaxBarrierItemsPerGroup : kMaxItemsPerGroup;
    if (!divides(cfg.local, global)) return false;
    if (cfg.local.total() > cap &&
        !(cfg.local == runtime_default_local(def, global, has_local_args))) {
      return false;
    }
  }
  return cfg.chunk_divisor != 0;
}

}  // namespace

namespace detail {
std::atomic<int> g_mode{kModeUnset};

int resolve_mode_from_env() noexcept {
  int expected = kModeUnset;
  const int from_env = static_cast<int>(mode_from_env());
  // CAS: if a concurrent set_mode() already published a mode, keep it —
  // programmatic configuration always beats the environment default.
  if (g_mode.compare_exchange_strong(expected, from_env,
                                     std::memory_order_relaxed)) {
    return from_env;
  }
  return expected;
}
}  // namespace detail

const char* to_string(Mode m) noexcept {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Seed: return "seed";
    case Mode::Online: return "online";
  }
  return "off";
}

Mode mode_from_env() {
  const char* v = std::getenv("MCL_TUNE");
  if (v == nullptr) return Mode::Off;
  const std::string s{v};
  if (s == "seed") return Mode::Seed;
  if (s == "online" || s == "on" || s == "1") return Mode::Online;
  return Mode::Off;
}

std::string TunedConfig::to_string() const {
  std::ostringstream out;
  out << "local=";
  if (local.is_null()) {
    out << "auto";
  } else {
    out << local[0];
    for (std::size_t d = 1; d < local.dims; ++d) out << "x" << local[d];
  }
  out << " exec=";
  switch (executor) {
    case ocl::ExecutorKind::Auto: out << "auto"; break;
    case ocl::ExecutorKind::Loop: out << "loop"; break;
    case ocl::ExecutorKind::Fiber: out << "fiber"; break;
    case ocl::ExecutorKind::Simd: out << "simd"; break;
    case ocl::ExecutorKind::Checked: out << "checked"; break;
  }
  out << " chunk_div=" << chunk_divisor;
  return out.str();
}

double score_candidate(const TunedConfig& cfg, const Features& feats,
                       const ocl::NDRange& global, std::size_t threads) {
  double score = 0.0;
  const std::size_t total = std::max<std::size_t>(global.total(), 1);
  const std::size_t items_per_group =
      cfg.local.is_null() ? std::min<std::size_t>(total, 64)
                          : std::max<std::size_t>(cfg.local.total(), 1);
  const std::size_t groups = std::max<std::size_t>(total / items_per_group, 1);

  // Executor axis. SIMD pays off in proportion to the coalescable fraction
  // of the access stream (paper Fig 10: implicit vectorization on
  // unit-stride kernels); gather/scatter kernels keep little of it.
  if (cfg.executor == ocl::ExecutorKind::Simd) {
    double simd_gain = 2.0 * feats.unit_stride_fraction;
    if (feats.gather_scatter) simd_gain *= 0.25;
    if (!feats.have_facts) simd_gain = 1.0;  // optimistic default: simd forms
                                             // exist because they won Fig 10
    score += simd_gain;
  } else if (cfg.executor == ocl::ExecutorKind::Fiber) {
    score -= 0.5;  // fiber switching overhead; only ever legal-mandatory
  }

  // Workgroup-size axis (paper Fig 2: CPUs want >= 64 items per group so
  // the per-group dispatch cost amortizes; advisor::kMinCpuWorkGroup).
  if (items_per_group >= 64) score += 0.5;
  if (items_per_group >= 256 && feats.arithmetic_intensity < 0.25 &&
      feats.locality_class >= 3) {
    score += 0.25;  // streaming kernels amortize further with bigger groups
  }
  if (feats.local_mem && items_per_group > 256) score -= 0.5;
  if (cfg.executor == ocl::ExecutorKind::Simd && !cfg.local.is_null() &&
      cfg.local[0] % static_cast<std::size_t>(simd::kNativeFloatWidth) == 0) {
    score += 0.25;  // whole lane groups per row, no scalar remainder
  }

  // Parallel-slack axis: fewer groups than workers starves the pool.
  if (groups < threads) score -= 1.0;
  else if (groups < threads * 4) score -= 0.25;

  // Chunking axis: divergent/guarded kernels have irregular per-group cost
  // and want small chunks (divisor 64 -> chunk 1 earlier); uniform streaming
  // kernels want big chunks for locality (divisor 4).
  const bool irregular = feats.divergent_guards || feats.gather_scatter;
  if (irregular && cfg.chunk_divisor >= 64) score += 0.25;
  if (!irregular && feats.reuse_score >= 0.5 && cfg.chunk_divisor <= 4) {
    score += 0.25;
  }
  if (irregular && cfg.chunk_divisor <= 4) score -= 0.25;
  return score;
}

std::vector<TunedConfig> enumerate_candidates(const ocl::KernelDef& def,
                                              const Features& feats,
                                              const ocl::NDRange& global,
                                              const ocl::NDRange& local,
                                              bool has_local_args,
                                              std::size_t threads) {
  const std::vector<ocl::ExecutorKind> execs = candidate_executors(def);
  std::vector<ocl::NDRange> locals =
      candidate_locals(def, global, local, has_local_args);
  if (locals.empty()) locals.push_back(ocl::NDRange{});  // keep caller/default

  const std::size_t total = std::max<std::size_t>(global.total(), 1);
  const std::size_t groups_est =
      total / std::max<std::size_t>(
                  locals.front().is_null() ? 64 : locals.front().total(), 1);
  std::vector<std::size_t> chunk_divs{16};
  if (groups_est >= threads * 4) {
    chunk_divs.push_back(4);
    chunk_divs.push_back(64);
  }

  std::vector<TunedConfig> out;
  for (const ocl::ExecutorKind exec : execs) {
    for (const ocl::NDRange& l : locals) {
      for (const std::size_t cd : chunk_divs) {
        TunedConfig cfg;
        cfg.local = l;
        cfg.executor = exec;
        cfg.chunk_divisor = cd;
        out.push_back(cfg);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [&](const TunedConfig& a, const TunedConfig& b) {
                     return score_candidate(a, feats, global, threads) >
                            score_candidate(b, feats, global, threads);
                   });
  if (out.size() > kMaxCandidates) out.resize(kMaxCandidates);
  return out;
}

Tuner& Tuner::instance() {
  // Leaky: decisions can be reported from pool workers during static
  // teardown, and the IR-registry hook below outlives any scoped object.
  static Tuner* tuner = new Tuner();
  return *tuner;
}

Tuner::Tuner() {
  (void)detail::resolve_mode_from_env();  // no-op if a mode is already set
  // Satellite of ISSUE 8: re-registering a kernel's IR (generation bump)
  // must evict its tuner entries — configs tuned for the old body are stale.
  veclegal::KernelIrRegistry::instance().add_invalidation_hook(
      [this](const std::string& kernel) { evict(kernel); });
  if (const char* path = std::getenv("MCL_TUNE_CACHE")) {
    cache_path_ = path;
    load_cache(cache_path_);
    // Persist converged entries on clean exit; the temp+rename writer makes
    // several processes exiting at once safe (last complete file wins).
    std::atexit([] {
      Tuner& t = Tuner::instance();
      if (!t.cache_path_.empty()) (void)t.save_cache(t.cache_path_);
    });
  }
  // Flight-recorder dump section: incumbents + convergence at anomaly time.
  // The singleton is leaked (see instance()), so this never unregisters.
  (void)obs::register_section("tune",
                              [this] { return obs_section_json(); });
}

void Tuner::set_mode(Mode m) noexcept {
  detail::g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

std::string Tuner::entry_key(const std::string& kernel,
                             const ocl::NDRange& global,
                             const ocl::NDRange& local, std::size_t threads,
                             bool has_local_args) {
  std::ostringstream out;
  out << kernel << "|g" << global[0] << "x" << global[1] << "x" << global[2]
      << "|l";
  if (local.is_null()) {
    out << "auto";
  } else {
    out << local[0] << "x" << local[1] << "x" << local[2];
  }
  // has_local_args is part of the key, not just candidate enumeration: a
  // kernel launched both with and without local-memory args must get two
  // entries, or the no-local-args entry's learned local-size override leaks
  // into launches whose local byte counts were sized for different groups.
  out << "|t" << threads << "|a" << (has_local_args ? 1 : 0);
  return out.str();
}

Tuner::Entry* Tuner::find_or_create(const ocl::KernelDef& def,
                                    const ocl::NDRange& global,
                                    const ocl::NDRange& local,
                                    bool has_local_args, std::size_t threads,
                                    const std::string& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = it->second;
    if (!entry.from_cache || entry.validated) return &entry;
    // First hit on a warm row: the generation guard at load time only proves
    // the IR is unchanged, not that the persisted config is legal for this
    // build/kernel (a SIMD row in a scalar build, a Loop row for a barrier
    // kernel in a hand-edited file). An illegal row would make GroupRunner
    // throw InvalidLaunch on every launch — drop it as stale and fall
    // through to a fresh entry instead.
    if (config_legal(def, entry.candidates[entry.incumbent].config, global,
                     local, has_local_args)) {
      entry.validated = true;
      return &entry;
    }
    entries_.erase(it);
    ++stats_.cache_rows_rejected;
  }
  if (entries_.size() >= kMaxEntries) return nullptr;

  // Feature extraction and candidate ranking run outside entries_ churn but
  // inside mutex_ — acceptable because features_for memoizes per kernel, so
  // only the first shape of a kernel pays the cachesim replay.
  const Features feats = features_for(def);
  std::vector<TunedConfig> candidates =
      enumerate_candidates(def, feats, global, local, has_local_args, threads);
  if (candidates.empty()) return nullptr;

  Entry entry;
  entry.kernel = def.name;
  entry.generation =
      veclegal::KernelIrRegistry::instance().generation(def.name);
  entry.rng = fnv1a64(key) | 1;  // deterministic per-key stream, never 0
  entry.candidates.reserve(candidates.size());
  for (TunedConfig& cfg : candidates) {
    CandidateState cs;
    cs.seed_score = score_candidate(cfg, feats, global, threads);
    cs.config = std::move(cfg);
    entry.candidates.push_back(std::move(cs));
  }
  // A single candidate leaves nothing to explore.
  if (entry.candidates.size() == 1) {
    entry.converged = true;
    ++stats_.converged;
  }
  return &entries_.emplace(key, std::move(entry)).first->second;
}

std::optional<Decision> Tuner::decide(const ocl::KernelDef& def,
                                      const ocl::NDRange& global,
                                      const ocl::NDRange& local,
                                      bool has_local_args,
                                      std::size_t threads) {
  const Mode m = mode();
  if (m == Mode::Off) return std::nullopt;
  const std::string key =
      entry_key(def.name, global, local, threads, has_local_args);

  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(def, global, local, has_local_args, threads, key);
  if (entry == nullptr) return std::nullopt;
  ++stats_.decisions;
  ++entry->launches;
  if (entry->from_cache) ++stats_.cache_hits;

  Decision d;
  d.key = key;
  d.generation = entry->generation;

  if (m == Mode::Online && !entry->converged) {
    // Round-robin exploration: the live candidate with the fewest trials.
    std::uint32_t pick = entry->incumbent;
    int fewest = kTrialsPerCandidate;
    for (std::uint32_t i = 0; i < entry->candidates.size(); ++i) {
      const CandidateState& cs = entry->candidates[i];
      if (cs.quarantined || cs.trials >= kTrialsPerCandidate) continue;
      if (cs.trials < fewest) {
        fewest = cs.trials;
        pick = i;
      }
    }
    d.candidate = pick;
    d.explore = fewest < kTrialsPerCandidate;
    if (!d.explore) {
      // Every candidate trialed or quarantined: converge permanently.
      entry->converged = true;
      ++stats_.converged;
      d.candidate = entry->incumbent;
    }
  } else {
    // Seed mode, or a converged/warm entry: serve the incumbent.
    d.candidate = entry->incumbent;
    d.explore = false;
  }
  d.config = entry->candidates[d.candidate].config;
  if (d.explore) {
    ++stats_.explore;
  } else {
    ++stats_.exploit;
  }
  // next_rand reserved for future epsilon jitter; keep the stream advancing
  // so entry state remains deterministic if it is ever enabled.
  (void)next_rand(entry->rng);

  MCL_PROF_COUNT("tune.decisions", 1);
  if (d.explore) MCL_PROF_COUNT("tune.explore", 1);
  else MCL_PROF_COUNT("tune.exploit", 1);
  if (entry->from_cache) MCL_PROF_COUNT("tune.cache_hits", 1);
  if (trace::enabled()) {
    MCL_TRACE_INSTANT(trace::intern("tune.decide:" + def.name),
                      "candidate,explore,launches", d.candidate,
                      d.explore ? 1 : 0, entry->launches);
  }
  return d;
}

void Tuner::report(const Decision& decision, double seconds) {
  if (seconds <= 0.0) return;
  std::size_t newly_quarantined = 0;
  const char* kernel_name = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(decision.key);
    if (it == entries_.end()) return;  // evicted between decide and report
    Entry& entry = it->second;
    // Evicted AND recreated between decide and report (IR re-registration):
    // the stale timing belongs to the old body's candidate list, not this
    // one.
    if (entry.generation != decision.generation) return;
    if (decision.candidate >= entry.candidates.size()) return;
    CandidateState& cs = entry.candidates[decision.candidate];
    if (cs.best_seconds == 0.0 || seconds < cs.best_seconds) {
      cs.best_seconds = seconds;
    }
    if (decision.explore) ++cs.trials;

    // Incumbent = argmin over measured candidates (seed ranking until then).
    double best = 0.0;
    for (std::uint32_t i = 0; i < entry.candidates.size(); ++i) {
      const CandidateState& c = entry.candidates[i];
      if (c.best_seconds <= 0.0) continue;
      if (best == 0.0 || c.best_seconds < best) {
        best = c.best_seconds;
        entry.incumbent = i;
      }
    }
    newly_quarantined = maybe_quarantine(entry);
    if (newly_quarantined > 0) kernel_name = trace::intern(entry.kernel);
  }
  // Anomaly outside the lock: the tune dump section re-acquires mutex_.
  // The reporting thread still carries the triggering request's context.
  if (newly_quarantined > 0 && obs::enabled()) {
    obs::anomaly(obs::Kind::Quarantine, trace::current_context(), kernel_name,
                 core::Status::Success, newly_quarantined);
  }
}

std::size_t Tuner::maybe_quarantine(Entry& entry) {
  double best = 0.0;
  for (const CandidateState& c : entry.candidates) {
    if (c.best_seconds > 0.0 && (best == 0.0 || c.best_seconds < best)) {
      best = c.best_seconds;
    }
  }
  if (best <= 0.0) return 0;
  std::size_t newly = 0;
  for (CandidateState& c : entry.candidates) {
    // Two trials of headroom before the guard fires: one bad sample can be
    // scheduler noise; best-of-two above the ratio is a real regression.
    if (!c.quarantined && c.trials >= 2 &&
        c.best_seconds > best * kQuarantineRatio) {
      c.quarantined = true;
      ++stats_.quarantined;
      ++newly;
      MCL_PROF_COUNT("tune.quarantined", 1);
    }
  }
  return newly;
}

std::optional<TunedConfig> Tuner::tuned_config(const ocl::KernelDef& def,
                                               const ocl::NDRange& global,
                                               const ocl::NDRange& local,
                                               bool has_local_args,
                                               std::size_t threads) {
  const std::string key =
      entry_key(def.name, global, local, threads, has_local_args);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      return it->second.candidates[it->second.incumbent].config;
    }
  }
  // No entry: pure seed ranking, no state recorded.
  const Features feats = features_for(def);
  std::vector<TunedConfig> candidates =
      enumerate_candidates(def, feats, global, local, has_local_args, threads);
  if (candidates.empty()) return std::nullopt;
  return candidates.front();
}

void Tuner::prewarm(const ocl::KernelDef& def) { (void)features_for(def); }

void Tuner::evict(const std::string& kernel) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.kernel == kernel) {
      it = entries_.erase(it);
      ++stats_.evictions;
      MCL_PROF_COUNT("tune.evictions", 1);
    } else {
      ++it;
    }
  }
}

void Tuner::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::size_t Tuner::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t Tuner::entry_count(const std::string& kernel) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.kernel == kernel) ++n;
  }
  return n;
}

bool Tuner::converged(const std::string& kernel, const ocl::NDRange& global,
                      const ocl::NDRange& local, std::size_t threads,
                      bool has_local_args) const {
  const std::string key =
      entry_key(kernel, global, local, threads, has_local_args);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.converged;
}

std::string Tuner::obs_section_json() const {
  // Called from obs dump assembly; must only take mutex_ (no obs calls).
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out.push_back('?');
      } else {
        out.push_back(c);
      }
    }
    return out;
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"decisions\":" << stats_.decisions
      << ",\"explore\":" << stats_.explore
      << ",\"exploit\":" << stats_.exploit
      << ",\"quarantined\":" << stats_.quarantined
      << ",\"converged\":" << stats_.converged
      << ",\"cache_hits\":" << stats_.cache_hits << ",\"entries\":[";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    if (!first) out << ',';
    first = false;
    const CandidateState& inc = entry.candidates[entry.incumbent];
    out << "{\"key\":\"" << escape(key) << "\",\"kernel\":\""
        << escape(entry.kernel) << "\",\"incumbent\":" << entry.incumbent
        << ",\"incumbent_local\":\"";
    if (inc.config.local.is_null()) {
      out << "auto";
    } else {
      out << inc.config.local[0] << "x" << inc.config.local[1] << "x"
          << inc.config.local[2];
    }
    out << "\",\"best_seconds\":" << inc.best_seconds
        << ",\"converged\":" << (entry.converged ? "true" : "false")
        << ",\"from_cache\":" << (entry.from_cache ? "true" : "false")
        << ",\"launches\":" << entry.launches
        << ",\"candidates\":" << entry.candidates.size() << "}";
  }
  out << "]}";
  return out.str();
}

TunerStats Tuner::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Tuner::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = TunerStats{};
}

}  // namespace mcl::tune
