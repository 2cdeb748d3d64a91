// MCL_TUNE_CACHE persistence: versioned, checksummed, generation-guarded.
//
// Text format (one token stream per line, space-separated):
//
//   mcltune v4
//   row <key-with-spaces-escaped> <generation> <dims> <l0> <l1> <l2>
//       <exec> <chunk_div> <best_ns>
//   ...
//   checksum <fnv1a64-hex-of-all-preceding-bytes>
//
// (v2: the entry key grew a |aB local-memory-args suffix; v3: the row lost
// its map-vs-copy column; v4: the row lost its scheduler column, since the
// pool has one workgroup distribution. Files of an older version are
// rejected whole, so an old key or column layout is never misread.)
//
// Only CONVERGED entries are saved — a warm process loads rows as converged
// single-candidate entries and therefore never explores (the tune.explore==0
// acceptance criterion). Keys never contain spaces
// (kernel|gNxNxN|l...|tN|aB), so no escaping is actually needed; the loader
// still rejects malformed rows. Generation is a weak guard (a per-process
// registration counter), so warm rows are additionally legality-checked
// against the live KernelDef on their first decide() — see
// Tuner::find_or_create.
//
// Failure policy: a missing header, version mismatch, missing/incorrect
// checksum trailer, or any truncation rejects the WHOLE file (cold start is
// always safe; a half-trusted cache is not). A row whose generation differs
// from the kernel's current KernelIrRegistry generation is skipped
// individually — the kernel was re-registered since the cache was written.
//
// Writer: serialize to <path>.tmp.<pid>.<n>, then ::rename() over the
// target.
// rename(2) is atomic within a filesystem, so concurrent writers interleave
// to "one of the complete files", never a torn mix.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "tune/tune.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl::tune {
namespace {

constexpr const char* kHeader = "mcltune v4";

std::uint64_t fnv1a64_bytes(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

int executor_code(ocl::ExecutorKind k) {
  switch (k) {
    case ocl::ExecutorKind::Auto: return 0;
    case ocl::ExecutorKind::Loop: return 1;
    case ocl::ExecutorKind::Fiber: return 2;
    case ocl::ExecutorKind::Simd: return 3;
    case ocl::ExecutorKind::Checked: return 4;
  }
  return 0;
}

bool executor_from_code(int code, ocl::ExecutorKind& out) {
  switch (code) {
    case 0: out = ocl::ExecutorKind::Auto; return true;
    case 1: out = ocl::ExecutorKind::Loop; return true;
    case 2: out = ocl::ExecutorKind::Fiber; return true;
    case 3: out = ocl::ExecutorKind::Simd; return true;
    // Checked is deliberately not loadable: the sanitizer executor must
    // never be installed by a (possibly hand-edited) cache file.
    default: return false;
  }
}

}  // namespace

bool Tuner::save_cache(const std::string& path) const {
  std::ostringstream body;
  body << kHeader << "\n";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : entries_) {
      if (!entry.converged) continue;
      const CandidateState& best = entry.candidates[entry.incumbent];
      const TunedConfig& cfg = best.config;
      body << "row " << key << " " << entry.generation << " "
           << cfg.local.dims << " " << cfg.local.size[0] << " "
           << cfg.local.size[1] << " " << cfg.local.size[2] << " "
           << executor_code(cfg.executor) << " " << cfg.chunk_divisor << " "
           << static_cast<std::uint64_t>(best.best_seconds * 1e9)
           << "\n";
    }
  }
  std::string payload = body.str();
  {
    std::ostringstream trailer;
    trailer << "checksum " << std::hex << fnv1a64_bytes(payload) << "\n";
    payload += trailer.str();
  }

  // Unique per call, not just per process: two threads saving concurrently
  // must not interleave into one temp file (rename would publish the tear).
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << payload;
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::size_t Tuner::load_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();

  // Split off the checksum trailer (the last line) and verify it covers
  // every byte before it.
  const std::size_t last_nl = contents.rfind('\n');
  if (last_nl == std::string::npos) return 0;
  const std::size_t prev_nl = contents.rfind('\n', last_nl - 1);
  if (prev_nl == std::string::npos) return 0;
  const std::string trailer = contents.substr(prev_nl + 1, last_nl - prev_nl - 1);
  const std::string payload = contents.substr(0, prev_nl + 1);
  {
    std::istringstream ts(trailer);
    std::string word;
    std::uint64_t claimed = 0;
    if (!(ts >> word) || word != "checksum" || !(ts >> std::hex >> claimed) ||
        claimed != fnv1a64_bytes(payload)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_rows_rejected;
      return 0;
    }
  }

  std::istringstream lines(payload);
  std::string line;
  if (!std::getline(lines, line) || line != kHeader) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cache_rows_rejected;
    return 0;
  }

  std::size_t accepted = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string tag, key;
    std::uint64_t generation = 0;
    std::size_t dims = 0, l0 = 0, l1 = 0, l2 = 0, chunk_div = 0;
    int exec_code = 0;
    std::uint64_t best_ns = 0;
    if (!(row >> tag >> key >> generation >> dims >> l0 >> l1 >> l2 >>
          exec_code >> chunk_div >> best_ns) ||
        tag != "row" || dims > 3 || chunk_div == 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_rows_rejected;
      continue;
    }
    TunedConfig cfg;
    if (!executor_from_code(exec_code, cfg.executor)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_rows_rejected;
      continue;
    }
    cfg.local.dims = dims;
    cfg.local.size[0] = dims > 0 ? l0 : 0;
    cfg.local.size[1] = dims > 1 ? l1 : (dims > 0 ? 1 : 0);
    cfg.local.size[2] = dims > 2 ? l2 : (dims > 0 ? 1 : 0);
    cfg.chunk_divisor = chunk_div;

    // Generation guard: the row's kernel name is the key prefix up to '|'.
    const std::string kernel = key.substr(0, key.find('|'));
    const std::uint64_t current =
        veclegal::KernelIrRegistry::instance().generation(kernel);
    if (generation != current) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_rows_rejected;
      continue;
    }

    Entry entry;
    entry.kernel = kernel;
    entry.generation = generation;
    CandidateState cs;
    cs.config = cfg;
    cs.best_seconds = static_cast<double>(best_ns) * 1e-9;
    cs.trials = 1;
    entry.candidates.push_back(std::move(cs));
    entry.incumbent = 0;
    entry.converged = true;  // warm entries never explore
    entry.from_cache = true;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      entries_[key] = std::move(entry);
      ++stats_.cache_rows_loaded;
    }
    ++accepted;
  }
  return accepted;
}

}  // namespace mcl::tune
