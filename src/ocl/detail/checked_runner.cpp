#include "ocl/detail/checked_runner.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "ocl/detail/ctx_access.hpp"
#include "threading/fiber.hpp"
#include "veclegal/kernel_ir.hpp"
#include "verify/verify.hpp"

namespace mcl::ocl::detail {

namespace {

constexpr std::size_t kCanaryBytes = 64;
constexpr std::byte kCanaryPattern{0xCB};
constexpr std::size_t kFindingCap = 16;

[[nodiscard]] std::size_t round64(std::size_t n) noexcept {
  return (n + 63) & ~std::size_t{63};
}

}  // namespace

CheckedRunner::CheckedRunner(const KernelDef& def, const KernelArgs& args,
                             const NDRange& global, const NDRange& local,
                             std::size_t fiber_stack_bytes,
                             const NDRange& offset)
    : def_(def),
      args_(args),
      global_(global),
      offset_(offset),
      fiber_stack_bytes_(fiber_stack_bytes),
      // The GroupRunner constructor performs all launch validation (unset
      // args, divisibility, barrier/executor compatibility) and resolves the
      // NULL local size; Checked degrades inside it to Fiber/Loop, which is
      // exactly the compatibility we need. Its run_groups() is never called —
      // execution happens here, instrumented.
      validator_(def, args, global, local, ExecutorKind::Checked,
                 fiber_stack_bytes, offset) {
  local_ = validator_.local();
  for (std::size_t d = 0; d < 3; ++d) ngroups_[d] = global_[d] / local_[d];
  // Local-memory arena with canary zones around every block: the block a
  // kernel sees at local_mem(arg) is bracketed by kCanaryBytes of 0xCB on
  // each side, checked after every workgroup (rule M1).
  std::size_t arena_bytes = 0;
  std::size_t max_arg = 0;
  for (std::size_t i = 0; i < args_.arg_count(); ++i) {
    if (!args_.is_local(i)) continue;
    const std::size_t bytes = args_.local_bytes(i);
    blocks_.push_back({i, arena_bytes + kCanaryBytes, bytes});
    arena_bytes += kCanaryBytes + round64(bytes) + kCanaryBytes;
    max_arg = std::max(max_arg, i);
  }
  arena_.resize(arena_bytes);
  local_ptrs_.assign(blocks_.empty() ? 0 : max_arg + 1, nullptr);
  for (const LocalBlock& b : blocks_) {
    local_ptrs_[b.arg] = arena_.data() + b.data_off;
  }
}

void CheckedRunner::add_finding(std::string line) {
  if (std::find(findings_.begin(), findings_.end(), line) != findings_.end())
    return;
  if (findings_.size() >= kFindingCap) {
    ++suppressed_;
    return;
  }
  findings_.push_back(std::move(line));
}

void CheckedRunner::add_finding_keyed(const std::string& key,
                                      std::string line) {
  if (!finding_keys_.insert(key).second) {
    ++suppressed_;
    return;
  }
  add_finding(std::move(line));
}

// ---- static-shape replay of the registered IR ------------------------------

void CheckedRunner::replay_ir(const veclegal::KernelIr& ir) {
  // The IR models a 1D kernel whose induction variable is the dim-0 global
  // id; higher-dimensional launches are covered by the coarse checks only.
  if (global_.dims != 1) return;
  const auto& stmts = ir.body.stmts;
  const long long n = static_cast<long long>(global_[0]);
  const long long local0 = static_cast<long long>(local_[0]);
  const long long off0 = static_cast<long long>(offset_.offset_component(0));

  // Barrier statements partition the body into epochs; an access in stmt k
  // belongs to the epoch counted before k.
  std::vector<int> epoch(stmts.size(), 0);
  {
    int e = 0;
    for (std::size_t k = 0; k < stmts.size(); ++k) {
      epoch[k] = e;
      if (stmts[k].barrier) ++e;
    }
  }

  // Launches beyond int32 ids would overflow the compact shadow cells; such
  // sizes are far outside what the Checked (serial) executor is for.
  if (n > (1ll << 31) - 2) return;

  // Proof-carrying launch: discharge the kernel's symbolic facts against
  // this launch's shape class. Arrays the proof covers are exempted from
  // shadow replay below; everything unproven is replayed as before. Extents
  // and writability are resolved EXACTLY like the replay's own shadows, so
  // the proof talks about the same obligations the replay would check.
  std::shared_ptr<const verify::KernelFacts> facts;
  std::set<int> proven_ids;
  if (verify::runtime_enabled()) {
    facts = verify::facts_for(def_.name);
  }
  if (facts != nullptr) {
    verify::ShapeClass shape;
    shape.global0 = n;
    shape.local0 = local0;
    shape.offset0 = off0;
    for (const verify::ArrayFacts& af : facts->arrays) {
      long long extent = af.declared_extent;
      bool writable = true;
      if (af.arg_index >= 0) {
        const std::size_t arg = static_cast<std::size_t>(af.arg_index);
        if (extent <= 0 && af.local && args_.is_local(arg)) {
          extent =
              static_cast<long long>(args_.local_bytes(arg) / af.elem_bytes);
        } else if (const Buffer* buf = args_.buffer_object(arg)) {
          if (extent <= 0) {
            extent = static_cast<long long>(buf->size() / af.elem_bytes);
          }
          writable = buf->kernel_writable();
        }
      }
      shape.extents.push_back(extent);
      shape.writable.push_back(writable);
    }
    proof_ = verify::discharge_cached(def_.name, *facts, shape);
    // Under forced full replay (the soundness oracle) the proof is still
    // computed and exposed, but every access is replayed regardless — that
    // is the ground truth proofs are checked against.
    if (!force_full_replay_) {
      for (std::size_t idx = 0; idx < facts->arrays.size(); ++idx) {
        if (proof_->array_proven[idx]) {
          proven_ids.insert(facts->arrays[idx].array);
        }
      }
    }
  }

  // One shadow per array: per-element last writer and last reader. Recording
  // only the most recent access of each kind still reports at least one
  // conflict per racy element, at O(1) per declared access. Cells are kept
  // small (12 bytes) because shadow traffic dominates the mode's overhead;
  // the accessing item's workgroup is derived from its id when needed.
  struct Cell {
    std::int32_t writer = -1, reader = -1;
    std::uint16_t writer_epoch = 0, reader_epoch = 0;
  };
  struct Shadow {
    int id = 0;
    const veclegal::ArrayInfo* info = nullptr;
    long long extent = 0;
    bool writable = true;
    bool local = false;
    std::vector<Cell> cells;
  };
  std::vector<Shadow> shadows;
  auto shadow_index = [&](int id) -> std::size_t {
    for (std::size_t s = 0; s < shadows.size(); ++s) {
      if (shadows[s].id == id) return s;
    }
    Shadow s;
    s.id = id;
    s.info = ir.array_info(id);
    if (s.info != nullptr) {
      s.local = s.info->local;
      long long extent = s.info->extent;
      if (extent <= 0 && s.info->arg_index >= 0) {
        const std::size_t arg = static_cast<std::size_t>(s.info->arg_index);
        if (s.info->local && args_.is_local(arg)) {
          extent = static_cast<long long>(args_.local_bytes(arg) /
                                          s.info->elem_bytes);
        } else if (const Buffer* buf = args_.buffer_object(arg)) {
          extent = static_cast<long long>(buf->size() / s.info->elem_bytes);
        }
      }
      if (s.info->arg_index >= 0) {
        if (const Buffer* buf = args_.buffer_object(
                static_cast<std::size_t>(s.info->arg_index))) {
          s.writable = buf->kernel_writable();
        }
      }
      s.extent = extent;
      if (extent > 0) s.cells.resize(static_cast<std::size_t>(extent));
    }
    shadows.push_back(std::move(s));
    return shadows.size() - 1;
  };

  auto array_label = [&](const Shadow& s) {
    std::string label = "array #" + std::to_string(s.id);
    if (s.info != nullptr && s.info->arg_index >= 0)
      label += " (arg " + std::to_string(s.info->arg_index) + ")";
    return label;
  };

  // Flatten every declared access into a plan resolved once, so the hot
  // per-item loop does no lookups. Per-access "already reported" flags keep
  // one example finding per (rule, statement, array).
  struct Planned {
    std::size_t shadow = 0;
    long long scale = 1, offset = 0;
    bool is_write = false;
    int epoch = 0;
    const veclegal::Stmt* stmt = nullptr;
    bool b1_fired = false, s2_fired = false, s3_fired = false;
  };
  std::vector<Planned> plan;
  bool any_local = false;
  for (std::size_t k = 0; k < stmts.size(); ++k) {
    auto add_access = [&](const veclegal::ArrayRef& ref, bool is_write) {
      if (proven_ids.count(ref.array) != 0) {
        // Every access of this array is statically proven safe for this
        // shape class; its replay (the per-item inner loop) is skipped.
        ++skipped_accesses_;
        return;
      }
      const std::size_t si = shadow_index(ref.array);
      const Shadow& s = shadows[si];
      if (s.info == nullptr || s.extent <= 0) return;  // nothing declared
      if (is_write && !s.writable) {
        flagged_arrays_.insert(s.id);
        add_finding("[W1] kernel '" + def_.name + "': write to read-only " +
                    array_label(s) + " in '" + stmts[k].text + "'");
      }
      any_local = any_local || s.local;
      ++replayed_accesses_;
      plan.push_back({si, ref.subscript.scale, ref.subscript.offset, is_write,
                      epoch[k], &stmts[k], false, false, false});
    };
    for (const veclegal::ArrayRef& r : stmts[k].array_reads)
      add_access(r, false);
    if (stmts[k].array_write) add_access(*stmts[k].array_write, true);
  }
  // A fully proven launch skips the whole per-item replay loop — the
  // measurable Checked-mode speedup of proof-carrying launches.
  if (plan.empty()) return;

  // Barrier-free bodies have a single epoch, so no two accesses are ever
  // barrier-synchronized and the group of the conflicting item is moot.
  const bool multi_epoch = epoch.empty() ? false : epoch.back() > 0 ||
      std::find_if(stmts.begin(), stmts.end(),
                   [](const veclegal::Stmt& s) { return s.barrier; }) !=
          stmts.end();

  const std::int32_t local0_32 = static_cast<std::int32_t>(local0);
  std::int32_t prev_group = -1;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    const std::int32_t group = i / local0_32;
    if (any_local && group != prev_group) {
      // Local arrays live in a fresh arena each workgroup: their shadow
      // resets at group boundaries (no cross-group aliasing).
      for (Shadow& s : shadows) {
        if (s.local) std::fill(s.cells.begin(), s.cells.end(), Cell{});
      }
      prev_group = group;
    }
    const long long gi = off0 + i;
    for (Planned& p : plan) {
      Shadow& s = shadows[p.shadow];
      const long long idx = p.scale * gi + p.offset;
      if (idx < 0 || idx >= s.extent) {
        if (!p.b1_fired) {
          p.b1_fired = true;
          flagged_arrays_.insert(s.id);
          add_finding("[B1] kernel '" + def_.name + "': out-of-bounds " +
                      (p.is_write ? "write" : "read") + " to " +
                      array_label(s) + " at index " + std::to_string(idx) +
                      " (extent " + std::to_string(s.extent) + ") in '" +
                      p.stmt->text + "' for workitem " + std::to_string(gi));
        }
        continue;
      }
      Cell& c = s.cells[static_cast<std::size_t>(idx)];
      // Two accesses are synchronized only when the same workgroup reaches
      // them in different barrier epochs; distinct groups never synchronize,
      // and same-epoch accesses by distinct items race.
      const std::uint16_t ep = static_cast<std::uint16_t>(p.epoch);
      auto synced = [&](std::int32_t other, std::uint16_t other_ep) {
        return multi_epoch && other / local0_32 == group && other_ep != ep;
      };
      if (p.is_write) {
        if (!p.s2_fired && c.writer >= 0 && c.writer != i &&
            !synced(c.writer, c.writer_epoch)) {
          p.s2_fired = true;
          flagged_arrays_.insert(s.id);
          add_finding("[S2] kernel '" + def_.name +
                      "': write-write race on " + array_label(s) + "[" +
                      std::to_string(idx) + "] between workitems " +
                      std::to_string(c.writer) + " and " + std::to_string(i) +
                      " in '" + p.stmt->text + "'");
        }
        if (!p.s3_fired && c.reader >= 0 && c.reader != i &&
            !synced(c.reader, c.reader_epoch)) {
          p.s3_fired = true;
          flagged_arrays_.insert(s.id);
          add_finding("[S3] kernel '" + def_.name + "': read-write race on " +
                      array_label(s) + "[" + std::to_string(idx) +
                      "] between reader workitem " + std::to_string(c.reader) +
                      " and writer " + std::to_string(i) + " in '" +
                      p.stmt->text + "'");
        }
        c.writer = i;
        c.writer_epoch = ep;
      } else {
        if (!p.s3_fired && c.writer >= 0 && c.writer != i &&
            !synced(c.writer, c.writer_epoch)) {
          p.s3_fired = true;
          flagged_arrays_.insert(s.id);
          add_finding("[S3] kernel '" + def_.name + "': read-write race on " +
                      array_label(s) + "[" + std::to_string(idx) +
                      "] between writer workitem " + std::to_string(c.writer) +
                      " and reader " + std::to_string(i) + " in '" +
                      p.stmt->text + "'");
        }
        c.reader = i;
        c.reader_epoch = ep;
      }
    }
  }
}

// ---- instrumented execution ------------------------------------------------

void CheckedRunner::run_group_checked_loop(std::size_t g0, std::size_t g1,
                                           std::size_t g2,
                                           void* const* local_mem) {
  std::function<void()> barrier_fn = [this] {
    add_finding("[P1] kernel '" + def_.name +
                "': barrier() called but the kernel is registered with "
                "needs_barrier=false");
  };
  WorkItemCtx ctx;
  CtxAccess::set_sizes(ctx, global_, local_, offset_);
  CtxAccess::set_group(ctx, g0, g1, g2);
  CtxAccess::set_local_mem(ctx, local_mem);
  CtxAccess::set_barrier(ctx, &barrier_fn);
  for (std::size_t z = 0; z < local_[2]; ++z) {
    for (std::size_t y = 0; y < local_[1]; ++y) {
      for (std::size_t x = 0; x < local_[0]; ++x) {
        CtxAccess::set_item(ctx, x, y, z);
        def_.scalar(args_, ctx);
      }
    }
  }
}

void CheckedRunner::run_group_checked_fiber(std::size_t g0, std::size_t g1,
                                            std::size_t g2,
                                            void* const* local_mem) {
  const std::size_t items = local_.total();
  std::vector<std::size_t> barrier_counts(items, 0);
  threading::run_fiber_group(
      items,
      [&](std::size_t index, threading::FiberYield& yield) {
        std::function<void()> barrier_fn = [&barrier_counts, index, &yield] {
          ++barrier_counts[index];
          yield.barrier();
        };
        WorkItemCtx ctx;
        CtxAccess::set_sizes(ctx, global_, local_, offset_);
        CtxAccess::set_group(ctx, g0, g1, g2);
        CtxAccess::set_local_mem(ctx, local_mem);
        CtxAccess::set_barrier(ctx, &barrier_fn);
        const std::size_t x = index % local_[0];
        const std::size_t y = (index / local_[0]) % local_[1];
        const std::size_t z = index / (local_[0] * local_[1]);
        CtxAccess::set_item(ctx, x, y, z);
        def_.scalar(args_, ctx);
      },
      fiber_stack_bytes_);
  const auto [lo, hi] =
      std::minmax_element(barrier_counts.begin(), barrier_counts.end());
  if (*lo != *hi) {
    // One example finding; every further divergent group counts as
    // suppressed instead of repeating the line per group.
    add_finding_keyed(
        "P1",
        "[P1] kernel '" + def_.name + "': barrier divergence in workgroup (" +
            std::to_string(g0) + "," + std::to_string(g1) + "," +
            std::to_string(g2) + "): workitems executed between " +
            std::to_string(*lo) + " and " + std::to_string(*hi) +
            " barrier() calls");
  }
}

void CheckedRunner::run_groups(std::size_t begin, std::size_t end) {
  auto paint_canaries = [&] {
    for (const LocalBlock& b : blocks_) {
      std::fill_n(arena_.data() + b.data_off - kCanaryBytes, kCanaryBytes,
                  kCanaryPattern);
      std::fill_n(arena_.data() + b.data_off + b.bytes,
                  round64(b.bytes) - b.bytes + kCanaryBytes, kCanaryPattern);
    }
  };
  auto check_canaries = [&](std::size_t group) {
    for (const LocalBlock& b : blocks_) {
      const std::byte* lo = arena_.data() + b.data_off - kCanaryBytes;
      const std::byte* hi = arena_.data() + b.data_off + b.bytes;
      const std::size_t hi_len = round64(b.bytes) - b.bytes + kCanaryBytes;
      const bool lo_ok =
          std::all_of(lo, lo + kCanaryBytes,
                      [](std::byte v) { return v == kCanaryPattern; });
      const bool hi_ok = std::all_of(
          hi, hi + hi_len, [](std::byte v) { return v == kCanaryPattern; });
      if (!lo_ok || !hi_ok) {
        add_finding_keyed(
            "M1:" + std::to_string(b.arg),
            "[M1] kernel '" + def_.name + "': local-memory overflow at arg " +
                std::to_string(b.arg) + " (" + std::to_string(b.bytes) +
                " bytes requested, " +
                (lo_ok ? "overrun past the end" : "underrun before the start") +
                ") in workgroup " + std::to_string(group));
      }
    }
  };

  void* const* local_mem = local_ptrs_.empty() ? nullptr : local_ptrs_.data();
  for (std::size_t g = begin; g < end; ++g) {
    const std::size_t g0 = g % ngroups_[0];
    const std::size_t g1 = (g / ngroups_[0]) % ngroups_[1];
    const std::size_t g2 = g / (ngroups_[0] * ngroups_[1]);
    paint_canaries();
    if (def_.workgroup != nullptr) {
      WorkGroupCtx ctx;
      CtxAccess::init_group(ctx, global_, local_, local_mem, offset_);
      CtxAccess::set_group_id(ctx, g0, g1, g2);
      def_.workgroup(args_, ctx);
    } else if (def_.needs_barrier) {
      run_group_checked_fiber(g0, g1, g2, local_mem);
    } else {
      run_group_checked_loop(g0, g1, g2, local_mem);
    }
    check_canaries(g);
  }
}

void CheckedRunner::run(const std::function<void()>& groups) {
  findings_.clear();
  finding_keys_.clear();
  suppressed_ = 0;
  proof_.reset();
  flagged_arrays_.clear();
  skipped_accesses_ = 0;
  replayed_accesses_ = 0;

  // Snapshot read-only buffers; any post-launch difference is a write the
  // access flags forbid (rule W1). Catches kernels with no IR descriptor.
  struct Snapshot {
    std::size_t arg;
    const Buffer* buffer;
    std::vector<std::byte> bytes;
  };
  std::vector<Snapshot> snapshots;
  for (std::size_t i = 0; i < args_.arg_count(); ++i) {
    if (!args_.is_buffer(i)) continue;
    const Buffer* buf = args_.buffer_object(i);
    if (buf == nullptr || buf->kernel_writable()) continue;
    const std::byte* p = static_cast<const std::byte*>(buf->device_ptr());
    snapshots.push_back({i, buf, std::vector<std::byte>(p, p + buf->size())});
  }

  if (const veclegal::KernelIr* ir =
          veclegal::KernelIrRegistry::instance().find(def_.name)) {
    replay_ir(*ir);
  }

  groups();

  for (const Snapshot& s : snapshots) {
    if (std::memcmp(s.bytes.data(), s.buffer->device_ptr(), s.bytes.size()) !=
        0) {
      add_finding("[W1] kernel '" + def_.name +
                  "': wrote through read-only buffer at arg " +
                  std::to_string(s.arg));
    }
  }

  if (!findings_.empty()) {
    std::string msg = "mclsan: " + std::to_string(findings_.size()) +
                      " finding(s) for kernel '" + def_.name + "'";
    for (const std::string& f : findings_) msg += "\n  " + f;
    if (suppressed_ > 0)
      msg += "\n  (+" + std::to_string(suppressed_) + " suppressed)";
    throw core::Error(core::Status::SanitizerViolation, msg);
  }
}

}  // namespace mcl::ocl::detail
