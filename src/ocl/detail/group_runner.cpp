#include "ocl/detail/group_runner.hpp"

#include <algorithm>
#include <functional>

#include "ocl/detail/ctx_access.hpp"
#include "simd/vec.hpp"
#include "threading/fiber.hpp"

namespace mcl::ocl::detail {

namespace {

/// Thread-local scratch backing workgroup local memory. A range of
/// workgroups runs entirely on one thread (each group on that thread or as
/// one fiber group on it), one group after another, so the arena is reused
/// across groups without synchronization.
struct LocalArena {
  std::vector<std::byte> bytes;
  std::vector<void*> ptrs;
};
thread_local LocalArena t_arena;

}  // namespace

GroupRunner::GroupRunner(const KernelDef& def, const KernelArgs& args,
                         const NDRange& global, const NDRange& local,
                         ExecutorKind kind, std::size_t fiber_stack_bytes,
                         const NDRange& offset)
    : def_(def),
      args_(args),
      global_(global),
      offset_(offset),
      fiber_stack_bytes_(fiber_stack_bytes) {
  core::check(offset.is_null() || offset.dims == global.dims,
              core::Status::InvalidGlobalWorkSize,
              "global offset dimensionality differs from global size");
  core::check(!global.is_null() && global.total() > 0,
              core::Status::InvalidGlobalWorkSize,
              "global work size must be nonzero");

  local_ = local.is_null() ? pick_default_local(global) : local;
  core::check(local_.dims == global.dims, core::Status::InvalidWorkGroupSize,
              "local and global dimensionality differ");
  total_groups_ = 1;
  for (std::size_t d = 0; d < global.dims; ++d) {
    core::check(local_[d] > 0, core::Status::InvalidWorkGroupSize,
                "local size must be nonzero");
    core::check(global[d] % local_[d] == 0, core::Status::InvalidWorkGroupSize,
                "global size must be divisible by local size (OpenCL 1.x rule)");
    ngroups_[d] = global[d] / local_[d];
    total_groups_ *= ngroups_[d];
  }

  // Local-memory layout.
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    core::check(args.is_set(i), core::Status::InvalidKernelArgs,
                "kernel '" + def.name + "': argument " + std::to_string(i) +
                    " was never set");
    if (args.is_local(i)) {
      local_args_.emplace_back(i, local_total_bytes_);
      local_total_bytes_ += (args.local_bytes(i) + 63) & ~std::size_t{63};
      max_local_arg_index_ = std::max(max_local_arg_index_, i);
    }
  }

  // Resolve the executor. Checked is handled by CheckedRunner, which wraps
  // this class; a bare GroupRunner degrades it to the matching plain kind.
  kind_ = kind;
  if (kind_ == ExecutorKind::Checked) {
    kind_ = def.needs_barrier ? ExecutorKind::Fiber : ExecutorKind::Loop;
  }
  if (kind_ == ExecutorKind::Auto) {
    if (def.workgroup != nullptr) {
      // Workgroup-form kernels run as a whole group per call; reuse the Loop
      // slot to mean "non-fiber, non-simd".
      kind_ = ExecutorKind::Loop;
    } else if (def.needs_barrier) {
      kind_ = ExecutorKind::Fiber;
    } else if (def.simd != nullptr && simd::kNativeFloatWidth > 1) {
      kind_ = ExecutorKind::Simd;
    } else {
      kind_ = ExecutorKind::Loop;
    }
  }
  if (kind_ == ExecutorKind::Simd) {
    core::check(def.simd != nullptr, core::Status::InvalidOperation,
                "kernel '" + def.name + "' has no simd form");
  }
  // A barrier kernel on a barrier-less executor used to surface as UB (a
  // throw from inside the kernel body); reject the launch up front instead.
  // The Checked executor runs barrier kernels on fibers, so it passes.
  if (def.workgroup == nullptr && def.scalar != nullptr && def.needs_barrier &&
      (kind_ == ExecutorKind::Loop || kind_ == ExecutorKind::Simd)) {
    throw core::Error(core::Status::InvalidLaunch,
                      "kernel '" + def.name +
                          "' requires barriers but resolved to a non-fiber "
                          "executor; select Fiber, Checked or Auto");
  }
  if (def.scalar == nullptr) {
    core::check(def.workgroup != nullptr, core::Status::BuildProgramFailure,
                "kernel lacks any body");
    kind_ = ExecutorKind::Loop;  // workgroup form ignores the executor knob
  }
}

void* const* GroupRunner::prepare_local_mem() const {
  if (local_args_.empty()) return nullptr;
  LocalArena& arena = t_arena;
  if (arena.bytes.size() < local_total_bytes_)
    arena.bytes.resize(local_total_bytes_);
  if (arena.ptrs.size() < max_local_arg_index_ + 1)
    arena.ptrs.assign(max_local_arg_index_ + 1, nullptr);
  for (const auto& [arg_index, offset] : local_args_) {
    arena.ptrs[arg_index] = arena.bytes.data() + offset;
  }
  return arena.ptrs.data();
}

void GroupRunner::run_groups(std::size_t begin, std::size_t end) const {
  const GroupId first = {begin % ngroups_[0],
                         (begin / ngroups_[0]) % ngroups_[1],
                         begin / (ngroups_[0] * ngroups_[1])};
  const std::size_t count = end - begin;
  void* const* local_mem = prepare_local_mem();

  if (def_.workgroup != nullptr) {
    run_wgfn(first, count, local_mem);
    return;
  }
  switch (kind_) {
    case ExecutorKind::Loop: run_loop(first, count, local_mem); break;
    case ExecutorKind::Simd: run_simd(first, count, local_mem); break;
    case ExecutorKind::Fiber: run_fiber(first, count, local_mem); break;
    case ExecutorKind::Auto:
    case ExecutorKind::Checked:
      break;  // both resolved to a concrete kind in the constructor
  }
}

void GroupRunner::run_loop(GroupId g, std::size_t count,
                           void* const* local_mem) const {
  WorkItemCtx ctx;
  CtxAccess::set_sizes(ctx, global_, local_, offset_);
  CtxAccess::set_local_mem(ctx, local_mem);
  const std::size_t lx = local_[0], ly = local_[1], lz = local_[2];
  for (; count > 0; --count, next_group(g)) {
    CtxAccess::set_group(ctx, g[0], g[1], g[2]);
    for (std::size_t z = 0; z < lz; ++z) {
      for (std::size_t y = 0; y < ly; ++y) {
        for (std::size_t x = 0; x < lx; ++x) {
          CtxAccess::set_item(ctx, x, y, z);
          def_.scalar(args_, ctx);
        }
      }
    }
  }
}

void GroupRunner::run_simd(GroupId g, std::size_t count,
                           void* const* local_mem) const {
  constexpr std::size_t W = static_cast<std::size_t>(simd::kNativeFloatWidth);
  SimdItemCtx vctx;
  CtxAccess::init_simd(vctx, global_, local_, simd::kNativeFloatWidth);
  WorkItemCtx ctx;  // scalar remainder
  CtxAccess::set_sizes(ctx, global_, local_, offset_);
  CtxAccess::set_local_mem(ctx, local_mem);

  const std::size_t lx = local_[0], ly = local_[1], lz = local_[2];
  const std::size_t off[3] = {offset_.offset_component(0),
                              offset_.offset_component(1),
                              offset_.offset_component(2)};
  const std::size_t vec_end = lx - lx % W;
  const std::size_t lane_groups = vec_end / W;
  for (; count > 0; --count, next_group(g)) {
    CtxAccess::set_group(ctx, g[0], g[1], g[2]);
    const std::size_t base0 = off[0] + g[0] * lx;
    const std::size_t base1 = off[1] + g[1] * ly;
    const std::size_t base2 = off[2] + g[2] * lz;
    for (std::size_t z = 0; z < lz; ++z) {
      if (lane_groups > 0) {
        // One call covers every full lane group of the plane's rows — the
        // batching a compiled workgroup loop gets, so per-item dispatch cost
        // stays off the vectorized path and the body can interleave rows.
        CtxAccess::set_simd_pos(vctx, base0, lane_groups, base1, base2 + z);
        def_.simd(args_, vctx);
      }
      for (std::size_t y = 0; y < ly; ++y) {
        for (std::size_t x = vec_end; x < lx; ++x) {
          CtxAccess::set_item(ctx, x, y, z);
          def_.scalar(args_, ctx);
        }
      }
    }
  }
}

void GroupRunner::run_fiber(GroupId g, std::size_t count,
                            void* const* local_mem) const {
  const std::size_t items = local_.total();
  for (; count > 0; --count, next_group(g)) {
    threading::run_fiber_group(
        items,
        [&](std::size_t index, threading::FiberYield& yield) {
          std::function<void()> barrier_fn = [&yield] { yield.barrier(); };
          WorkItemCtx ctx;
          CtxAccess::set_sizes(ctx, global_, local_, offset_);
          CtxAccess::set_group(ctx, g[0], g[1], g[2]);
          CtxAccess::set_local_mem(ctx, local_mem);
          CtxAccess::set_barrier(ctx, &barrier_fn);
          const std::size_t x = index % local_[0];
          const std::size_t y = (index / local_[0]) % local_[1];
          const std::size_t z = index / (local_[0] * local_[1]);
          CtxAccess::set_item(ctx, x, y, z);
          def_.scalar(args_, ctx);
        },
        fiber_stack_bytes_);
  }
}

void GroupRunner::run_wgfn(GroupId g, std::size_t count,
                           void* const* local_mem) const {
  WorkGroupCtx ctx;
  CtxAccess::init_group(ctx, global_, local_, local_mem, offset_);
  for (; count > 0; --count, next_group(g)) {
    CtxAccess::set_group_id(ctx, g[0], g[1], g[2]);
    def_.workgroup(args_, ctx);
  }
}

}  // namespace mcl::ocl::detail
