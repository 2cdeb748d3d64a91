#include "check/interp.hpp"

#include "core/error.hpp"

namespace mcl::check {

namespace {

/// Splits into barrier epochs on the fly: executes stmts [begin, end) where
/// end is the next barrier (or the end of the program).
void run_item(const Case& c, long long gid, long long lid,
              std::uint32_t* const* mem, std::uint32_t* temps,
              const ocl::WorkItemCtx& ctx) {
  const bool active = gid < c.work_items;
  for (const Stmt& s : c.stmts) {
    if (s.barrier) {
      // Every item of the group reaches the barrier (validate() forbids
      // guarded tails in barrier cases, so `active` is uniform).
      ctx.barrier();
      continue;
    }
    if (active) eval_stmt(c, s, gid, lid, mem, temps);
  }
}

void fill_mem_table(const Case& c, const ocl::KernelArgs& args,
                    const ocl::WorkItemCtx* ctx,
                    std::uint32_t** mem) {
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    const std::size_t slot = i + 1;
    mem[i] = c.arrays[i].local ? ctx->local_mem<std::uint32_t>(slot)
                               : args.buffer<std::uint32_t>(slot);
  }
}

/// A case is a 1-D program over `global` items; a 2-D launch of the same
/// total covers them row-major, item (x, y) being item y * global_size(0) + x.
long long flat_id(std::size_t x, std::size_t y, std::size_t global_size0) {
  return static_cast<long long>(y * global_size0 + x);
}

void interp_scalar(const ocl::KernelArgs& args, const ocl::WorkItemCtx& ctx) {
  const Case* c = args.scalar<const Case*>(0);
  std::uint32_t* mem[kMaxArrays] = {};
  fill_mem_table(*c, args, &ctx, mem);
  std::uint32_t temps[kMaxTemps] = {};
  run_item(*c, flat_id(ctx.global_id(0), ctx.global_id(1), ctx.global_size(0)),
           static_cast<long long>(ctx.local_id(0)), mem, temps, ctx);
}

void interp_simd(const ocl::KernelArgs& args, const ocl::SimdItemCtx& ctx) {
  // Lane-group form for barrier-free, local-free cases only: each lane is
  // interpreted with the shared eval_stmt, so the Simd executor's batching
  // and remainder handling are what this form actually tests.
  const Case* c = args.scalar<const Case*>(0);
  std::uint32_t* mem[kMaxArrays] = {};
  for (std::size_t i = 0; i < c->arrays.size(); ++i) {
    mem[i] = args.buffer<std::uint32_t>(i + 1);
  }
  const std::size_t width = static_cast<std::size_t>(ctx.width());
  ctx.for_each_lane_group([&](std::size_t x, std::size_t y) {
    for (std::size_t lane = 0; lane < width; ++lane) {
      const long long gid = flat_id(x + lane, y, ctx.global_size(0));
      if (gid >= c->work_items) continue;
      std::uint32_t temps[kMaxTemps] = {};
      for (const Stmt& s : c->stmts) {
        eval_stmt(*c, s, gid, /*lid=*/0, mem, temps);
      }
    }
  });
}

}  // namespace

ocl::KernelDef make_kernel_def(const Case& c, bool with_simd) {
  ocl::KernelDef def;
  def.name = "mclcheck.case";
  def.scalar = &interp_scalar;
  def.needs_barrier = c.has_barrier();
  if (with_simd) {
    core::check(!c.has_barrier() && !c.has_local(),
                core::Status::InvalidOperation,
                "simd form requires a barrier-free, local-free case");
    def.simd = &interp_simd;
  }
  return def;
}

void bind_args(ocl::Kernel& kernel, const Case& c,
               const std::vector<ocl::Buffer*>& buffers) {
  kernel.set_arg(0, static_cast<const Case*>(&c));
  for (std::size_t i = 0; i < c.arrays.size(); ++i) {
    if (c.arrays[i].local) {
      kernel.set_arg_local(
          i + 1, static_cast<std::size_t>(c.arrays[i].extent) *
                     sizeof(std::uint32_t));
    } else {
      kernel.set_arg(i + 1, *buffers[i]);
    }
  }
}

}  // namespace mcl::check
