// Internal: executor-side mutation of the kernel contexts. Not part of the
// public API; device implementations and tests of the execution machinery
// are the only intended includes.
#pragma once

#include <functional>

#include "ocl/kernel.hpp"

namespace mcl::ocl {

struct CtxAccess {
  // ---- WorkItemCtx ----------------------------------------------------------
  static void set_sizes(WorkItemCtx& c, const NDRange& global,
                        const NDRange& local,
                        const NDRange& offset = NDRange{}) noexcept {
    for (std::size_t d = 0; d < 3; ++d) {
      c.global_size_[d] = global[d];
      c.local_size_[d] = local[d];
      c.offset_[d] = offset.offset_component(d);
    }
  }
  static void set_group(WorkItemCtx& c, std::size_t g0, std::size_t g1,
                        std::size_t g2) noexcept {
    c.group_[0] = g0;
    c.group_[1] = g1;
    c.group_[2] = g2;
  }
  /// Sets the local id and derives the global id from the group id.
  static void set_item(WorkItemCtx& c, std::size_t x, std::size_t y,
                       std::size_t z) noexcept {
    c.local_[0] = x;
    c.local_[1] = y;
    c.local_[2] = z;
    c.global_[0] = c.offset_[0] + c.group_[0] * c.local_size_[0] + x;
    c.global_[1] = c.offset_[1] + c.group_[1] * c.local_size_[1] + y;
    c.global_[2] = c.offset_[2] + c.group_[2] * c.local_size_[2] + z;
  }
  static void set_local_mem(WorkItemCtx& c, void* const* base) noexcept {
    c.local_mem_base_ = base;
  }
  static void set_barrier(WorkItemCtx& c, std::function<void()>* fn) noexcept {
    c.barrier_fn_ = fn;
  }
  static std::function<void()>* barrier_fn(const WorkItemCtx& c) noexcept {
    return c.barrier_fn_;
  }

  // ---- SimdItemCtx ----------------------------------------------------------
  static void init_simd(SimdItemCtx& c, const NDRange& global,
                        const NDRange& local, int width) noexcept {
    for (std::size_t d = 0; d < 3; ++d) {
      c.global_size_[d] = global[d];
      c.local_size_[d] = local[d];
    }
    c.width_ = width;
  }
  /// Positions the view at the plane whose first item is (base, gy, gz).
  static void set_simd_pos(SimdItemCtx& c, std::size_t base,
                           std::size_t lane_groups, std::size_t gy,
                           std::size_t gz) noexcept {
    c.global_base_ = base;
    c.lane_groups_ = lane_groups;
    c.higher_[0] = gy;
    c.higher_[1] = gz;
  }

  // ---- WorkGroupCtx ---------------------------------------------------------
  static void init_group(WorkGroupCtx& c, const NDRange& global,
                         const NDRange& local, void* const* local_mem,
                         const NDRange& offset = NDRange{}) noexcept {
    for (std::size_t d = 0; d < 3; ++d) {
      c.global_size_[d] = global[d];
      c.local_size_[d] = local[d];
      c.offset_[d] = offset.offset_component(d);
    }
    c.local_mem_base_ = local_mem;
  }
  static void set_group_id(WorkGroupCtx& c, std::size_t g0, std::size_t g1,
                           std::size_t g2) noexcept {
    c.group_[0] = g0;
    c.group_[1] = g1;
    c.group_[2] = g2;
  }
};

}  // namespace mcl::ocl
