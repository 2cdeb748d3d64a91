// Internal: per-launch execution state shared by the CPU and simulated-GPU
// devices. Validates the launch once, then executes ranges of workgroups by
// linear index with the selected executor.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "ocl/kernel.hpp"
#include "ocl/types.hpp"

namespace mcl::ocl::detail {

class GroupRunner {
 public:
  /// Validates (throws core::Error on invalid launches) and resolves the
  /// NULL local size and the Auto executor. `offset` (may be null) shifts
  /// every global id (clEnqueueNDRangeKernel's global_work_offset).
  GroupRunner(const KernelDef& def, const KernelArgs& args,
              const NDRange& global, const NDRange& local, ExecutorKind kind,
              std::size_t fiber_stack_bytes, const NDRange& offset = NDRange{});

  [[nodiscard]] std::size_t total_groups() const noexcept { return total_groups_; }
  [[nodiscard]] const NDRange& local() const noexcept { return local_; }
  [[nodiscard]] ExecutorKind executor() const noexcept { return kind_; }

  /// Executes the workgroups with linear ids [begin, end) in order, on the
  /// calling thread. The per-group setup (id decode, local-memory arena,
  /// executor choice, context construction) is paid once per range; each
  /// group then only updates its ids. Thread-safe across disjoint ranges;
  /// the groups of one range share a thread-local local-memory arena.
  void run_groups(std::size_t begin, std::size_t end) const;

 private:
  using GroupId = std::array<std::size_t, 3>;

  /// Steps `g` to the next linear group, carrying into dims 1 and 2.
  void next_group(GroupId& g) const noexcept {
    if (++g[0] < ngroups_[0]) return;
    g[0] = 0;
    if (++g[1] < ngroups_[1]) return;
    g[1] = 0;
    ++g[2];
  }

  // Each runs `count` consecutive groups starting at group id `g`.
  void run_loop(GroupId g, std::size_t count, void* const* local_mem) const;
  void run_simd(GroupId g, std::size_t count, void* const* local_mem) const;
  void run_fiber(GroupId g, std::size_t count, void* const* local_mem) const;
  void run_wgfn(GroupId g, std::size_t count, void* const* local_mem) const;

  /// Fills the thread-local local-memory arena; returns pointer table.
  [[nodiscard]] void* const* prepare_local_mem() const;

  const KernelDef& def_;
  const KernelArgs& args_;
  NDRange global_;
  NDRange local_;
  NDRange offset_;
  ExecutorKind kind_;
  std::size_t fiber_stack_bytes_;
  std::size_t ngroups_[3] = {1, 1, 1};
  std::size_t total_groups_ = 0;
  // Local-memory layout: arg index -> offset into the arena.
  std::vector<std::pair<std::size_t, std::size_t>> local_args_;
  std::size_t local_total_bytes_ = 0;
  std::size_t max_local_arg_index_ = 0;
};

}  // namespace mcl::ocl::detail
