// Internal: the mclsan dynamic-mode executor (ExecutorKind::Checked).
//
// Runs a launch serially with instrumentation around it; run_groups() is the
// per-group checked step, which the CPU device drives in its serial group
// order like GroupRunner::run_groups:
//  - IR replay: when the kernel registered a veclegal::KernelIr descriptor,
//    every workitem's declared affine accesses are replayed into a per-array
//    shadow map, reporting inter-workitem races (rules S2/S3) that are not
//    separated by a barrier epoch, and out-of-bounds indices (B1). Replay is
//    O(1) per declared access, which keeps the slowdown bounded — no
//    per-item memory diffing.
//  - Read-only buffers (kernel_writable() == false) are snapshotted before
//    the launch and compared after (W1).
//  - Barrier kernels run on fibers with per-fiber barrier counters;
//    mismatched counts across a workgroup are barrier divergence (P1).
//    Non-barrier kernels run as a plain loop with a violation-recording
//    barrier so an undeclared barrier() is caught instead of crashing.
//  - Workgroup local-memory blocks are surrounded by canary zones checked
//    after every group (M1).
//  - Proof-carrying launches: before replay, the mclverify facts for the
//    kernel are discharged against this launch's shape class; arrays whose
//    every declared access is statically proven in-bounds, race-free and
//    access-flag-clean are exempted from shadow replay (the dominant cost of
//    this mode). MCL_VERIFY=off disables the exemption, and
//    set_force_full_replay() restores full replay for one runner — the
//    mclcheck soundness oracle uses both to cross-check proofs against the
//    dynamic findings.
//
// Any finding makes run() throw core::Error(Status::SanitizerViolation)
// after the launch completes, with all (deduplicated) findings joined into
// the message.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <memory>

#include "ocl/detail/group_runner.hpp"
#include "ocl/kernel.hpp"
#include "ocl/types.hpp"
#include "verify/facts.hpp"

namespace mcl::veclegal {
struct KernelIr;
}

namespace mcl::ocl::detail {

class CheckedRunner {
 public:
  /// Validates the launch exactly like GroupRunner (and throws the same
  /// errors); `run()` then executes it serially with checking enabled.
  CheckedRunner(const KernelDef& def, const KernelArgs& args,
                const NDRange& global, const NDRange& local,
                std::size_t fiber_stack_bytes,
                const NDRange& offset = NDRange{});

  [[nodiscard]] const NDRange& local() const noexcept { return validator_.local(); }
  [[nodiscard]] std::size_t total_groups() const noexcept {
    return validator_.total_groups();
  }
  [[nodiscard]] static ExecutorKind executor() noexcept {
    return ExecutorKind::Checked;
  }

  /// Executes the workgroups with linear ids [begin, end) in order on the
  /// calling thread, checking the local-memory canaries (M1) after each.
  /// Only valid inside run(groups), from one thread at a time.
  void run_groups(std::size_t begin, std::size_t end);

  /// Checks one launch: snapshots the read-only buffers and replays the
  /// kernel's IR, calls `groups` (which must run every group through
  /// run_groups()), then throws core::Error(Status::SanitizerViolation) if
  /// any check fired. The launch itself runs to completion first, so
  /// buffers hold the kernel's output even when the error is thrown.
  void run(const std::function<void()>& groups);

  /// run(groups) over every group, serially in linear order.
  void run() {
    run([this] { run_groups(0, total_groups()); });
  }

  /// Findings of the last run() (also available when it threw — catch the
  /// error and inspect). One human-readable line per finding.
  [[nodiscard]] const std::vector<std::string>& findings() const noexcept {
    return findings_;
  }

  /// Ignore launch proofs for this runner: every declared access is replayed
  /// even when statically proven safe (the soundness oracle's ground truth).
  void set_force_full_replay(bool force) noexcept {
    force_full_replay_ = force;
  }

  /// The launch proof discharged by the last run(), or nullptr when replay
  /// did not happen (no IR, >1D launch) or proofs were disabled.
  [[nodiscard]] const verify::LaunchProof* launch_proof() const noexcept {
    return proof_.get();
  }

  /// Array ids (ArrayRef::array) on which IR replay flagged any B1/S2/S3/W1
  /// finding during the last run().
  [[nodiscard]] const std::set<int>& flagged_arrays() const noexcept {
    return flagged_arrays_;
  }

  /// Replay-exemption counters for the last run(): declared accesses whose
  /// per-item replay was skipped under proof vs actually replayed.
  [[nodiscard]] std::size_t skipped_accesses() const noexcept {
    return skipped_accesses_;
  }
  [[nodiscard]] std::size_t replayed_accesses() const noexcept {
    return replayed_accesses_;
  }

 private:
  /// A local-memory block inside arena_, bracketed by canary zones.
  struct LocalBlock {
    std::size_t arg = 0;
    std::size_t data_off = 0;  ///< offset of the usable block in the arena
    std::size_t bytes = 0;     ///< bytes the kernel asked for
  };

  void replay_ir(const veclegal::KernelIr& ir);
  void run_group_checked_loop(std::size_t g0, std::size_t g1, std::size_t g2,
                              void* const* local_mem);
  void run_group_checked_fiber(std::size_t g0, std::size_t g1, std::size_t g2,
                               void* const* local_mem);
  void add_finding(std::string line);
  /// Emits `line` only for the first occurrence of `key` — findings that
  /// would otherwise repeat per workgroup/workitem report one example.
  void add_finding_keyed(const std::string& key, std::string line);

  const KernelDef& def_;
  const KernelArgs& args_;
  NDRange global_;
  NDRange local_;
  NDRange offset_;
  std::size_t fiber_stack_bytes_;
  GroupRunner validator_;  ///< reused for validation + local-size resolution
  std::size_t ngroups_[3] = {1, 1, 1};
  std::vector<LocalBlock> blocks_;
  std::vector<std::byte> arena_;
  std::vector<void*> local_ptrs_;  ///< arg index -> block, the kernel's view
  std::vector<std::string> findings_;
  std::set<std::string> finding_keys_;
  std::size_t suppressed_ = 0;  ///< findings dropped past the cap
  bool force_full_replay_ = false;
  std::shared_ptr<const verify::LaunchProof> proof_;
  std::set<int> flagged_arrays_;
  std::size_t skipped_accesses_ = 0;
  std::size_t replayed_accesses_ = 0;
};

}  // namespace mcl::ocl::detail
