// Fixed-size worker pool.
//
// Two entry points:
//  - submit(): generic fire-and-forget tasks (used by the command queue).
//  - parallel_ranges_on(): split [0, count) into chunks, run fn(begin, end)
//    once per claimed chunk, and wait. This is the path NDRange launches
//    take: one index = one workgroup, and the device runs a whole chunk per
//    call, so per-group setup is paid once per chunk while the per-claim
//    scheduling cost stays real and measurable. Each participant owns a
//    fixed contiguous slice of the range and claims chunks from its front;
//    an idle participant steals the upper half of another's remaining
//    slice, or its last chunk when the remainder is too small to split (the
//    range-per-task scheme CPU OpenCL runtimes use, TBB-style stealing).
//    Slices depend only on count and span, so repeated launches of one size
//    give every thread the same groups, and their data stays in that
//    thread's private caches (paper Fig 9; TBB's affinity_partitioner).
//    This is the pool's only workgroup distribution. parallel_run() is a
//    per-index adapter over the same path.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcl::threading {

/// Per-batch execution statistics (load balance across participants).
struct RunStats {
  /// Threads the batch was offered to: the caller plus its span's workers.
  std::size_t width = 0;
  std::size_t participants = 0;  ///< threads that executed >= 1 index
  std::size_t max_per_participant = 0;
  /// max / mean over participating threads; 1.0 = perfectly balanced.
  double imbalance = 1.0;
  /// The batch's measured work: the time each participant spent from its
  /// first claim to the end of its last range, summed. Equals seconds x
  /// participants when every participant is busy for the whole batch, and
  /// leaves out what a late or idle one spent waking.
  double busy_seconds = 0.0;
};

/// Half-open range [begin, end) of worker indices — the unit of pool
/// sharding. A sub-device owns one span; spans of sibling sub-devices are
/// disjoint, so their batches never share a worker (and a steal never
/// crosses shards: steal victims are slots of the same batch).
struct WorkerSpan {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return end - begin;
  }
  [[nodiscard]] constexpr bool contains(std::size_t i) const noexcept {
    return i >= begin && i < end;
  }
};

class ThreadPool {
 public:
  /// `threads` == 0 selects logical_cpu_count(). When `pin` is true worker i
  /// is pinned to logical CPU i % logical_cpu_count().
  explicit ThreadPool(std::size_t threads = 0, bool pin = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; runs on some worker eventually.
  void submit(std::function<void()> task);

  using IndexFn = std::function<void(std::size_t)>;
  /// fn(begin, end) runs the indices [begin, end) of one claimed chunk.
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Runs fn over a partition of [0, count) into ranges of at most `chunk`
  /// indices, on the workers of `span` plus the calling thread, returning
  /// when every index completed. One call covers one owner or thief claim.
  /// The caller owns slot 0 and worker i slot i - span.begin + 1; slot s
  /// starts at s * (count / slots) + min(s, count % slots). Each
  /// participant's first call starts at its own slot's start, and a
  /// participant whose slot thieves emptied before it arrived runs nothing.
  /// A count of 2^32 or more runs as consecutive sub-batches of fewer than
  /// 2^32 indices each, split the same way; fn still sees indices of
  /// [0, count). The calling thread always participates and guarantees
  /// completion even if every spanned worker is busy elsewhere. Only the
  /// workers of `span` are woken; the rest keep sleeping. Concurrent calls
  /// on disjoint spans proceed in parallel with disjoint worker sets — the
  /// sub-device sharding substrate. Concurrent calls on overlapping spans
  /// are safe but contend: a worker helps one batch at a time, and each
  /// caller finishes its own batch regardless. Not reentrant: do not call
  /// it from inside fn. Returns load-balance statistics counted in indices,
  /// not calls, over the whole count.
  RunStats parallel_ranges_on(WorkerSpan span, std::size_t count,
                              const RangeFn& fn, std::size_t chunk = 1);

  /// Per-index adapter: runs fn(i) for every i in [0, count) over the whole
  /// pool, with parallel_ranges_on's claiming and statistics.
  RunStats parallel_run(std::size_t count, const IndexFn& fn,
                        std::size_t chunk = 1);

  /// Index of the calling thread within THIS pool's workers, or -1 when the
  /// caller is not one of this pool's workers (other pools' workers included:
  /// identity is (pool, index), not the bare index). Shard tests use this to
  /// prove a sub-device launch never left its worker span.
  [[nodiscard]] int worker_index_here() const noexcept;

  /// Blocks until all previously submitted tasks have finished.
  void wait_idle();

 private:
  /// Half-open index range of one claim; empty when nothing was claimed.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    [[nodiscard]] bool empty() const noexcept { return begin == end; }
  };

  /// One participant's share of a batch. Slots cover only the batch's span
  /// workers plus the caller, so steals stay inside the shard by
  /// construction.
  struct Slot {
    // Packed range (next:32 | end:32). Only the slot's owner advances
    // `next`; thieves only lower `end`.
    std::atomic<std::uint64_t> range{0};
    // Indices the slot's owner executed and the nanoseconds it spent on
    // them, written before it adds to `done`.
    std::atomic<std::size_t> executed{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  /// One sub-batch: fn sees base + each claimed range, so slot ranges stay
  /// 32-bit whatever the call's count.
  struct Batch {
    std::atomic<std::size_t> done{0};
    std::size_t base = 0;
    std::size_t chunk = 1;
    std::size_t span_begin = 0;  // worker i owns slot i - span_begin + 1
    const RangeFn* fn = nullptr;
    std::vector<Slot> slots;
  };

  /// A worker's wake state, guarded by mutex_.
  struct WorkerState {
    /// Pending batch: the worker reads it in its wait predicate, so a store
    /// outside the lock could land between the predicate check and the
    /// sleep and lose the wakeup. A worker takes (and so clears) only its
    /// own batch, then drains it without the lock; disjoint spans therefore
    /// run concurrently without sharing any scheduling state.
    std::shared_ptr<Batch> batch;
    /// Asleep on wake_seq_ and not yet claimed by a wake.
    bool sleeping = false;
  };

  /// Wakes the workers whose bits are set in `mask`, in one system call.
  void wake(std::uint32_t mask) noexcept;

  /// Claims the front chunk of `slot`'s range for its owner, refilling the
  /// slot by a steal when it is empty and `may_steal` is set.
  static Range claim(Batch& batch, std::size_t slot, bool may_steal);
  /// Moves part of another slot's remaining range into the empty `slot`.
  static bool steal_into(Batch& batch, std::size_t slot);
  /// Runs `first` and every later claim of `slot`, then reports them.
  static void drain_batch(Batch& batch, std::size_t slot, Range first);
  /// Publishes [base, base + count) (count < 2^32) to the workers of `span`,
  /// runs it with them, and returns it once every index completed.
  std::shared_ptr<Batch> run_batch(WorkerSpan span, std::size_t base,
                                   std::size_t count, const RangeFn& fn,
                                   std::size_t chunk);

  void worker_loop(std::size_t worker_index, bool pin);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerState[]> worker_state_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  /// Workers sleep on this word, each on its own bit (worker i on bit
  /// i % 32), so one wake names exactly the workers a batch uses. Every
  /// publish of work bumps it under mutex_, so a worker between its
  /// predicate check and its sleep does not sleep through the publish.
  std::atomic<std::uint32_t> wake_seq_{0};
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace mcl::threading
