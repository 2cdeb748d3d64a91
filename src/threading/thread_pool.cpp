#include "threading/thread_pool.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>

#include "core/time.hpp"
#include "prof/metrics.hpp"
#include "threading/affinity.hpp"
#include "trace/trace.hpp"

namespace mcl::threading {

namespace {

// Process-wide count of threads currently executing pool work, sampled into
// the "pool.active" trace counter so worker occupancy is visible on the
// timeline. Only touched while tracing is on.
std::atomic<int> g_active_workers{0};

class OccupancyScope {
 public:
  OccupancyScope() : armed_(trace::enabled()) {
    if (armed_) {
      trace::counter(
          "pool.active",
          static_cast<double>(
              g_active_workers.fetch_add(1, std::memory_order_relaxed) + 1));
    }
  }
  ~OccupancyScope() {
    if (armed_) {
      trace::counter(
          "pool.active",
          static_cast<double>(
              g_active_workers.fetch_sub(1, std::memory_order_relaxed) - 1));
    }
  }
  OccupancyScope(const OccupancyScope&) = delete;
  OccupancyScope& operator=(const OccupancyScope&) = delete;

 private:
  // Snapshot of enabled() at entry so the decrement always balances the
  // increment even if tracing flips mid-scope.
  const bool armed_;
};

// Worker identity of the calling thread: which pool it belongs to (if any)
// and its index there. A bare index is ambiguous — the device pool and the
// queue executor pool both number workers from 0.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_worker_index = -1;

// A wake names workers by bit, so the kernel wakes exactly those sleepers
// in one call, where a condition variable per worker costs a call each.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));

std::uint32_t worker_bit(std::size_t worker) {
  return 1u << (worker % 32);
}

std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

}  // namespace

void ThreadPool::wake(std::uint32_t mask) noexcept {
  if (mask == 0) return;
  syscall(SYS_futex, futex_word(wake_seq_), FUTEX_WAKE_BITSET_PRIVATE,
          INT_MAX, nullptr, nullptr, mask);
}

ThreadPool::ThreadPool(std::size_t threads, bool pin) {
  if (threads == 0) threads = static_cast<std::size_t>(logical_cpu_count());
  worker_state_ = std::make_unique<WorkerState[]>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, pin] { worker_loop(i, pin); });
  }
}

int ThreadPool::worker_index_here() const noexcept {
  return tl_worker_pool == this ? tl_worker_index : -1;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    wake_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  wake(~0u);
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MCL_PROF_COUNT("pool.tasks", 1);
  std::uint32_t mask = 0;
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
    wake_seq_.fetch_add(1, std::memory_order_relaxed);
    // Wake one sleeper and mark it claimed, so a second submit() before it
    // runs wakes another. With none asleep, a busy worker takes the task
    // when it next checks its wait predicate.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (worker_state_[i].sleeping) {
        worker_state_[i].sleeping = false;
        mask = worker_bit(i);
        break;
      }
    }
  }
  wake(mask);
}

namespace {

constexpr std::uint64_t pack_range(std::uint64_t next, std::uint64_t end) {
  return (next << 32) | end;
}
constexpr std::uint32_t range_next(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed & 0xffffffffu);
}

}  // namespace

ThreadPool::Range ThreadPool::claim(Batch& batch, std::size_t slot,
                                    bool may_steal) {
  // The owner's front claim and a thief's steal both CAS the slot word, so
  // no index is ever claimed twice.
  std::atomic<std::uint64_t>& own = batch.slots[slot].range;
  for (;;) {
    std::uint64_t cur = own.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t n = range_next(cur);
      const std::uint32_t e = range_end(cur);
      if (n >= e) break;
      const auto take = static_cast<std::uint32_t>(
          std::min<std::size_t>(batch.chunk, e - n));
      if (own.compare_exchange_weak(cur, pack_range(n + take, e),
                                    std::memory_order_acq_rel)) {
        return {n, n + take};
      }
    }
    if (!may_steal || !steal_into(batch, slot)) return {};
  }
}

bool ThreadPool::steal_into(Batch& batch, std::size_t slot) {
  const std::size_t nslots = batch.slots.size();
  for (std::size_t v = 1; v < nslots; ++v) {
    const std::size_t victim = (slot + v) % nslots;
    std::atomic<std::uint64_t>& theirs = batch.slots[victim].range;
    std::uint64_t cur = theirs.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t n = range_next(cur);
      const std::uint32_t e = range_end(cur);
      if (n >= e) break;
      // The upper half, or the last chunk of a remainder too small to
      // split: taking it is what lets the batch finish while the victim's
      // owner is asleep or busy elsewhere. Either way the owner keeps the
      // front of its slice.
      const std::size_t left = e - n;
      const auto take = static_cast<std::uint32_t>(
          left >= 2 * batch.chunk ? left - left / 2
                                  : std::min(batch.chunk, left));
      const std::uint32_t mid = e - take;
      if (theirs.compare_exchange_weak(cur, pack_range(n, mid),
                                       std::memory_order_acq_rel)) {
        // Our slot is empty, and thieves never write an empty slot, so a
        // plain store cannot lose a concurrent claim.
        batch.slots[slot].range.store(pack_range(mid, e),
                                      std::memory_order_release);
        MCL_TRACE_INSTANT("pool.steal", "victim,thief,taken", victim, slot,
                          take);
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::drain_batch(Batch& batch, std::size_t slot, Range first) {
  if (first.empty()) return;
  OccupancyScope occupancy;
  MCL_TRACE_SCOPE("pool.drain");
  const std::uint64_t t0 = core::steady_now_ns();
  std::size_t executed = 0;
  for (Range r = first; !r.empty(); r = claim(batch, slot, true)) {
    (*batch.fn)(batch.base + r.begin, batch.base + r.end);
    executed += r.end - r.begin;
  }
  Slot& own = batch.slots[slot];
  own.busy_ns.store(core::steady_now_ns() - t0, std::memory_order_relaxed);
  own.executed.store(executed, std::memory_order_relaxed);
  batch.done.fetch_add(executed, std::memory_order_acq_rel);
}

RunStats ThreadPool::parallel_run(std::size_t count, const IndexFn& fn,
                                  std::size_t chunk) {
  return parallel_ranges_on(
      {0, workers_.size()}, count,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      chunk);
}

RunStats ThreadPool::parallel_ranges_on(WorkerSpan span, std::size_t count,
                                        const RangeFn& fn, std::size_t chunk) {
  if (count == 0) return {};
  if (chunk == 0) chunk = 1;
  span.end = std::min(span.end, workers_.size());
  span.begin = std::min(span.begin, span.end);
  MCL_TRACE_SCOPE("pool.batch", "count,chunk,span", count, chunk, span.size());
  MCL_PROF_COUNT("pool.batches", 1);
  MCL_PROF_HIST("pool.batch_groups", count);
  // Slot ranges pack into 32 bits, so a larger count runs as consecutive
  // sub-batches; each slot's work adds up into the first one's tally.
  constexpr std::size_t kMaxBatch = 0xffffffffu;
  const std::shared_ptr<Batch> batch =
      run_batch(span, 0, std::min(count, kMaxBatch), fn, chunk);
  for (std::size_t base = kMaxBatch; base < count; base += kMaxBatch) {
    const std::shared_ptr<Batch> sub =
        run_batch(span, base, std::min(count - base, kMaxBatch), fn, chunk);
    for (std::size_t s = 0; s < batch->slots.size(); ++s) {
      batch->slots[s].executed.fetch_add(
          sub->slots[s].executed.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      batch->slots[s].busy_ns.fetch_add(
          sub->slots[s].busy_ns.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }

  RunStats stats;
  stats.width = batch->slots.size();
  std::size_t total = 0;
  for (const Slot& slot : batch->slots) {
    const std::size_t v = slot.executed.load(std::memory_order_relaxed);
    if (v == 0) continue;
    ++stats.participants;
    stats.busy_seconds +=
        static_cast<double>(slot.busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    total += v;
    stats.max_per_participant = std::max(stats.max_per_participant, v);
  }
  if (stats.participants > 0) {
    stats.imbalance = static_cast<double>(stats.max_per_participant) *
                      static_cast<double>(stats.participants) /
                      static_cast<double>(total);
  }
  return stats;
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::run_batch(WorkerSpan span,
                                                         std::size_t base,
                                                         std::size_t count,
                                                         const RangeFn& fn,
                                                         std::size_t chunk) {
  auto batch = std::make_shared<Batch>();
  batch->base = base;
  batch->chunk = chunk;
  batch->span_begin = span.begin;
  batch->fn = &fn;
  const std::size_t nslots = span.size() + 1;  // span workers + caller
  batch->slots = std::vector<Slot>(nslots);
  const std::size_t per = count / nslots;
  const std::size_t extra = count % nslots;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < nslots; ++s) {
    const std::size_t len = per + (s < extra ? 1 : 0);
    batch->slots[s].range.store(pack_range(begin, begin + len),
                                std::memory_order_relaxed);
    begin += len;
  }

  // Claim the caller's first range before any worker can see the batch, so
  // no thief takes the front of slot 0 from under a late caller.
  const Range first = claim(*batch, 0, false);

  // Publish under the lock: a worker evaluates the wait predicate while
  // holding mutex_, so storing + notifying without it can land exactly
  // between the predicate check and the sleep — the worker misses the batch
  // and the caller silently does all the work alone (lost wakeup).
  std::uint32_t mask = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = span.begin; i < span.end; ++i) {
      worker_state_[i].batch = batch;
      if (worker_state_[i].sleeping) {
        worker_state_[i].sleeping = false;
        mask |= worker_bit(i);
      }
    }
    wake_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  // Woken after unlocking, so a woken worker does not block on mutex_.
  wake(mask);
  drain_batch(*batch, 0, first);  // the calling thread participates

  std::size_t spins = 0;
  while (batch->done.load(std::memory_order_acquire) < count) {
    if (++spins > 64) std::this_thread::yield();
  }
  // A worker takes its slot's batch when it wakes; this sweep retires the
  // batch from the slots of workers that never woke before it completed.
  // Only *our* batch: a slot may already hold a newer one another caller
  // published since.
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = span.begin; i < span.end; ++i) {
      if (worker_state_[i].batch == batch) worker_state_[i].batch.reset();
    }
  }
  return batch;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop(std::size_t worker_index, bool pin) {
  if (pin) {
    pin_current_thread(static_cast<int>(worker_index) % logical_cpu_count());
  }
  tl_worker_pool = this;
  tl_worker_index = static_cast<int>(worker_index);
  WorkerState& self = worker_state_[worker_index];
  for (;;) {
    std::shared_ptr<Batch> batch;
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      while (!stop_ && tasks_.empty() && !self.batch) {
        // Publishers bump wake_seq_ under mutex_, so a publish between the
        // unlock and the sleep makes the sleep return at once.
        const std::uint32_t seq = wake_seq_.load(std::memory_order_relaxed);
        self.sleeping = true;
        lock.unlock();
        syscall(SYS_futex, futex_word(wake_seq_), FUTEX_WAIT_BITSET_PRIVATE,
                seq, nullptr, nullptr, worker_bit(worker_index));
        lock.lock();
        self.sleeping = false;
        MCL_PROF_COUNT("pool.wakes", 1);
      }
      if (self.batch) {
        // Take the batch published to us. Our reference keeps it alive
        // even if the producer finishes and releases it while we drain; a
        // drain of an already-exhausted batch is a no-op (fn is only
        // called after a successful index claim).
        batch = std::move(self.batch);
      } else if (stop_ && tasks_.empty()) {
        return;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (batch) {
      // A worker starts from its own slot and steals only after that: a
      // worker whose slice thieves already took arrived too late to keep
      // anything warm, and what is left belongs to running participants.
      const std::size_t slot = worker_index - batch->span_begin + 1;
      drain_batch(*batch, slot, claim(*batch, slot, false));
      continue;
    }
    {
      OccupancyScope occupancy;
      MCL_TRACE_SCOPE("pool.task");
      task();
    }
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace mcl::threading
