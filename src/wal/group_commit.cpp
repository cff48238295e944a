#include "wal/group_commit.h"

#include <thread>

#include "fault/retry.h"

namespace atp {

namespace {
inline void bump(std::atomic<std::uint64_t>& cell) {
  cell.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: independent event count
}
}  // namespace

void GroupCommitter::lead_flush_locked(
    std::unique_lock<OrderedMutex<LockRank::kWalGroup>>& lock,
    std::uint64_t seed) {
  leader_active_ = true;
  bump(stats_.flushes);
  // The flush covers every async record appended so far.  relaxed-ok: the
  // backlog only triggers flushes; durability is read from the wal frontier.
  async_backlog_.store(0, std::memory_order_relaxed);
  lock.unlock();
  // The device sync runs outside mu_ so the next group accumulates behind
  // it.  A failed (injected) fsync made nothing durable: retry until true,
  // same contract as the single-commit force path.
  const RetryPolicy policy = RetryPolicy::wal_fsync();
  for (std::uint64_t attempt = 1; !wal_.fsync(); ++attempt) {
    std::this_thread::sleep_for(policy.delay(attempt, seed));
  }
  lock.lock();
  leader_active_ = false;
  cv_.notify_all();
}

void GroupCommitter::wait_durable(std::uint64_t lsn, std::uint64_t seed) {
  bump(stats_.sync_commits);
  // Fast path: a flush that finished while this commit was appending
  // already covers it.  durable_lsn() is an acquire load of a frontier the
  // device only advances after a successful fsync.
  if (wal_.durable_lsn() >= lsn) {
    bump(stats_.batched);
    return;
  }
  std::unique_lock lock(mu_);
  bool led = false;
  while (wal_.durable_lsn() < lsn) {
    if (leader_active_) {
      cv_.wait(lock);  // follow: the in-flight flush (or the next) covers us
    } else {
      led = true;
      lead_flush_locked(lock, seed);
    }
  }
  if (!led) bump(stats_.batched);
}

void GroupCommitter::note_async(std::uint64_t lsn, std::uint64_t seed) {
  bump(stats_.async_commits);
  if (wal_.durable_lsn() >= lsn) {
    bump(stats_.batched);
    return;  // already covered by an earlier group
  }
  // The backlog is counted lock-free; only the commit that fills it takes
  // mu_, re-checks (a flush may have emptied it meanwhile) and leads.
  // relaxed-ok(begin): the count only decides when to flush; what is durable
  // is read from the wal frontier.
  if (async_backlog_.fetch_add(1, std::memory_order_relaxed) + 1 <
      kAsyncFlushBacklog) {
    return;
  }
  std::unique_lock lock(mu_);
  if (async_backlog_.load(std::memory_order_relaxed) >= kAsyncFlushBacklog &&
      !leader_active_) {
    bump(stats_.async_self_flushes);
    lead_flush_locked(lock, seed);
  }
  // relaxed-ok(end)
}

void GroupCommitter::flush(std::uint64_t seed) {
  std::unique_lock lock(mu_);
  const std::uint64_t target = wal_.next_lsn() - 1;
  while (wal_.durable_lsn() < target) {
    if (leader_active_) {
      cv_.wait(lock);
    } else {
      lead_flush_locked(lock, seed);
    }
  }
}

GroupCommitStats GroupCommitter::stats() const {
  // relaxed-ok(begin): independent event counters, read as statistics.
  GroupCommitStats s;
  s.sync_commits = stats_.sync_commits.load(std::memory_order_relaxed);
  s.async_commits = stats_.async_commits.load(std::memory_order_relaxed);
  s.flushes = stats_.flushes.load(std::memory_order_relaxed);
  s.batched = stats_.batched.load(std::memory_order_relaxed);
  s.async_self_flushes =
      stats_.async_self_flushes.load(std::memory_order_relaxed);
  // relaxed-ok(end)
  return s;
}

}  // namespace atp
