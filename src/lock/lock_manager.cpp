#include "lock/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace atp {

LockManager::LockManager(std::chrono::milliseconds default_timeout)
    : timeout_(default_timeout) {
  for (auto& sp : stripes_) sp = std::make_unique<Stripe>();
}

Status LockManager::acquire(TxnId txn, Key key, LockMode mode) {
  Stripe& s = stripe_of(key);
#if defined(ATP_OBS_ENABLED)
  // Sampled latency probe: the acquires counter doubles as the sampling
  // clock.  Timed acquires pay two steady_clock reads and one histogram
  // record; the other 63 of 64 pay a single relaxed fetch_add.
  const std::uint64_t n =  // relaxed-ok: sampling clock + stat; no ordering needed
      s.acquires.fetch_add(1, std::memory_order_relaxed);
  if ((n & ((1u << kLatencySampleShift) - 1)) == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = acquire_impl(txn, key, mode, s);
    const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t0);
    s.acquire_us.record(double(dt.count()) / 1e3);
    return st;
  }
#endif
  return acquire_impl(txn, key, mode, s);
}

Status LockManager::acquire_impl(TxnId txn, Key key, LockMode mode,
                                 Stripe& s) {
  std::unique_lock lock(s.mu);
  Queue& q = s.queues[key];

  // Re-entrancy: already covered?
  for (const LockHolder& h : q.holders) {
    if (h.txn == txn &&
        (h.mode == LockMode::Exclusive || mode == LockMode::Shared)) {
      return Status::Ok();
    }
  }

  // Fast path: a request granted on its first evaluation never became a
  // waiter, so it has no queue entry, no `waiting` slot and no wait edges to
  // retract, and needs no deadline -- it touches nothing outside its stripe.
  // Every queued waiter counts as "ahead" here.
  Waiter self{txn, mode, /*cancelled=*/false, {}};
  if (evaluate(key, s, q, self) == Decision::Granted) return Status::Ok();

  // Blocked: register as a waiter, publish the wait edges evaluate() left in
  // self for the deadlock DFS, and arm the timeout.
  q.waiters.push_back(&self);
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  bool counted_wait = false;
  auto cleanup = [&] {
    q.waiters.remove(&self);
    s.waiting.erase(txn);
    retract_wait_edges(txn);
  };

  for (;;) {
    s.waiting[txn] = &self;
    s.max_waiters = std::max<std::uint64_t>(s.max_waiters, s.waiting.size());
    if (publish_and_check_deadlock(txn, self)) {
      ++s.stats.deadlocks;
      Tracer::emit(tracer_, TraceKind::LockDeadlock, site_, txn, key, 0, 0,
                   mode == LockMode::Exclusive ? kTraceModeExclusive : 0);
      cleanup();
      return Status::Deadlock("waits-for cycle through txn " +
                              std::to_string(txn));
    }
    if (!counted_wait) {
      ++s.stats.waits;
      counted_wait = true;
      Tracer::emit(tracer_, TraceKind::LockWait, site_, txn, key, 0, 0,
                   mode == LockMode::Exclusive ? kTraceModeExclusive : 0,
                   self.waits_for.empty() ? 0 : *self.waits_for.begin());
    }
    if (s.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Re-evaluate once after timeout in case a grant raced the clock.
      if (evaluate(key, s, q, self) == Decision::Granted) {
        cleanup();
        return Status::Ok();
      }
      ++s.stats.timeouts;
      Tracer::emit(tracer_, TraceKind::LockTimeout, site_, txn, key, 0, 0,
                   mode == LockMode::Exclusive ? kTraceModeExclusive : 0);
      cleanup();
      return Status::Timeout("lock wait on key " + std::to_string(key));
    }
    if (self.cancelled) {
      cleanup();
      return Status::Aborted("lock wait cancelled");
    }
    if (evaluate(key, s, q, self) == Decision::Granted) {
      cleanup();
      return Status::Ok();
    }
  }
}

LockManager::Decision LockManager::evaluate(Key key, Stripe& s, Queue& q,
                                            Waiter& self) {
  const TxnId txn = self.txn;
  const LockMode mode = self.mode;
  const bool holds_any =
      std::any_of(q.holders.begin(), q.holders.end(),
                  [&](const LockHolder& h) { return h.txn == txn; });

  self.waits_for.clear();

  // FIFO fairness: a request must not overtake an incompatible waiter that
  // arrived earlier -- unless the requester is upgrading (it holds the lock
  // the waiter needs anyway).
  if (!holds_any) {
    for (const Waiter* w : q.waiters) {
      if (w == &self) break;  // only waiters ahead of us
      if (w->txn == txn) continue;
      if (!compatible(w->mode, mode)) self.waits_for.insert(w->txn);
    }
  }
  for (const LockHolder& h : q.holders) {
    if (h.txn == txn) continue;  // own S lock never blocks own upgrade
    if (!compatible(h.mode, mode)) self.waits_for.insert(h.txn);
  }

  if (!self.waits_for.empty()) return Decision::Blocked;
  grant(txn, key, mode, s, q);
  return Decision::Granted;
}

bool LockManager::publish_and_check_deadlock(TxnId from, const Waiter& self) {
  std::lock_guard lock(wait_mu_);
  wait_edges_[from] = self.waits_for;  // republish the fresh snapshot

  // DFS through the published wait edges looking for a path back to `from`.
  std::vector<TxnId> stack;
  std::unordered_set<TxnId> visited;
  for (TxnId t : self.waits_for) stack.push_back(t);
  while (!stack.empty()) {
    const TxnId t = stack.back();
    stack.pop_back();
    if (t == from) return true;
    if (!visited.insert(t).second) continue;
    auto it = wait_edges_.find(t);
    if (it == wait_edges_.end()) continue;  // not waiting: sink
    for (TxnId next : it->second) stack.push_back(next);
  }
  return false;
}

void LockManager::retract_wait_edges(TxnId txn) {
  std::lock_guard lock(wait_mu_);
  wait_edges_.erase(txn);
}

void LockManager::grant(TxnId txn, Key key, LockMode mode, Stripe& s,
                        Queue& q) {
  Tracer::emit(tracer_, TraceKind::LockAcquire, site_, txn, key, 0, 0,
               mode == LockMode::Exclusive ? kTraceModeExclusive : 0);
  for (LockHolder& h : q.holders) {
    if (h.txn == txn) {  // upgrade in place
      h.mode = LockMode::Exclusive;
      return;
    }
  }
  q.holders.push_back(LockHolder{txn, mode});
  s.held_keys[txn].push_back(key);
}

void LockManager::release_all(TxnId txn, StripeMask stripes) {
  bool held_anything = false;
  for (std::size_t i = 0; i < kStripes; ++i) {
    if ((stripes & (StripeMask{1} << i)) == 0) continue;
    Stripe& s = *stripes_[i];
    std::lock_guard lock(s.mu);
    ++s.releases;
    bool touched = false;
    auto held = s.held_keys.find(txn);
    if (held != s.held_keys.end()) {
      held_anything = true;
      touched = true;
      for (Key key : held->second) {
        auto qit = s.queues.find(key);
        if (qit == s.queues.end()) continue;
        auto& holders = qit->second.holders;
        std::erase_if(holders,
                      [&](const LockHolder& h) { return h.txn == txn; });
      }
      s.held_keys.erase(held);
    }
    // Cancel an in-flight wait (cross-thread abort path).  The waiter owns
    // its global wait edges and retracts them when it wakes.
    auto wit = s.waiting.find(txn);
    if (wit != s.waiting.end()) {
      wit->second->cancelled = true;
      touched = true;
    }
    if (touched) s.cv.notify_all();
  }
  if (held_anything) {
    Tracer::emit(tracer_, TraceKind::LockRelease, site_, txn);
  }
}

bool LockManager::holds(TxnId txn, Key key, LockMode mode) const {
  Stripe& s = stripe_of(key);
  std::lock_guard lock(s.mu);
  auto qit = s.queues.find(key);
  if (qit == s.queues.end()) return false;
  for (const LockHolder& h : qit->second.holders) {
    if (h.txn == txn &&
        (h.mode == LockMode::Exclusive || mode == LockMode::Shared)) {
      return true;
    }
  }
  return false;
}

std::vector<LockHolder> LockManager::holders_of(Key key) const {
  Stripe& s = stripe_of(key);
  std::lock_guard lock(s.mu);
  auto qit = s.queues.find(key);
  if (qit == s.queues.end()) return {};
  return qit->second.holders;
}

LockStats LockManager::stats() const {
  LockStats total;
  for (const auto& sp : stripes_) {
    std::lock_guard lock(sp->mu);
    total.waits += sp->stats.waits;
    total.deadlocks += sp->stats.deadlocks;
    total.timeouts += sp->stats.timeouts;
  }
  return total;
}

std::vector<LockStripeSnapshot> LockManager::stripe_stats() const {
  std::vector<LockStripeSnapshot> out;
  out.reserve(kStripes);
  for (const auto& sp : stripes_) {
    LockStripeSnapshot snap;
    {
      std::lock_guard lock(sp->mu);
      snap.stats = sp->stats;
      snap.waiters_now = sp->waiting.size();
      snap.max_waiters = sp->max_waiters;
      snap.releases = sp->releases;
    }
    // Read outside the stripe mutex: both are self-consistent on their own
    // (relaxed atomic / histogram-internal lock), and the heatmap does not
    // need them to be from the same instant as the mutexed fields.
    snap.acquires = sp->acquires.load(std::memory_order_relaxed);  // relaxed-ok: heatmap stat
    snap.acquire_us = sp->acquire_us.summarize();
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace atp
