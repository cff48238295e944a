// Tracer + exporter tests: ring mechanics (ordering, overwrite accounting,
// clear semantics), multi-threaded recording, the live subscription's
// horizon and lap accounting, database lifecycle instrumentation, and the
// two export formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "trace/export.h"
#include "trace/tracer.h"

namespace atp {
namespace {

TEST(Tracer, RecordsInGlobalSeqOrder) {
  Tracer tracer;
  tracer.record(TraceKind::TxnBegin, 0, 1);
  tracer.record(TraceKind::Read, 0, 1, 7, 3.0);
  tracer.record(TraceKind::TxnCommit, 0, 1);
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].kind, TraceKind::TxnBegin);
  EXPECT_EQ(events[1].kind, TraceKind::Read);
  EXPECT_EQ(events[1].key, 7u);
  EXPECT_EQ(events[1].a, 3.0);
  EXPECT_EQ(events[2].kind, TraceKind::TxnCommit);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, EmitOnNullTracerIsANoop) {
  Tracer::emit(nullptr, TraceKind::TxnBegin, 0, 1);  // must not crash
}

TEST(Tracer, ConcurrentRecordersMergeTotallyOrdered) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.record(TraceKind::Read, 0, TxnId(t + 1), Key(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), std::size_t(kThreads) * kPerThread);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // strict, no duplicates
  }
  // Per-txn (= per-recording-thread) order is preserved through the merge.
  std::vector<Key> next_key(kThreads + 1, 0);
  for (const auto& e : events) {
    EXPECT_EQ(e.key, next_key[e.txn]++);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.record(TraceKind::Read, 0, 1, Key(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the newest 8, still in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].key, Key(12 + i));
  }
}

TEST(Tracer, ClearDropsEventsButSeqKeepsClimbing) {
  Tracer tracer(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));
  const auto before = tracer.collect();
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  // Overwrite cycling must restart cleanly relative to the cleared state.
  for (int i = 0; i < 10; ++i) tracer.record(TraceKind::Write, 0, 2, Key(i));
  const auto after = tracer.collect();
  ASSERT_EQ(after.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 2u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].key, Key(2 + i));
  }
  EXPECT_GT(after.front().seq, before.back().seq);
}

TEST(TraceSubscription, DrainsIncrementallyWithStableHorizon) {
  Tracer tracer;
  auto sub = tracer.subscribe();
  tracer.record(TraceKind::TxnBegin, 0, 1);
  tracer.record(TraceKind::Read, 0, 1, 7);
  tracer.record(TraceKind::TxnCommit, 0, 1);

  TraceSubscription::Batch batch;
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 3u);
  EXPECT_EQ(batch.dropped, 0u);
  // Everything recorded is below the horizon (recorders were quiescent).
  EXPECT_GT(batch.stable_before, batch.events.back().seq);

  // A second drain returns only what is new.
  tracer.record(TraceKind::TxnBegin, 0, 2);
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 1u);
  EXPECT_EQ(batch.events[0].txn, 2u);
  // The reused batch keeps its storage across drains.
  EXPECT_GE(batch.events.capacity(), 3u);
  sub->drain(batch);
  EXPECT_TRUE(batch.events.empty());

  // collect() is unaffected: subscriptions are non-destructive.
  EXPECT_EQ(tracer.collect().size(), 4u);
}

TEST(TraceSubscription, ChargesOverwritesAndClearsAsDropped) {
  Tracer tracer(/*per_thread_capacity=*/8);
  auto sub = tracer.subscribe();
  for (int i = 0; i < 20; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));
  TraceSubscription::Batch batch;
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 8u);  // the newest 8 survived
  EXPECT_EQ(batch.dropped, 12u);
  EXPECT_EQ(batch.events.front().key, 12u);

  // Events recorded then clear()ed before the next drain are dropped too.
  tracer.record(TraceKind::Read, 0, 1, 100);
  tracer.clear();
  sub->drain(batch);
  EXPECT_TRUE(batch.events.empty());
  EXPECT_EQ(batch.dropped, 13u);  // cumulative

  // The stream keeps working after the loss.
  tracer.record(TraceKind::Write, 0, 2, 200);
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 1u);
  EXPECT_EQ(batch.events[0].key, 200u);
  EXPECT_EQ(batch.dropped, 13u);
}

TEST(TraceSubscription, StartsAtOldestRetainedSoOldLossesAreNotCharged) {
  // Subscribing to a tracer that has already wrapped (or been cleared) must
  // start at the oldest events still retained: pre-subscription losses are
  // history, not drops, or every late subscriber would come up permanently
  // degraded.
  Tracer tracer(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));
  auto sub = tracer.subscribe();
  TraceSubscription::Batch batch;
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 8u);  // the retained suffix
  EXPECT_EQ(batch.events.front().key, 12u);
  EXPECT_EQ(batch.dropped, 0u);  // the 12 pre-subscribe overwrites don't count

  // Post-subscription overwrites still do.
  for (int i = 0; i < 20; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 8u);
  EXPECT_EQ(batch.dropped, 12u);

  // Same for clear(): a subscription born after it owes nothing for it.
  tracer.record(TraceKind::Read, 0, 1, 99);
  tracer.clear();
  auto late = tracer.subscribe();
  late->drain(batch);
  EXPECT_TRUE(batch.events.empty());
  EXPECT_EQ(batch.dropped, 0u);
}

TEST(TraceSubscription, ConcurrentDrainsDeliverEverySeqExactlyOnce) {
  // The stable-horizon contract under fire: recorders and the consumer run
  // concurrently; every event below a batch's horizon must arrive in that
  // batch or an earlier one, and nothing is duplicated.
  Tracer tracer;
  auto sub = tracer.subscribe();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.record(TraceKind::Read, 0, TxnId(t + 1), Key(i));
      }
    });
  }
  std::vector<std::uint64_t> seqs;
  std::uint64_t horizon = 0;
  TraceSubscription::Batch batch;
  while (seqs.size() < std::size_t(kThreads) * kPerThread) {
    sub->drain(batch);
    EXPECT_EQ(batch.dropped, 0u);
    EXPECT_GE(batch.stable_before, horizon);  // horizons only advance
    for (const auto& e : batch.events) seqs.push_back(e.seq);
    // Check the contract: every seq below the horizon was delivered.  Seqs
    // start at 1, so `horizon - 1` of them must have arrived.
    horizon = batch.stable_before;
    ASSERT_GE(seqs.size(), std::size_t(horizon - 1));
  }
  for (auto& th : threads) th.join();
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
}

TEST(TraceSubscription, LappedSlotsAreDroppedNeverTorn) {
  // A recorder laps a 4-slot ring again and again while a subscriber
  // drains it.  (The drain copies oldest-first, faster than the recorder
  // writes, so only a ring this small makes copies and rewrites overlap
  // in most drains.)  Drains copy slots the producer is rewriting; every copied
  // slot it may have touched must be discarded and charged to `dropped`,
  // so each seq is delivered whole or counted lost -- exactly one of the
  // two.  One recorder, so seq s carries payload i = s - 1 in every field;
  // a torn slot would mix two events' fields.
  Tracer tracer(/*per_thread_capacity=*/4);
  auto sub = tracer.subscribe();
  constexpr std::uint64_t kEvents = 200000;
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      tracer.record(TraceKind::Write, 0, TxnId(i + 1), Key(i), double(i),
                    -double(i), 3 * i + 1, ~i);
    }
    done.store(true);
  });
  std::vector<std::uint64_t> seqs;
  std::uint64_t torn = 0;
  TraceSubscription::Batch batch;
  bool last = false;
  while (!last) {
    last = done.load();  // one more drain after the recorder finished
    sub->drain(batch);
    for (const auto& e : batch.events) {
      const std::uint64_t i = e.seq - 1;
      torn += e.txn != TxnId(i + 1) || e.key != Key(i) || e.a != double(i) ||
              e.b != -double(i) || e.aux != 3 * i + 1 || e.aux2 != ~i ||
              e.kind != TraceKind::Write;
      seqs.push_back(e.seq);
    }
  }
  recorder.join();
  EXPECT_EQ(torn, 0u);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
  // Delivered and dropped partition the history: nothing counted twice.
  EXPECT_EQ(seqs.size() + batch.dropped, kEvents);
  EXPECT_GT(batch.dropped, 0u);  // the ring really was lapped
  EXPECT_EQ(batch.stable_before, kEvents + 1);
}

TEST(TraceSubscription, ClearRestartsIndexingAndChargesClearedEvents) {
  Tracer tracer(/*per_thread_capacity=*/8);
  auto sub = tracer.subscribe();
  for (int i = 0; i < 5; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));
  tracer.clear();
  // After the clear the ring starts over at slot 0: three new events fit
  // without loss, and only the five cleared ones are charged.
  for (int i = 0; i < 3; ++i) tracer.record(TraceKind::Write, 0, 2, Key(100 + i));
  TraceSubscription::Batch batch;
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.events[i].key, Key(100 + i));
  }
  EXPECT_EQ(batch.dropped, 5u);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  // Nine more wrap the ring relative to the clear: 12 since it, 8 kept,
  // and the 4 overwritten before this drain reached them are charged.
  for (int i = 3; i < 12; ++i) tracer.record(TraceKind::Write, 0, 2, Key(100 + i));
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 4u);
  sub->drain(batch);
  ASSERT_EQ(batch.events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(batch.events[i].key, Key(104 + i));
  }
  EXPECT_EQ(batch.dropped, 5u + 1u);  // 103 was overwritten undelivered
  const auto kept = tracer.collect();
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.front().key, Key(104));
}

TEST(Tracer, DatabaseLifecycleIsInstrumented) {
  Tracer tracer;
  DatabaseOptions dbo;
  dbo.scheduler = SchedulerKind::CC;
  dbo.tracer = &tracer;
  dbo.site_id = 3;
  Database db(dbo);
  db.load(1, 10);

  Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  ASSERT_TRUE(t.read(1).ok());
  ASSERT_TRUE(t.write(1, 11).ok());
  ASSERT_TRUE(t.commit().ok());

  Txn q = db.begin(TxnKind::Query, EpsilonSpec::unlimited());
  ASSERT_TRUE(q.read(1).ok());
  q.abort();

  const auto events = tracer.collect();
  auto count = [&](TraceKind k) {
    std::size_t n = 0;
    for (const auto& e : events) n += (e.kind == k);
    return n;
  };
  EXPECT_EQ(count(TraceKind::TxnBegin), 2u);
  EXPECT_EQ(count(TraceKind::TxnCommit), 1u);
  EXPECT_EQ(count(TraceKind::TxnAbort), 1u);
  EXPECT_EQ(count(TraceKind::Read), 2u);
  EXPECT_EQ(count(TraceKind::Write), 1u);
  // Only the update locks: queries read versions and bypass the manager.
  EXPECT_GE(count(TraceKind::LockAcquire), 2u);
  EXPECT_EQ(count(TraceKind::LockRelease), 1u);
  for (const auto& e : events) EXPECT_EQ(e.site, 3u);
  // The write event carries the installed value; the commit follows it.
  for (const auto& e : events) {
    if (e.kind == TraceKind::Write) {
      EXPECT_EQ(e.a, 11.0);
    }
  }
}

TEST(Tracer, AttachMetricsPublishesRingHealth) {
  obs::MetricsRegistry reg;
  Tracer tracer(/*per_thread_capacity=*/8);
  tracer.attach_metrics(&reg);
  for (int i = 0; i < 20; ++i) tracer.record(TraceKind::Read, 0, 1, Key(i));

  const auto snap = reg.snapshot();
  const obs::Sample* dropped = snap.find("trace.dropped_events");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 12.0);
  const obs::Sample* retained = snap.find("trace.retained_events");
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(retained->value, 8.0);

  // Detach: the collector must disappear (and the dtor must not double-free).
  tracer.attach_metrics(nullptr);
  EXPECT_EQ(reg.snapshot().find("trace.dropped_events"), nullptr);
}

TEST(Tracer, UntracedDatabaseStaysSilent) {
  DatabaseOptions dbo;
  dbo.scheduler = SchedulerKind::CC;  // tracer stays nullptr
  Database db(dbo);
  db.load(1, 5);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  ASSERT_TRUE(t.write(1, 6).ok());
  ASSERT_TRUE(t.commit().ok());  // must not crash on null tracer
}

TEST(TraceExport, ChromeTracePairsSpansAndEscapes) {
  Tracer tracer;
  tracer.record(TraceKind::TxnBegin, 1, 7);
  tracer.record(TraceKind::Read, 1, 7, 3, 42.0);
  tracer.record(TraceKind::TxnCommit, 1, 7, 0, 5.0);
  tracer.record(TraceKind::LockWait, 1, 8, 3);  // instant, never closed

  std::ostringstream out;
  write_chrome_trace(tracer.collect(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the txn span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // read + wait
  EXPECT_NE(json.find("txn"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, ChromeTraceClampsNonFiniteNumbers) {
  Tracer tracer;
  tracer.record(TraceKind::TxnBegin, 0, 1, 0,
                std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::quiet_NaN());
  tracer.record(TraceKind::TxnCommit, 0, 1);
  std::ostringstream out;
  write_chrome_trace(tracer.collect(), out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(TraceExport, NdjsonEmitsOneObjectPerEvent) {
  Tracer tracer;
  tracer.record(TraceKind::TxnBegin, 0, 1);
  tracer.record(TraceKind::Write, 0, 1, 4, 9.5);
  tracer.record(TraceKind::TxnCommit, 0, 1);
  std::ostringstream out;
  write_ndjson(tracer.collect(), out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("\"kind\":\"write\""), std::string::npos);
  EXPECT_NE(text.find("\"key\":4"), std::string::npos);
}

}  // namespace
}  // namespace atp
