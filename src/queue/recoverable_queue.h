// Recoverable queues (Section 4; Bernstein, Hsu & Mann, SIGMOD'90).
//
// The paper replaces the commit protocol between chopped pieces with
// transactional, persistent inter-site channels:
//
//   * a message enqueued by a transaction becomes deliverable only when the
//     transaction commits, and is discarded if it aborts;
//   * a deliverable message must be consumed by a transaction that
//     eventually commits; if the consuming transaction aborts, the message
//     returns to the queue;
//   * messages survive site failures and link failures.
//
// One QueueEndpoint lives at each site.  The durable state is:
//   outbound_ -- committed, not-yet-acknowledged outgoing messages.  A pump
//                (the site's daemon thread) retransmits these until the
//                destination acknowledges; survives crashes.
//   inbound_  -- delivered messages per named local queue, deduplicated by
//                message id; survives crashes.
// Volatile state (lost on crash): enqueues staged under uncommitted
// transactions, and in-flight dequeue claims (their transactions die with
// the site, so the claims revert -- exactly the redelivery-on-abort rule).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.h"
#include "sched/database.h"
#include "trace/tracer.h"
#include "wal/log.h"
#include "wal/recovery.h"

#include "common/ordered_lock.h"

namespace atp {

struct QueueStats {
  std::uint64_t enqueued = 0;     ///< committed enqueues
  std::uint64_t transmitted = 0;  ///< qdata sends (incl. retransmissions)
  std::uint64_t delivered = 0;    ///< distinct messages accepted inbound
  std::uint64_t duplicates = 0;   ///< retransmissions deduplicated
  std::uint64_t consumed = 0;     ///< committed dequeues
  std::uint64_t redelivered = 0;  ///< claims returned by aborting consumers
};

class QueueEndpoint {
 public:
  QueueEndpoint(SiteId site, SimNetwork& net);

  /// Stage `payload` (serialized bytes; see e.g. encode_cross_site) for queue
  /// `queue` at site `dest`, as part of `txn`'s effects: nothing is sent
  /// unless txn commits.
  void enqueue(Txn& txn, SiteId dest, std::string queue,
               std::string payload);

  /// Claim the head of local queue `queue` under `txn`: consumed if txn
  /// commits, returned to the queue (front) if it aborts.  Empty optional if
  /// the queue is empty.
  std::optional<std::string> try_dequeue(Txn& txn,
                                         const std::string& queue);

  /// Retransmit unacknowledged outbound messages older than the retry
  /// interval.  Call periodically (the site daemon does).
  void pump();

  /// Handle an inbound "qdata" message: dedupe, store durably, acknowledge.
  /// Returns true if the message was new (callers dispatch application
  /// handlers only for new messages).
  bool deliver(const Message& msg);

  /// Handle an inbound "qack": the destination has durably accepted the
  /// outbound message; stop retransmitting it.
  void handle_ack(const Message& msg);

  /// Site failure: volatile claims revert; durable outbound/inbound survive.
  void crash();

  /// Number of deliverable messages in a local queue.
  [[nodiscard]] std::size_t depth(const std::string& queue) const;

  /// Names of local queues with deliverable messages (crash-recovery scan).
  [[nodiscard]] std::vector<std::string> nonempty_queues() const;

  /// Unacknowledged outbound messages (drained == all delivered).
  [[nodiscard]] std::size_t outbound_backlog() const;

  [[nodiscard]] QueueStats stats() const;

  void set_retry_interval(std::chrono::milliseconds interval) {
    retry_interval_ = interval;
  }

  /// Attach a write-ahead log: enqueue/consume records are staged under
  /// their transactions, deliveries are force-logged before they are
  /// acknowledged.  Makes restore_from() after a total-loss crash possible.
  void attach_wal(LogDevice* wal) { wal_ = wal; }

  /// Rebuild the endpoint's durable state from a recovery report (clears
  /// everything volatile first).
  void restore_from(const RecoveryResult& recovery);

  /// Attach a tracer: queue lifecycle events (commit-time enqueue, dequeue
  /// claims, inbound deliveries, abort/crash redeliveries) are recorded.
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Outbound {
    std::uint64_t qmsg_id = 0;
    SiteId dest = 0;
    std::string queue;
    std::string payload;
    Clock::time_point last_sent{};
    bool sent_once = false;
  };

  struct Delivered {
    std::uint64_t qmsg_id = 0;
    std::string payload;
  };

  void transmit_locked(Outbound& out);

  SiteId site_;
  SimNetwork& net_;
  LogDevice* wal_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::chrono::milliseconds retry_interval_{20};

  mutable OrderedMutex<LockRank::kQueueEndpoint> mu_;  ///< rank kQueueEndpoint: WAL append + net send happen under it
  std::uint64_t next_qmsg_ = 1;
  std::vector<Outbound> outbound_;                        // durable
  std::unordered_map<std::string, std::deque<Delivered>> inbound_;  // durable
  std::unordered_set<std::uint64_t> seen_;                // durable dedupe
  // claim token -> (queue, message); volatile (reverts on crash)
  std::unordered_map<std::uint64_t, std::pair<std::string, Delivered>> claims_;
  std::uint64_t next_claim_ = 1;
  QueueStats stats_;
};

}  // namespace atp
