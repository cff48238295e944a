// Simulated point-to-point network between sites.
//
// Delivery pays a configurable one-way latency (+ jitter); this is what makes
// the Section 4 comparison meaningful -- 2PC pays two or three round trips of
// it per distributed commit, the chopped/recoverable-queue path pays one
// one-way hop off the client's critical path.
//
// Failure injection: sites and links can be marked down.  Messages to a down
// site or across a down link are silently dropped (as a crashed process
// would), and a site's in-flight inbox is discarded when it crashes.
// Reliability on top of this (acks, retransmission, dedupe) is the
// recoverable-queue layer's job, mirroring the real protocol stack.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "obs/metrics_registry.h"
#include "trace/tracer.h"

#include "common/ordered_lock.h"

namespace atp {

class FaultInjector;

struct NetworkOptions {
  std::chrono::microseconds one_way_latency{500};
  std::chrono::microseconds jitter{0};  ///< uniform extra delay in [0, jitter]
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;  ///< destination/site/link down at send time
};

class SimNetwork {
 public:
  SimNetwork(std::size_t n_sites, NetworkOptions options);
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;
  ~SimNetwork();

  /// Queue `msg` for delivery after the simulated latency.  Assigns and
  /// returns the message id.  Dropped (id still returned) if the destination
  /// site or the link is down.
  std::uint64_t send(Message msg);

  /// Next deliverable *request* (correlation == 0) addressed to `site`.
  /// Blocks up to `timeout`; replies are left in place for receive_reply.
  std::optional<Message> receive_request(SiteId site,
                                         std::chrono::milliseconds timeout);

  /// Next deliverable request addressed to `site` that `claim` accepts.
  /// `claim` runs under the inbox lock, only on requests that are already
  /// deliverable, in inbox order; the first one it returns true for is
  /// popped and returned.  A claim may also record that it took the
  /// message: the record and the pop happen under the one lock.
  std::optional<Message> receive_request_if(
      SiteId site, std::chrono::milliseconds timeout,
      const std::function<bool(const Message&)>& claim);

  /// Make every receiver blocked on `site` look at its inbox again (a
  /// claim's answer changed).  No wakeup is lost to a receiver that is
  /// between its scan and its wait.
  void wake(SiteId site);

  /// Next deliverable *reply* addressed to `site` that `match` accepts
  /// (under the inbox lock, in inbox order, like receive_request_if's
  /// claim).  Other messages are left queued.
  std::optional<Message> receive_reply(
      SiteId site, std::chrono::milliseconds timeout,
      const std::function<bool(const Message&)>& match);

  /// The longest round trip a healthy link takes: two one-way latencies,
  /// each with its full jitter.
  [[nodiscard]] std::chrono::microseconds max_round_trip() const noexcept {
    return 2 * (options_.one_way_latency + options_.jitter);
  }

  void set_site_up(SiteId site, bool up);
  [[nodiscard]] bool site_up(SiteId site) const;

  /// Symmetric link control.
  void set_link_up(SiteId a, SiteId b, bool up);
  [[nodiscard]] bool link_up(SiteId a, SiteId b) const;

  [[nodiscard]] NetStats stats() const;
  void reset_stats();

  /// Attach a tracer: every send, drop, and delivery is recorded (site =
  /// sender for send/drop, receiver for delivery; key = the peer site).
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach a fault injector: every otherwise-deliverable send consults it
  /// for a drop / duplicate / extra-delay verdict (fault/fault.h).  Injected
  /// duplicates are delivered under FRESH message ids, so reply correlation
  /// (keyed on the id of a specific transmission) stays unambiguous.  Owned
  /// by the caller; must outlive the network or be detached with nullptr.
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  [[nodiscard]] std::size_t site_count() const noexcept {
    return inboxes_.size();
  }

  /// Publish the traffic tallies into `reg` as a pull collector
  /// (net.sim.sent / net.sim.delivered / net.sim.dropped).  The registry
  /// must outlive the network (the destructor unregisters).  nullptr
  /// detaches.
  void attach_metrics(obs::MetricsRegistry* reg);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Clock::time_point deliver_at;
    Message msg;
  };

  struct Inbox {
    mutable OrderedMutex<LockRank::kNetInbox> mu;  ///< rank kNetInbox: taken before state_mu_
    OrderedCondVar cv;
    std::list<Pending> messages;
  };

  // Wait until a message matching `pred` is deliverable; pop and return it.
  // `pred` is asked only about deliverable messages, and a true answer pops
  // that message at once.
  std::optional<Message> receive_matching(
      SiteId site, std::chrono::milliseconds timeout,
      const std::function<bool(const Message&)>& pred);

  // Lock order: an inbox's mu is ALWAYS taken before state_mu_ (send nests
  // the liveness check + id assignment inside the destination inbox lock;
  // the receive path nests its stats update the same way).  set_site_up
  // follows the same order, which is what closes the crash/send race: a
  // send either observes the site down, or completes its publish before the
  // crash clears the inbox -- never a push into an already-cleared inbox.
  NetworkOptions options_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  mutable OrderedMutex<LockRank::kNetState> state_mu_;  // rank kNetState; site/link up-ness + stats + ids + jitter
  std::vector<bool> site_up_;
  std::vector<std::vector<bool>> link_up_;
  NetStats stats_;
  std::uint64_t next_id_ = 1;
  Rng jitter_rng_{0};  // re-seeded from options in the constructor
  Tracer* tracer_ = nullptr;
  FaultInjector* fault_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace atp
