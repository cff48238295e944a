#include "dist/site.h"

#include <cassert>

#include "dist/coordinator.h"  // decode_gtid (done-notice payload codec)

namespace atp {

Site::Site(SiteId id, SimNetwork& net, DatabaseOptions db_options)
    : id_(id), net_(net), db_(db_options), queues_(id, net) {
  // One tracer serves the whole site: the database options carry it to the
  // scheduler/locks/registry, and the queue endpoint shares it.
  queues_.set_tracer(db_options.tracer);
  // Likewise one metrics registry: the Database registered its own eps/lock
  // collector; the site adds the queue-endpoint and network views under a
  // site-scoped prefix (many sites may share one registry).
  if (obs::MetricsRegistry* reg = db_.metrics(); reg != nullptr) {
    const std::string p = "site" + std::to_string(id_) + ".";
    collector_id_ = reg->add_collector([this, p](obs::SnapshotBuilder& b) {
      const QueueStats qs = queues_.stats();
      b.counter(p + "queue.enqueued", double(qs.enqueued));
      b.counter(p + "queue.transmitted", double(qs.transmitted));
      b.counter(p + "queue.delivered", double(qs.delivered));
      b.counter(p + "queue.duplicates", double(qs.duplicates));
      b.counter(p + "queue.consumed", double(qs.consumed));
      b.counter(p + "queue.redelivered", double(qs.redelivered));
      b.gauge(p + "queue.backlog", double(queues_.outbound_backlog()));
      // Site-prefixed though the network is shared: sample names must be
      // unique when several sites publish into one registry.
      const NetStats ns = net_.stats();
      b.counter(p + "net.sent", double(ns.sent));
      b.counter(p + "net.delivered", double(ns.delivered));
      b.counter(p + "net.dropped", double(ns.dropped));
    });
  }
}

Site::~Site() {
  stop();
  if (obs::MetricsRegistry* reg = db_.metrics(); reg != nullptr) {
    reg->remove_collector(collector_id_);
  }
}

void Site::start() {
  if (running_.exchange(true)) return;
  handler_thread_ = std::thread([this] { handler_loop(); });
  daemon_thread_ = std::thread([this] { daemon_loop(); });
  for (std::size_t i = 0; i < kWorkers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
}

void Site::stop() {
  if (!running_.exchange(false)) return;
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (handler_thread_.joinable()) handler_thread_.join();
  if (daemon_thread_.joinable()) daemon_thread_.join();
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
}

void Site::set_queue_handler(QueueHandler handler) {
  std::lock_guard lock(mu_);
  queue_handler_ = std::move(handler);
}

void Site::stash_subtransaction(std::uint64_t gtid, Txn txn) {
  std::lock_guard lock(mu_);
  subtxns_.emplace(gtid, std::move(txn));
}

bool Site::prepare_subtransaction(std::uint64_t gtid) {
  std::lock_guard lock(mu_);
  if (!subtxns_.count(gtid)) return false;
  prepared_.insert(gtid);
  return true;
}

bool Site::wait_done(std::uint64_t gtid, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  return done_cv_.wait_for(lock, timeout,
                           [&] { return done_.count(gtid) > 0; });
}

void Site::crash() {
  Tracer::emit(db_.tracer(), TraceKind::SiteCrash, id_);
  up_.store(false, std::memory_order_release);
  net_.set_site_up(id_, false);

  std::lock_guard lock(mu_);
  // Prepared subtransactions were force-logged before voting: their staged
  // writes survive.  Everything else dirty is lost.
  std::unordered_set<TxnId> survivors;
  for (std::uint64_t gtid : prepared_) {
    auto it = subtxns_.find(gtid);
    if (it != subtxns_.end()) survivors.insert(it->second.id());
  }
  db_.crash(&survivors);
  for (auto it = subtxns_.begin(); it != subtxns_.end();) {
    if (prepared_.count(it->first)) {
      ++it;
      continue;
    }
    it->second.abort();  // store already cleared; releases locks + registry
    it = subtxns_.erase(it);
  }
  queues_.crash();
  // Queued-but-unstarted piece work dies with the process; recover()'s scan
  // of the durable queues re-triggers it.
  pending_work_.clear();
}

void Site::recover() {
  Tracer::emit(db_.tracer(), TraceKind::SiteRecover, id_);
  net_.set_site_up(id_, true);
  up_.store(true, std::memory_order_release);
  // Re-trigger handlers for everything still sitting in the durable queues.
  for (const std::string& queue : queues_.nonempty_queues()) {
    const std::size_t n = queues_.depth(queue);
    for (std::size_t i = 0; i < n; ++i) process_queue_message(queue);
  }
}

void Site::handler_loop() {
  while (running_.load(std::memory_order_acquire)) {
    if (!up()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    auto msg = net_.receive_request(id_, std::chrono::milliseconds(5));
    if (!msg) continue;
    if (!up()) continue;  // crashed while the message was in flight
    handle(std::move(*msg));
  }
}

void Site::daemon_loop() {
  while (running_.load(std::memory_order_acquire)) {
    if (up()) queues_.pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Site::worker_loop() {
  while (running_.load(std::memory_order_acquire)) {
    std::function<void()> work;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait_for(lock, std::chrono::milliseconds(20), [&] {
        return !pending_work_.empty() ||
               !running_.load(std::memory_order_acquire);
      });
      if (pending_work_.empty()) continue;
      work = std::move(pending_work_.front());
      pending_work_.pop_front();
    }
    work();
  }
}

void Site::process_queue_message(const std::string& queue) {
  if (queue == kDoneQueue) {
    // Completion notice: consume transactionally and record.
    Txn txn = db_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    auto payload = queues_.try_dequeue(txn, queue);
    Status s = txn.commit();
    if (!s.ok()) return;  // crash raced the consume; redelivery re-runs this
    if (payload) {
      if (const std::optional<std::uint64_t> gtid = decode_gtid(*payload)) {
        std::lock_guard lock(mu_);
        done_.insert(*gtid);
        done_cv_.notify_all();
      }
    }
    return;
  }

  // Application queue: hand to a worker so a long (or lock-blocked) piece
  // never stalls 2PC participation.
  {
    std::lock_guard lock(mu_);
    if (!queue_handler_) return;
    pending_work_.push_back([this, handler = queue_handler_, queue] {
      handler(*this, queue);
    });
  }
  work_cv_.notify_one();
}

void Site::handle(Message msg) {
  // Answer `msg` with a `type` reply carrying `value`.
  auto reply = [this, &msg](const char* type, Value value) {
    Message r;
    r.from = id_;
    r.to = msg.from;
    r.correlation = msg.id;
    r.type = type;
    r.gtid = msg.gtid;
    r.value = value;
    net_.send(std::move(r));
  };

  if (msg.type == "prepare") {
    reply("vote", prepare_subtransaction(msg.gtid) ? 1 : 0);
    return;
  }

  if (msg.type == "commit" || msg.type == "abort") {
    {
      std::lock_guard lock(mu_);
      auto it = subtxns_.find(msg.gtid);
      if (it != subtxns_.end()) {
        if (msg.type == "commit") {
          Status s = it->second.commit();
          assert(s.ok());
          (void)s;
        } else {
          it->second.abort();
        }
        subtxns_.erase(it);
        prepared_.erase(msg.gtid);
      }
      // Unknown gtid: the decision was already applied (retransmission);
      // ack idempotently.
    }
    reply("ack", 0);
    return;
  }

  if (msg.type == "validate") {
    // Global-validation round of the baseline protocol: confirm this site's
    // serialization order (trivially consistent here -- the round trip's
    // latency is what the comparison charges the baseline for).
    reply("ack", 0);
    return;
  }

  if (msg.type == "qack") {
    queues_.handle_ack(msg);
    return;
  }

  if (msg.type == "qdata") {
    const bool is_new = queues_.deliver(msg);
    if (!is_new) return;
    const auto* envelope =
        std::any_cast<std::pair<std::string, std::string>>(&msg.payload);
    if (envelope == nullptr) return;
    process_queue_message(envelope->first);
    return;
  }
}

}  // namespace atp
