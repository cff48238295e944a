#include "wal/log.h"

#include <algorithm>
#include <thread>

#include "fault/fault.h"

namespace atp {

std::uint64_t LogDevice::append(LogRecord record) {
  std::lock_guard lock(mu_);
  record.lsn = next_lsn_++;
  records_.push_back(std::move(record));
  return records_.back().lsn;
}

std::uint64_t LogDevice::append_txn(
    TxnId txn, std::span<const std::pair<Key, Value>> writes,
    LogRecordType terminal, PieceStamp stamp) {
  std::lock_guard lock(mu_);
  for (const auto& [key, value] : writes) {
    LogRecord& r = records_.emplace_back();
    r.lsn = next_lsn_++;
    r.type = LogRecordType::kWrite;
    r.txn = txn;
    r.key = key;
    r.value = value;
  }
  LogRecord& t = records_.emplace_back();
  t.lsn = next_lsn_++;
  t.type = terminal;
  t.txn = txn;
  if (stamp.continuation != kInvalidTxn) {
    t.key = stamp.continuation;
    t.piece = stamp.piece;
    t.value = stamp.z;
    t.payload = std::move(stamp.payload);
  }
  return t.lsn;
}

bool LogDevice::fsync() {
  // Snapshot the target LSN up front: this sync covers what was appended
  // before it started.  The latency sleep and the injector's verdict happen
  // outside mu_ (the injector has its own lock, and the decision depends
  // only on seed + per-site attempt count), so concurrent appenders queue
  // up behind the NEXT sync instead of this one -- the behavior group
  // commit batches against.
  FaultInjector* fault;
  SiteId site;
  std::chrono::microseconds latency;
  std::uint64_t target;
  {
    std::lock_guard lock(mu_);
    fault = fault_;
    site = fault_site_;
    latency = fsync_latency_;
    target = next_lsn_ - 1;
  }
  if (latency.count() > 0) std::this_thread::sleep_for(latency);
  if (fault != nullptr && fault->fsync_fails(site)) {
    std::lock_guard lock(mu_);
    ++fsync_failures_;
    return false;
  }
  std::lock_guard lock(mu_);
  ++fsyncs_;
  if (target > durable_lsn_.load(std::memory_order_acquire)) {
    durable_lsn_.store(target, std::memory_order_release);
  }
  return true;
}

void LogDevice::set_fsync_latency(std::chrono::microseconds latency) {
  std::lock_guard lock(mu_);
  fsync_latency_ = latency;
}

void LogDevice::set_fault_injector(FaultInjector* injector, SiteId site) {
  std::lock_guard lock(mu_);
  fault_ = injector;
  fault_site_ = site;
}

std::uint64_t LogDevice::fsync_count() const {
  std::lock_guard lock(mu_);
  return fsyncs_;
}

std::uint64_t LogDevice::fsync_failures() const {
  std::lock_guard lock(mu_);
  return fsync_failures_;
}

std::uint64_t LogDevice::next_lsn() const {
  std::lock_guard lock(mu_);
  return next_lsn_;
}

std::optional<std::uint64_t> LogDevice::read_from(
    std::uint64_t from, std::size_t max, std::vector<LogRecord>& out) const {
  std::lock_guard lock(mu_);
  // records_ stays LSN-sorted: appends are monotone and truncation keeps
  // order, so the cursor position is a binary search away.
  auto it = std::lower_bound(
      records_.begin(), records_.end(), from,
      [](const LogRecord& r, std::uint64_t lsn) { return r.lsn < lsn; });
  if (it == records_.end()) return std::nullopt;
  std::size_t n = 0;
  for (; it != records_.end() && n < max; ++it, ++n) out.push_back(*it);
  return it == records_.end() ? next_lsn_ : it->lsn;
}

std::vector<LogRecord> LogDevice::records() const {
  std::lock_guard lock(mu_);
  return records_;
}

void LogDevice::truncate_before(std::uint64_t lsn) {
  std::lock_guard lock(mu_);
  std::erase_if(records_,
                [lsn](const LogRecord& r) { return r.lsn < lsn; });
}

void LogDevice::tear_to_durable() {
  std::lock_guard lock(mu_);
  const std::uint64_t durable = durable_lsn_.load(std::memory_order_acquire);
  std::erase_if(records_,
                [durable](const LogRecord& r) { return r.lsn > durable; });
}

std::size_t LogDevice::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

}  // namespace atp
