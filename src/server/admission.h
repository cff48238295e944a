// Admission control: client classes buy epsilon budget.
//
// The paper's knob -- an ET pays for throughput with bounded inconsistency
// (its eps-spec) -- becomes the server's QoS surface here.  Every session
// authenticates as a *class*, and the class policy decides what its
// transactions may ask of divergence control:
//
//   * a per-transaction ceiling: the largest import limit a Begin may
//     request.  A "gold" class with ceiling 0 is the serializable special
//     case (eps = 0); a "bronze" class with a huge ceiling lets its queries
//     read fresh versions and gets the Section 1.1 throughput win in
//     exchange for fuzziness.  A Begin asking beyond its ceiling is
//     REJECTED -- a client cannot buy consistency laxity its class didn't
//     pay for.  Divergence control is import-only in this engine, so only a
//     query's limit is granted; an update ET is serializable and has no eps
//     budget.
//
//   * a concurrent budget: the summed finite eps granted to the class's
//     in-flight queries.  When exhausted, further Begins are rejected
//     (kUnavailable -- retry later), which bounds the total fuzziness the
//     class can have outstanding at once.  Rejections are counted per class
//     through the obs registry (srv.admission.rejected.<class>).
//
//   * a per-session in-flight window: how many parsed-but-unfinished
//     requests one connection may pipeline (session.h enforces it).
//
// Thread safety: admit/release run on the server threads executing
// requests; one mutex serializes the budget ledger (admissions are orders
// of magnitude rarer than ops, so this is nowhere near the hot path).
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/epsilon.h"

#include "common/ordered_lock.h"

namespace atp::server {

struct ClassPolicy {
  std::string name;
  Value import_ceiling = 0;  ///< max import limit a query Begin may request
  /// Cap on summed finite eps granted to concurrently-live transactions of
  /// this class; kInfiniteLimit = unmetered.
  Value concurrent_budget = kInfiniteLimit;
  std::size_t window = 32;   ///< per-session in-flight request window
};

/// The stock tiering: pay less consistency, get admitted more freely.
///   gold    eps 0 (serializable), unmetered -- the classic-transaction tier
///   silver  moderate ceilings under a finite concurrent budget
///   bronze  huge ceilings, unmetered -- the "throughput at eps" tier
[[nodiscard]] std::vector<ClassPolicy> default_classes();

/// Parse "name:limit[:budget[:window]]" (atpd --class flag).
/// Returns false on malformed input.
bool parse_class_policy(const std::string& spec, ClassPolicy* out);

class AdmissionController {
 public:
  explicit AdmissionController(std::vector<ClassPolicy> classes);

  /// nullptr when no class of that name exists (the session handshake
  /// fails).  Pointers stay valid for the controller's lifetime.
  [[nodiscard]] const ClassPolicy* find(const std::string& name) const;

  struct Grant {
    bool admitted = false;
    EpsilonSpec spec;  ///< granted eps-spec (valid when admitted)
    Status status;     ///< rejection reason otherwise
  };

  /// Decide a Begin from class `cls`: a requested import limit < 0 means
  /// "class default" (the ceiling); anything above the ceiling or beyond the
  /// class's remaining concurrent budget is rejected.
  [[nodiscard]] Grant admit(const ClassPolicy& cls, TxnKind kind,
                            double req_import);

  /// Return a granted spec's budget (transaction ended or session died).
  void release(const ClassPolicy& cls, const EpsilonSpec& granted);

  /// Finite eps currently granted to live transactions of `cls` (tests).
  [[nodiscard]] Value outstanding(const std::string& cls) const;

  [[nodiscard]] const std::vector<ClassPolicy>& classes() const noexcept {
    return classes_;
  }

 private:
  /// The budget cost of a granted spec: its import limit when finite (an
  /// infinite limit is unmetered -- only finite ceilings are metered).
  [[nodiscard]] static Value cost_of(const EpsilonSpec& spec) noexcept;

  std::vector<ClassPolicy> classes_;
  mutable OrderedMutex<LockRank::kAdmission> mu_;  ///< rank kAdmission: leaf (no lock taken while held)
  std::unordered_map<std::string, Value> outstanding_;
};

}  // namespace atp::server
