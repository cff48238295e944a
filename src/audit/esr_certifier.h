// Online epsilon-serializability (ESR) certifier.
//
// Replays the fuzziness ledger captured in the trace -- every FuzzImport
// increment, each stamped with the account's limit at charge time -- and
// verifies that no committed ET's accumulated import fuzziness ever exceeded
// its eps-spec (the Limit_t the divergence controller promised to enforce).
// Divergence control is import-only, so an update ET has no ledger entries.
// It also cross-checks the ledger against the engine's own accounting: the
// Z a transaction reported at commit must equal the replayed import total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/sr_certifier.h"  // AuditNode helpers
#include "trace/tracer.h"

namespace atp {

enum class EsrViolationKind : std::uint8_t {
  ImportOverrun,   ///< accumulated import exceeded the limit at charge time
  LedgerMismatch,  ///< commit-time Z disagrees with the replayed ledger
};

[[nodiscard]] inline const char* to_string(EsrViolationKind k) noexcept {
  switch (k) {
    case EsrViolationKind::ImportOverrun: return "import overrun";
    case EsrViolationKind::LedgerMismatch: return "ledger mismatch";
  }
  return "?";
}

struct EsrViolation {
  EsrViolationKind kind = EsrViolationKind::ImportOverrun;
  AuditNode node = 0;          ///< offending ET
  std::uint64_t seq = 0;       ///< event where the account went over
  Value accumulated = 0;       ///< running total after the charge
  Value limit = 0;             ///< the limit in force at that charge
};

struct EsrReport {
  bool ok = false;
  bool complete = true;     ///< false when the tracer dropped events
  std::size_t charges = 0;  ///< ledger entries replayed
  std::size_t committed_ets = 0;
  std::vector<EsrViolation> violations;  ///< committed ETs only

  [[nodiscard]] std::string describe() const;
};

/// Certify `events` (seq-sorted, as from Tracer::collect()).  Only committed
/// ETs are judged: an in-flight overrun that the scheduler aborted is the
/// mechanism working, not a violation.  `dropped`: Tracer::dropped() at
/// collect time.
[[nodiscard]] EsrReport certify_esr(const std::vector<TraceEvent>& events,
                                    std::uint64_t dropped = 0);

}  // namespace atp
