#include "audit/esr_certifier.h"

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace atp {
namespace {

// Float tolerance for re-summed ledgers: replay performs the same additions
// in the same order as the registry, so this only has to absorb noise from
// exporters that round-tripped values through text.
[[nodiscard]] bool over(Value accumulated, Value limit) noexcept {
  return accumulated > limit + 1e-9 * std::max<Value>(1, std::fabs(limit));
}

struct Account {
  Value imported = 0;
  // First overrun seen while live (reported only if the ET commits).
  bool import_over = false;
  EsrViolation import_viol;
};

}  // namespace

std::string EsrReport::describe() const {
  std::ostringstream out;
  if (!complete) out << "[incomplete trace: events dropped] ";
  if (ok) {
    out << "ESR: OK (" << committed_ets << " committed ETs, " << charges
        << " ledger entries, all within eps-spec)";
    return out.str();
  }
  out << "ESR violation:";
  for (const EsrViolation& v : violations) {
    out << " [" << to_string(v.kind);
    if (audit_node_site(v.node) != 0) out << " site" << audit_node_site(v.node);
    out << " T" << audit_node_txn(v.node) << ": " << v.accumulated << " vs "
        << v.limit << " at seq " << v.seq << "]";
  }
  return out.str();
}

EsrReport certify_esr(const std::vector<TraceEvent>& events,
                      std::uint64_t dropped) {
  EsrReport report;
  report.complete = dropped == 0;

  std::unordered_map<AuditNode, Account> accounts;
  std::unordered_set<AuditNode> committed;

  for (const TraceEvent& e : events) {
    const AuditNode node = audit_node(e.site, e.txn);
    switch (e.kind) {
      case TraceKind::FuzzImport: {
        Account& acc = accounts[node];
        acc.imported += e.a;
        ++report.charges;
        if (!acc.import_over && over(acc.imported, e.b)) {
          acc.import_over = true;
          acc.import_viol = EsrViolation{EsrViolationKind::ImportOverrun, node,
                                         e.seq, acc.imported, e.b};
        }
        break;
      }
      case TraceKind::TxnCommit: {
        committed.insert(node);
        const Account& acc = accounts[node];  // zero account if never charged
        const Value replayed = acc.imported;
        // Cross-check the engine's commit-time Z against the replayed
        // ledger; identical addition order makes this near-exact.
        if (std::fabs(replayed - e.a) >
            1e-9 * std::max<Value>(1, std::fabs(replayed))) {
          report.violations.push_back(
              EsrViolation{EsrViolationKind::LedgerMismatch, node, e.seq,
                           replayed, e.a});
        }
        if (acc.import_over) report.violations.push_back(acc.import_viol);
        break;
      }
      default:
        break;
    }
  }

  report.committed_ets = committed.size();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace atp
