// Banking workload: the paper's running example (Sections 1.1, 3, 4).
//
//   * transfer ETs move a bounded amount between two accounts (within one
//     branch or across two branches).  Update ETs, two Add ops, optionally a
//     rollback statement after the debit ("insufficient funds").
//   * branch-audit ETs read a sample of one branch's accounts.  Query ETs.
//   * global-audit ETs read EVERY account and report the grand total, whose
//     correct serializable value is the invariant total_money -- the realized
//     inconsistency of an execution is directly measurable against it.
//
// Off-line structure (what makes the method comparison interesting):
//   * transfers commute with each other (Add/Add), so transfer-transfer
//     pairs contribute no C edges;
//   * a cross-branch transfer chopped at the branch boundary forms an
//     SC-cycle with any audit that covers both branches -> SR-chopping
//     degenerates to unchopped whenever a global audit is in the job stream,
//     while ESR-chopping stays fine-grained as long as the transfer bound
//     fits the eps budgets (Definition 1).  This is exactly the paper's
//     Section 4 New-York/Los-Angeles scenario.
#pragma once

#include <cstdint>

#include "workload/workload.h"

namespace atp {

struct BankingConfig {
  std::size_t branches = 2;
  std::size_t accounts_per_branch = 64;
  Value initial_balance = 1000;
  Value max_transfer = 100;      ///< per-transfer bound (the "$500/day" cap)
  double intra_branch_fraction = 0.0;   ///< transfers within one branch
  double branch_audit_fraction = 0.15;  ///< of instances
  double global_audit_fraction = 0.05;  ///< of instances
  std::size_t audit_scan = 16;   ///< accounts a branch audit reads
  double zipf_theta = 0.0;       ///< account-selection skew
  Value update_epsilon = 200;    ///< Limit_t of transfers
  Value query_epsilon = 400;     ///< Limit_t of audits (import side)
  double rollback_probability = 0.0;  ///< transfers that take the rollback
  /// Hops per transfer: each hop is a (debit, credit) pair between two
  /// branches, so a transfer type has 2*hops ops and chops into up to
  /// 2*hops pieces -- the chopping-depth knob of the Figure 2 ablation.
  std::size_t hops = 1;
  /// Let the chopper split audits into per-read pieces.  Off by default:
  /// the paper's central local scenario chops the updates while audits read
  /// boundedly-stale data whole (chopped queries star in the distributed
  /// layer instead).
  bool chop_audits = false;
};

/// Key of account `index` in `branch`.
[[nodiscard]] constexpr Key banking_account_key(std::size_t branch,
                                                std::size_t index) noexcept {
  return static_cast<Key>(branch) * 1'000'000 + index;
}

/// Abstract item standing for "all accounts of branch b" in type programs.
[[nodiscard]] constexpr Key banking_branch_class(std::size_t branch) noexcept {
  return 900'000'000 + static_cast<Key>(branch);
}

[[nodiscard]] Workload make_banking(const BankingConfig& config,
                                    std::size_t n_instances,
                                    std::uint64_t seed);

}  // namespace atp
