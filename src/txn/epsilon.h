// Epsilon-specification types (Section 1.1).
//
// In the paper each epsilon transaction (ET) carries an eps-spec: an
// *import* inconsistency limit if it is a query ET (how much fuzziness it
// may observe) and an *export* limit if it is an update ET (how much its
// uncommitted writes may leak to concurrent queries).  This engine's
// divergence control runs over a multi-version store: a query observes only
// committed versions and pays for their divergence from its snapshot itself,
// so nothing is ever charged to an update ET and the spec is import-only.
// An update ET runs serializable (eps = 0).  Classic serializable
// transactions are the special case eps = 0; unrestricted chopped pieces use
// eps = infinity to bypass divergence control entirely (Section 2.2).
#pragma once

#include "common/types.h"

namespace atp {

struct EpsilonSpec {
  Value import_limit = 0;  ///< max fuzziness a query ET may accumulate

  [[nodiscard]] static EpsilonSpec serializable() noexcept { return {0}; }
  [[nodiscard]] static EpsilonSpec unlimited() noexcept {
    return {kInfiniteLimit};
  }
  [[nodiscard]] static EpsilonSpec importing(Value eps) noexcept {
    return {eps};
  }

  friend bool operator==(const EpsilonSpec&, const EpsilonSpec&) = default;
};

/// The eps-spec a `kind` ET runs with when its Limit is `limit`: a query ET
/// imports up to `limit`; an update ET is never charged, so it runs
/// serializable whatever its Limit.
[[nodiscard]] inline EpsilonSpec spec_for(TxnKind kind, Value limit) noexcept {
  return kind == TxnKind::Query ? EpsilonSpec::importing(limit)
                                : EpsilonSpec::serializable();
}

}  // namespace atp
