// Transaction-program intermediate representation for off-line chopping
// analysis (Section 1.2).
//
// The chopping technique assumes the database user knows, off-line, (1) all
// transaction programs that will run during some interval and (2) where every
// rollback statement is.  A TxnProgram captures exactly that knowledge: an
// ordered list of read/write accesses to abstract data items, the positions
// of rollback statements, the ET kind, and the transaction's eps-spec.
//
// Writes carry a `bound`: the maximum |delta| the write can cause ("a bank
// customer may withdraw at most $500.00 per day", Section 3).  Bounds feed
// the C-edge weights of ESR-chopping; kUnknownBound (= infinity) degrades an
// ESR-chopping to an SR-chopping for the affected edges, which is the paper's
// upward-compatibility story.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "txn/epsilon.h"

namespace atp {

constexpr Value kUnknownBound = kInfiniteLimit;

/// Access kinds, distinguished by commutativity: the paper (after Shasha)
/// defines a C edge by operations that "do not commute".  Balance increments
/// (Add) commute with each other -- two transfers may interleave freely and
/// reach the same final state -- but not with reads or absolute writes.
/// At runtime every mutation still takes an exclusive lock; commutativity
/// only sharpens the *off-line* conflict analysis.
enum class AccessType : std::uint8_t {
  Read,   ///< observe the value
  Add,    ///< value += delta (commutes with other Adds on the same item)
  Write,  ///< value = delta (absolute; commutes only with nothing)
};

struct Access {
  AccessType type = AccessType::Read;
  Key item = 0;        ///< abstract data item (account, seat block, ...)
  Value bound = 0;     ///< max |delta| a mutation can cause; 0 for reads
  /// Executable payload: Add runs as `item += delta`, Write as `item = delta`.
  /// The chopping analysis never looks at delta (only at bound); |delta| must
  /// be <= bound for the off-line weights to be honest.
  Value delta = 0;

  [[nodiscard]] static Access read(Key item) noexcept {
    return {AccessType::Read, item, 0, 0};
  }
  [[nodiscard]] static Access add(Key item, Value delta,
                                  Value bound = kUnknownBound) noexcept {
    return {AccessType::Add, item, bound, delta};
  }
  [[nodiscard]] static Access write(Key item, Value value,
                                    Value bound = kUnknownBound) noexcept {
    return {AccessType::Write, item, bound, value};
  }

  [[nodiscard]] bool is_mutation() const noexcept {
    return type != AccessType::Read;
  }
};

/// Do two accesses conflict (same item, non-commuting op pair)?
[[nodiscard]] constexpr bool conflicts(const Access& a, const Access& b) noexcept {
  if (a.item != b.item) return false;
  if (a.type == AccessType::Read && b.type == AccessType::Read) return false;
  if (a.type == AccessType::Add && b.type == AccessType::Add) return false;
  return true;
}

struct TxnProgram {
  std::string name;
  TxnKind kind = TxnKind::Update;
  std::vector<Access> ops;  ///< program order
  /// Op indices *after which* a rollback statement may execute.  A chopping
  /// is rollback-safe only if every such index lands inside the first piece.
  std::vector<std::size_t> rollback_after;
  /// Limit_t: the transaction's eps-spec.  The ESR chopping analysis bounds
  /// every transaction's inter-sibling fuzziness Z^is by it; at run time
  /// only a query's is charged (its pieces' import limits), since update
  /// pieces run serializable.
  Value epsilon_limit = 0;
  /// Administrator's choice: programs marked non-choppable always run as a
  /// single piece (the finest-chopping searches leave them whole).
  bool choppable = true;

  [[nodiscard]] bool is_update() const noexcept {
    return kind == TxnKind::Update;
  }
};

/// One runtime execution of a transaction type: the type's ops re-bound to
/// concrete keys/deltas.  The chopping is computed once per *type* (the job
/// stream the administrator knows off-line); instances reuse its piece
/// boundaries, so ops.size() must equal the type's ops.size() and access i
/// must conflict no more broadly than the type's access i.
struct TxnInstance {
  std::size_t type_index = 0;
  std::vector<Access> ops;
  /// Ground truth for query ETs whose correct (serializable) answer is known
  /// a priori (e.g. an audit sum over accounts whose total is invariant).
  /// The executor reports |observed - expected| as the realized inconsistency.
  bool has_expected_result = false;
  Value expected_result = 0;
  /// Pre-sampled decision: take the programmed rollback when reaching the
  /// type's rollback point (piece 1 only; rollback-safety).
  bool take_rollback = false;
};

/// Fluent builder so tests and workloads read like the paper's examples.
class ProgramBuilder {
 public:
  ProgramBuilder(std::string name, TxnKind kind) {
    p_.name = std::move(name);
    p_.kind = kind;
  }
  ProgramBuilder& read(Key item) {
    p_.ops.push_back(Access::read(item));
    return *this;
  }
  ProgramBuilder& add(Key item, Value delta, Value bound = kUnknownBound) {
    p_.ops.push_back(Access::add(item, delta, bound));
    return *this;
  }
  ProgramBuilder& write(Key item, Value value, Value bound = kUnknownBound) {
    p_.ops.push_back(Access::write(item, value, bound));
    return *this;
  }
  /// Record a rollback statement at the current position.
  ProgramBuilder& rollback_point() {
    p_.rollback_after.push_back(p_.ops.empty() ? 0 : p_.ops.size() - 1);
    return *this;
  }
  ProgramBuilder& epsilon(Value limit) {
    p_.epsilon_limit = limit;
    return *this;
  }
  ProgramBuilder& not_choppable() {
    p_.choppable = false;
    return *this;
  }
  [[nodiscard]] TxnProgram build() { return std::move(p_); }

 private:
  TxnProgram p_;
};

}  // namespace atp
