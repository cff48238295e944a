#include "engine/plan.h"

#include <algorithm>
#include <cassert>

namespace atp {
namespace {

// Derive DG(CHOP(t)) from the program text, as the paper assumes: piece j
// depends on the latest earlier piece touching a common data item (the
// dataflow proxy -- "p2 depends on p1" in the transfer example because the
// amount flows through).  Pieces sharing nothing hang directly off piece 1,
// which must commit first anyway (rollback-safety), so independent siblings
// may be scheduled in parallel and Figure 2's fan-out split applies.
std::vector<std::size_t> derive_dependency_parents(
    const TxnProgram& program,
    const std::vector<std::pair<std::size_t, std::size_t>>& piece_ranges) {
  const std::size_t k = piece_ranges.size();
  std::vector<std::size_t> parent(k, 0);
  auto items_of = [&](std::size_t p) {
    std::vector<Key> items;
    for (std::size_t i = piece_ranges[p].first; i < piece_ranges[p].second;
         ++i) {
      items.push_back(program.ops[i].item);
    }
    return items;
  };
  for (std::size_t j = 1; j < k; ++j) {
    const auto ij = items_of(j);
    for (std::size_t i = j; i-- > 1;) {  // latest earlier piece, piece 0 last
      const auto ii = items_of(i);
      bool shared = false;
      for (Key a : ij) {
        for (Key b : ii) {
          if (a == b) shared = true;
        }
      }
      if (shared) {
        parent[j] = i;
        break;
      }
    }
  }
  return parent;
}

// Intersect the piece-boundary sets of two contiguous partitions of the same
// op sequence.  The result is a common coarsening -- and coarsening a valid
// chopping (merging pieces) can only remove S edges / SC-cycles, never add
// them, so validity is preserved.
std::vector<std::size_t> intersect_boundaries(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  assert(!out.empty() && out.front() == 0);
  return out;
}

}  // namespace

Result<ExecutionPlan> ExecutionPlan::build(std::vector<TxnProgram> type_stream,
                                           MethodConfig method) {
  const std::size_t n = type_stream.size();

  // Two concurrent *instances* of the same type conflict wherever the type
  // conflicts with itself, which a single-copy stream cannot express.  We
  // analyze a doubled stream (Shasha's standard device) and then symmetrize:
  // each type's final chopping is the common coarsening of its two copies'
  // choppings, which keeps the doubled-stream validity.
  std::vector<TxnProgram> doubled = type_stream;
  doubled.insert(doubled.end(), type_stream.begin(), type_stream.end());

  Chopping raw = [&] {
    switch (method.chop) {
      case ChopMode::None: return Chopping::unchopped(doubled);
      case ChopMode::SR: return finest_sr_chopping(doubled);
      case ChopMode::ESR: return finest_esr_chopping(doubled);
    }
    return Chopping::unchopped(doubled);
  }();

  std::vector<std::vector<std::size_t>> starts;
  starts.reserve(2 * n);
  for (std::size_t t = 0; t < n; ++t) {
    starts.push_back(
        intersect_boundaries(raw.starts()[t], raw.starts()[t + n]));
  }
  for (std::size_t t = 0; t < n; ++t) starts.push_back(starts[t]);
  Chopping chopping(std::move(starts));

  // Validate what the search + symmetrization promise (cheap insurance).
  if (method.chop == ChopMode::SR) {
    if (Status s = validate_sr_chopping(doubled, chopping); !s.ok()) return s;
  } else if (method.chop == ChopMode::ESR) {
    if (Status s = validate_esr_chopping(doubled, chopping); !s.ok()) return s;
  }

  const PieceGraph graph = build_chopping_graph(doubled, chopping);

  ExecutionPlan plan;
  plan.method = method;
  plan.types.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    TxnTypePlan tp;
    tp.type = type_stream[t];
    const std::size_t k = chopping.piece_count(t);
    tp.piece_ranges.reserve(k);
    tp.restricted.reserve(k);
    for (std::size_t p = 0; p < k; ++p) {
      tp.piece_ranges.push_back(chopping.piece_range(t, p, tp.type.ops.size()));
      const std::size_t v = graph.vertex_of(t, p);
      assert(v != PieceGraph::npos);
      tp.restricted.push_back(graph.restricted(v));
    }
    tp.z_is = graph.inter_sibling_fuzziness(t);

    // Eq. 6: under divergence control, the budget handed to the scheduler
    // must reserve Z^is for the fuzziness the ESR-chopping itself admits.
    Value dc_limit = tp.type.epsilon_limit;
    if (method.sched == SchedulerKind::DC && method.chop == ChopMode::ESR) {
      dc_limit -= tp.z_is;
      if (dc_limit < 0) dc_limit = 0;  // Def. 1 cond 3 guarantees >= 0
    }
    tp.plan_info = ChopPlanInfo::tree(
        tp.restricted, derive_dependency_parents(tp.type, tp.piece_ranges),
        tp.type.kind, dc_limit);
    plan.types.push_back(std::move(tp));
  }
  return plan;
}

std::size_t ExecutionPlan::total_pieces() const {
  std::size_t n = 0;
  for (const auto& t : types) n += t.piece_ranges.size();
  return n;
}

}  // namespace atp
