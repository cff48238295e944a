// Property-based suites:
//   * the block-decomposition SC-cycle detector against a brute-force
//     enumerate-all-simple-cycles oracle on random graphs;
//   * finest-chopping searches always return validating choppings, and
//     coarsening a valid chopping never invalidates it;
//   * the engine invariants (money conservation, epsilon bounds, no budget
//     violations, no update ET ever charged) under randomized workloads
//     across methods and seeds.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "chop/analyzer.h"
#include "chop/graph.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "workload/banking.h"

namespace atp {
namespace {

// ---------------------------------------------------------------------------
// Brute force: does a simple cycle with >= 1 S edge and >= 1 C edge exist?
// DFS over simple paths (fine for tiny graphs).
bool brute_force_sc_cycle(std::size_t n, const std::vector<GraphEdge>& edges) {
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[edges[e].u].emplace_back(edges[e].v, e);
    adj[edges[e].v].emplace_back(edges[e].u, e);
  }
  std::vector<bool> on_path(n, false);
  std::vector<bool> edge_used(edges.size(), false);
  bool found = false;

  std::function<void(std::size_t, std::size_t, int, int)> dfs =
      [&](std::size_t start, std::size_t u, int s_count, int c_count) {
        if (found) return;
        for (const auto& [w, e] : adj[u]) {
          if (edge_used[e]) continue;
          const int ns = s_count + (edges[e].kind == EdgeKind::S);
          const int nc = c_count + (edges[e].kind == EdgeKind::C);
          if (w == start) {
            if (ns >= 1 && nc >= 1) {
              found = true;
              return;
            }
            continue;
          }
          if (on_path[w]) continue;
          on_path[w] = true;
          edge_used[e] = true;
          dfs(start, w, ns, nc);
          edge_used[e] = false;
          on_path[w] = false;
          if (found) return;
        }
      };

  for (std::size_t v = 0; v < n && !found; ++v) {
    on_path[v] = true;
    dfs(v, v, 0, 0);
    on_path[v] = false;
  }
  return found;
}

class ScCycleOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScCycleOracleTest, BlockDetectorMatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    // Random graph: up to 4 transactions, up to 3 pieces each.
    const std::size_t n_txn = 1 + rng.uniform(4);
    PieceGraph g;
    std::vector<std::vector<std::size_t>> by_txn(n_txn);
    for (std::size_t t = 0; t < n_txn; ++t) {
      const std::size_t pieces = 1 + rng.uniform(3);
      for (std::size_t p = 0; p < pieces; ++p) {
        by_txn[t].push_back(g.add_piece(t, rng.chance(0.7)));
      }
    }
    // S cliques.
    for (const auto& ps : by_txn) {
      for (std::size_t i = 0; i < ps.size(); ++i) {
        for (std::size_t j = i + 1; j < ps.size(); ++j) {
          g.add_s_edge(ps[i], ps[j]);
        }
      }
    }
    // Random C edges across transactions (dedup).
    std::set<std::pair<std::size_t, std::size_t>> used;
    const std::size_t tries = rng.uniform(8);
    for (std::size_t k = 0; k < tries; ++k) {
      const std::size_t u = rng.uniform(g.vertex_count());
      const std::size_t v = rng.uniform(g.vertex_count());
      if (u == v) continue;
      if (g.vertices()[u].txn == g.vertices()[v].txn) continue;
      auto key = std::minmax(u, v);
      if (!used.insert({key.first, key.second}).second) continue;
      g.add_c_edge(u, v, 1);
    }
    g.finalize();
    EXPECT_EQ(g.has_sc_cycle(),
              brute_force_sc_cycle(g.vertex_count(), g.edges()))
        << "round " << round << " seed " << GetParam() << "\n"
        << g.to_dot();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScCycleOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Random job streams: the finest searches always return valid choppings and
// merging any valid chopping further keeps it valid.

std::vector<TxnProgram> random_stream(Rng& rng) {
  const std::size_t n_items = 2 + rng.uniform(4);
  const std::size_t n_txn = 2 + rng.uniform(4);
  std::vector<TxnProgram> programs;
  for (std::size_t t = 0; t < n_txn; ++t) {
    const bool update = rng.chance(0.6);
    ProgramBuilder pb("t" + std::to_string(t),
                      update ? TxnKind::Update : TxnKind::Query);
    const std::size_t n_ops = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const Key item = 1 + rng.uniform(n_items);
      if (!update || rng.chance(0.3)) {
        pb.read(item);
      } else if (rng.chance(0.8)) {
        pb.add(item, 1, 1 + double(rng.uniform(50)));
      } else {
        pb.write(item, 1, 1 + double(rng.uniform(50)));
      }
    }
    if (update && rng.chance(0.3)) pb.rollback_point();
    pb.epsilon(double(rng.uniform(300)));
    programs.push_back(pb.build());
  }
  return programs;
}

class FinestChoppingProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FinestChoppingProperty, SearchesReturnValidChoppings) {
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 40; ++round) {
    const auto programs = random_stream(rng);
    const Chopping sr = finest_sr_chopping(programs);
    EXPECT_TRUE(validate_sr_chopping(programs, sr).ok())
        << "SR round " << round;
    const Chopping esr = finest_esr_chopping(programs);
    EXPECT_TRUE(validate_esr_chopping(programs, esr).ok())
        << "ESR round " << round;
    // ESR is never coarser than SR overall.
    EXPECT_GE(esr.total_pieces(), sr.total_pieces());
  }
}

TEST_P(FinestChoppingProperty, CoarseningPreservesSrValidity) {
  Rng rng(GetParam() * 104729);
  for (int round = 0; round < 25; ++round) {
    const auto programs = random_stream(rng);
    Chopping c = finest_sr_chopping(programs);
    ASSERT_TRUE(validate_sr_chopping(programs, c).ok());
    // Merge random adjacent pieces a few times; validity must persist.
    for (int m = 0; m < 4; ++m) {
      const std::size_t t = rng.uniform(programs.size());
      if (c.piece_count(t) < 2) continue;
      const std::size_t p = rng.uniform(c.piece_count(t) - 1);
      c.merge(t, p, p + 1);
      EXPECT_TRUE(validate_sr_chopping(programs, c).ok())
          << "round " << round << " merge " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FinestChoppingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Engine invariants across (method, seed, skew).

using EngineParam = std::tuple<int /*method*/, std::uint64_t /*seed*/,
                               double /*zipf theta*/>;

class EngineInvariantTest : public ::testing::TestWithParam<EngineParam> {};

MethodConfig method_by_index(int i) {
  switch (i) {
    case 0: return MethodConfig::baseline_sr();
    case 1: return MethodConfig::baseline_dc();
    case 2: return MethodConfig::sr_chop_cc();
    case 3: return MethodConfig::method1(DistPolicy::Dynamic);
    case 4: return MethodConfig::method2();
    default: return MethodConfig::method3(DistPolicy::Dynamic);
  }
}

TEST_P(EngineInvariantTest, ConservationEpsilonAndTermination) {
  const auto [method_index, seed, theta] = GetParam();
  const MethodConfig method = method_by_index(method_index);

  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 12;
  cfg.max_transfer = 40;
  cfg.zipf_theta = theta;
  cfg.branch_audit_fraction = 0.15;
  cfg.global_audit_fraction = 0.10;
  cfg.rollback_probability = 0.05;
  cfg.update_epsilon = 800;
  cfg.query_epsilon = 1200;
  const Workload w = make_banking(cfg, 80, seed);

  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  Tracer tracer;
  DatabaseOptions dbo = Executor::database_options(method);
  dbo.tracer = &tracer;
  Database db(dbo);
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = 4;
  opts.seed = seed ^ 0xabcdef;
  const ExecutorReport report = Executor::run(db, plan.value(), w.instances,
                                              opts);

  // Termination: every instance either committed or took its rollback.
  EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
  // Condition 2 at runtime: no committed txn exceeded Limit_t.
  EXPECT_EQ(report.budget_violations, 0u);
  // Global audits' realized error within the eps-spec.
  EXPECT_LE(report.query_error.max, cfg.query_epsilon + 1e-9);
  // Money conservation at quiescence.
  Value sum = 0;
  for (const auto& [k, v] : db.store().snapshot_committed()) sum += v;
  EXPECT_EQ(sum, w.total_money);

  // No update ET is ever charged: divergence control is import-only, so
  // every FuzzImport names a query ET and every update commits with Z = 0.
  ASSERT_EQ(tracer.dropped(), 0u);
  std::set<TxnId> updates, queries;
  int imports = 0;
  for (const TraceEvent& e : tracer.collect()) {
    if (e.kind == TraceKind::TxnBegin) {
      (e.aux == 1 ? updates : queries).insert(e.txn);
    } else if (e.kind == TraceKind::FuzzImport) {
      ++imports;
      EXPECT_TRUE(queries.count(e.txn)) << "import charged to ET " << e.txn;
    } else if (e.kind == TraceKind::TxnCommit && updates.count(e.txn)) {
      EXPECT_EQ(e.a, 0) << "update ET " << e.txn << " committed with Z > 0";
    }
  }
  EXPECT_FALSE(updates.empty());
  RecordProperty("fuzz_imports", imports);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariantTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(11u, 23u),
                       ::testing::Values(0.0, 0.9)),
    [](const ::testing::TestParamInfo<EngineParam>& info) {
      std::string name = method_by_index(std::get<0>(info.param)).name() +
                         "_s" + std::to_string(std::get<1>(info.param)) +
                         "_z" +
                         std::to_string(int(std::get<2>(info.param) * 10));
      for (char& c : name) {
        if (c == '+' || c == '-' || c == '/' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace atp
