#include "solver/lazy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

TEST(LazySolver, ConvergesToEagerSolution) {
  // max x + y s.t. x <= 10, y <= 10, with the "hidden" constraint x + y <= 8
  // supplied lazily.
  LpModel lazy_model(Sense::kMaximize);
  const VarId x = lazy_model.add_variable("x", 0.0, kInf, 1.0);
  const VarId y = lazy_model.add_variable("y", 0.0, kInf, 1.0);
  lazy_model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 10.0);
  lazy_model.add_constraint(LinearExpr{}.add(y, 1.0), Relation::kLessEqual, 10.0);

  const auto oracle = [&](const std::vector<double>& point) {
    std::vector<Constraint> violated;
    if (point[x] + point[y] > 8.0 + 1e-9) {
      violated.push_back(
          Constraint{LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 8.0, "cut"});
    }
    return violated;
  };

  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, lazy_model, oracle);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(result.solution.optimal());
  EXPECT_NEAR(result.solution.objective, 8.0, 1e-7);
  EXPECT_EQ(result.rows_added, 1u);
  EXPECT_GE(result.rounds, 2u);
}

TEST(LazySolver, NoViolationsMeansOneRound) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 5.0, 1.0);
  (void)x;
  const auto oracle = [](const std::vector<double>&) { return std::vector<Constraint>{}; };
  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, model, oracle);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.rows_added, 0u);
}

TEST(LazySolver, RespectsRoundLimit) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 100.0, 1.0);
  // A pathological oracle that keeps tightening by a vanishing amount and
  // never reports satisfaction.
  int round = 0;
  const auto oracle = [&](const std::vector<double>&) {
    ++round;
    std::vector<Constraint> violated;
    violated.push_back(Constraint{LinearExpr{}.add(x, 1.0), Relation::kLessEqual,
                                  100.0 - round * 0.001, "tighten"});
    return violated;
  };
  LpSolver solver;
  const LazySolveResult result =
      LazyConstraintSolver(/*max_rounds=*/5).solve(solver, model, oracle);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 6u);  // loop exits after max_rounds+1 counter
  EXPECT_TRUE(result.solution.optimal());
}

TEST(LazySolver, PropagatesInfeasibility) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 3.0);
  const auto oracle = [](const std::vector<double>&) { return std::vector<Constraint>{}; };
  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, model, oracle);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.solution.status, SolveStatus::kInfeasible);
}

TEST(LazySolver, RefusedCompactionColdSolvesTheShrunkenModel) {
  // max c·x over the box 0 <= x <= 10 and one permanent budget row, with 40
  // hidden packing rows a·x <= b separated lazily, three per round, most
  // violated first. A budget of six rows makes compaction fire. The tableau
  // engine keeps no basis, so every excision is refused and the next round
  // cold-solves the shrunken model through resolve().
  common::Rng rng(4242);
  const std::size_t vars = 8;
  LpModel model(Sense::kMaximize);
  LinearExpr budget;
  for (std::size_t v = 0; v < vars; ++v) {
    model.add_variable("x", 0.0, 10.0, rng.uniform(0.5, 2.0));
    budget.add(v, 1.0);
  }
  model.add_constraint(std::move(budget), Relation::kLessEqual, 30.0, "budget");
  std::vector<Constraint> hidden;
  for (int r = 0; r < 40; ++r) {
    LinearExpr expr;
    for (std::size_t v = 0; v < vars; ++v) {
      if (rng.uniform() < 0.6) expr.add(v, rng.uniform(0.1, 1.0));
    }
    hidden.push_back(Constraint{std::move(expr), Relation::kLessEqual,
                                rng.uniform(4.0, 12.0), "hidden"});
  }
  const auto oracle = [&](const std::vector<double>& point) {
    std::vector<std::pair<double, std::size_t>> violations;
    for (std::size_t r = 0; r < hidden.size(); ++r) {
      const double excess = hidden[r].expr.evaluate(point) - hidden[r].rhs;
      if (excess > 1e-6) violations.emplace_back(-excess, r);
    }
    std::sort(violations.begin(), violations.end());
    std::vector<Constraint> violated;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, violations.size()); ++i) {
      violated.push_back(hidden[violations[i].second]);
    }
    return violated;
  };
  LazyConstraintSolver lazy;
  lazy.enable_compaction(/*permanent_rows=*/1, /*max_rows=*/6);

  LpSolver revised;
  const LazySolveResult warm = lazy.solve(revised, model, oracle);
  ASSERT_TRUE(warm.converged);

  SolverOptions tableau_options;
  tableau_options.algorithm = LpAlgorithm::kTableau;
  LpSolver tableau(tableau_options);
  const LazySolveResult cold = lazy.solve(tableau, model, oracle);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.compactions, 0u);
  EXPECT_EQ(cold.warm_compactions, 0u) << "the tableau keeps no basis to excise from";
  EXPECT_EQ(cold.warm_rounds, 0u);
  EXPECT_EQ(tableau.stats().cold_solves, cold.rounds);
  EXPECT_EQ(tableau.stats().warm_resolves, 0u);
  EXPECT_NEAR(cold.solution.objective, warm.solution.objective,
              1e-6 * (1.0 + std::abs(warm.solution.objective)));

  // The solver's model is the final relaxation: the permanent row plus every
  // row added and not dropped, satisfied by the final point, and solving it
  // afresh gives the final objective.
  const LpModel& final_rows = tableau.model();
  EXPECT_EQ(final_rows.num_constraints(), 1 + cold.rows_added - cold.rows_dropped);
  EXPECT_TRUE(final_rows.is_feasible(cold.solution.values, 1e-6));
  const LpSolution again = SimplexSolver().solve(final_rows);
  ASSERT_TRUE(again.optimal());
  EXPECT_NEAR(again.objective, cold.solution.objective,
              1e-9 * (1.0 + std::abs(cold.solution.objective)));
}

}  // namespace
}  // namespace oef::solver
