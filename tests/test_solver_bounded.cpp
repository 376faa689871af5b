// Bounded-variable revised simplex and its agreement with the tableau.
//
// The revised engine handles finite variable upper bounds natively (nonbasic
// at-upper statuses and bound flips) while the tableau reference models them
// as synthetic rows — so agreement between the two on random upper-bounded
// LPs pins the bounded-variable machinery against an independent
// implementation. The shipped engine (sparse devex pricing over the factored
// basis) must also match the tableau on mixed-relation LPs and on whole
// cooperative OEF solves.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"
#include "solver/sparse_matrix.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-6;

/// Random LP where a sizeable fraction of the variables carries a finite
/// upper bound (sometimes with a nonzero lower bound), all three relation
/// kinds appear, and both senses occur.
LpModel random_bounded_lp(common::Rng& rng, int trial) {
  const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 9));
  LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
  for (std::size_t v = 0; v < nvars; ++v) {
    const double lower = rng.uniform() < 0.3 ? rng.uniform(-2.0, 2.0) : 0.0;
    const double upper =
        rng.uniform() < 0.6 ? lower + rng.uniform(0.5, 8.0) : kInf;
    model.add_variable("v", lower, upper, rng.uniform(-3.0, 3.0));
  }
  const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(1, 7));
  for (std::size_t r = 0; r < nrows; ++r) {
    LinearExpr expr;
    for (std::size_t v = 0; v < nvars; ++v) {
      if (rng.uniform() < 0.7) expr.add(v, rng.uniform(-1.5, 2.0));
    }
    const double roll = rng.uniform();
    const Relation rel = roll < 0.6   ? Relation::kLessEqual
                         : roll < 0.9 ? Relation::kGreaterEqual
                                      : Relation::kEqual;
    model.add_constraint(std::move(expr), rel, rng.uniform(-3.0, 10.0));
  }
  return model;
}

TEST(SparseMatrix, BasicOperations) {
  SparseMatrix a;
  a.reset(3);
  ASSERT_EQ(a.add_column(), 0u);
  ASSERT_EQ(a.add_column(), 1u);
  a.add_entry(0, 0, 2.0);
  a.add_entry(0, 2, -1.0);
  a.add_entry(1, 1, 0.0);  // zeros are skipped
  a.add_entry(1, 1, 5.0);
  EXPECT_EQ(a.nonzeros(), 3u);

  ASSERT_EQ(a.column(0).size(), 2u);
  EXPECT_EQ(a.column(0)[0].row, 0u);
  EXPECT_DOUBLE_EQ(a.column(0)[0].value, 2.0);
  EXPECT_EQ(a.column(0)[1].row, 2u);
  EXPECT_DOUBLE_EQ(a.column(0)[1].value, -1.0);

  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.dot_column(0, x), 2.0 - 3.0);
  EXPECT_DOUBLE_EQ(a.dot_column(1, x), 10.0);

  std::vector<double> acc(3, 1.0);
  a.axpy_column(0, 2.0, acc);
  EXPECT_EQ(acc, (std::vector<double>{5.0, 1.0, -1.0}));

  a.set_rows(4);
  a.add_entry(1, 3, 7.0);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.nonzeros(), 4u);
}

TEST(BoundedSimplex, KnownBoundFlipInstance) {
  // max 3x + 2y with x <= 1, y <= 2 and x + y <= 2.5: the optimum sits at
  // x = 1 (its upper bound — a nonbasic-at-upper column) and y = 1.5.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 1.0, 3.0);
  const VarId y = model.add_variable("y", 0.0, 2.0, 2.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 2.5);

  LpSolver solver;
  const LpSolution solution = solver.solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 6.0, kTol);
  EXPECT_NEAR(solution.values[x], 1.0, kTol);
  EXPECT_NEAR(solution.values[y], 1.5, kTol);
}

TEST(BoundedSimplex, UnconstrainedBoundedVariablesRestAtPreferredBound) {
  // No rows at all: every negative-reduced-cost column must land on its
  // finite upper bound rather than reporting unbounded.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 4.0, 2.0);
  const VarId y = model.add_variable("y", -1.0, 3.0, -5.0);
  LpSolver solver;
  const LpSolution solution = solver.solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 4.0, kTol);
  EXPECT_NEAR(solution.values[y], -1.0, kTol);
  EXPECT_NEAR(solution.objective, 13.0, kTol);
}

TEST(BoundedSimplex, MatchesTableauOnRandomUpperBoundedLps) {
  common::Rng rng(20240731);
  int optimal_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const LpModel model = random_bounded_lp(rng, trial);

    LpSolver revised_solver;
    const LpSolution a = revised_solver.solve(model);
    const LpSolution b = SimplexSolver().solve(model);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.optimal() && b.optimal()) {
      ++optimal_seen;
      EXPECT_NEAR(a.objective, b.objective, 1e-5 * (1.0 + std::abs(b.objective)))
          << "trial " << trial;
      EXPECT_TRUE(model.is_feasible(a.values, 1e-6)) << "trial " << trial;
    }
  }
  EXPECT_GE(optimal_seen, 15);  // the generator must produce real work
}

TEST(BoundedSimplex, WarmResolveWithUpperBoundsMatchesColdSolve) {
  // add_rows + resolve on a model whose variables carry finite bounds: the
  // dual ratio test must price both bound directions correctly.
  common::Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    LpModel model(Sense::kMaximize);
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(3, 7));
    for (std::size_t v = 0; v < nvars; ++v) {
      model.add_variable("v", 0.0, rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0));
    }
    LinearExpr total;
    for (std::size_t v = 0; v < nvars; ++v) total.add(v, 1.0);
    model.add_constraint(std::move(total), Relation::kLessEqual,
                         rng.uniform(2.0, 2.0 + static_cast<double>(nvars)));

    LpSolver warm;
    const LpSolution relaxed = warm.solve(model);
    ASSERT_TRUE(relaxed.optimal()) << "trial " << trial;

    std::vector<Constraint> cuts;
    LinearExpr cut;
    for (std::size_t v = 0; v < nvars; ++v) cut.add(v, rng.uniform(0.5, 1.5));
    cuts.push_back(Constraint{std::move(cut), Relation::kLessEqual,
                              rng.uniform(1.0, 3.0), "cut"});
    warm.add_rows(cuts);
    const LpSolution resolved = warm.resolve();
    ASSERT_TRUE(resolved.optimal()) << "trial " << trial;

    LpSolver cold;
    const LpSolution reference = cold.solve(warm.model());
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, reference.objective,
                kTol * (1.0 + std::abs(reference.objective)))
        << "trial " << trial;
    EXPECT_TRUE(warm.model().is_feasible(resolved.values, 1e-6)) << "trial " << trial;
  }
}

TEST(BoundedSimplex, WarmStartSurvivesBoundWidenedToInfinity) {
  // Same-shaped second model whose variable lost its finite upper bound: the
  // recycled nonbasic-at-upper status must be dropped (resting at an
  // infinite bound would poison the basic values), and the solve must still
  // verify against the tableau.
  LpModel first(Sense::kMaximize);
  const VarId x = first.add_variable("x", 0.0, 1.0, 3.0);
  const VarId y = first.add_variable("y", 0.0, 2.0, 2.0);
  first.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 2.5);

  LpSolver solver;
  const LpSolution a = solver.solve(first);
  ASSERT_TRUE(a.optimal());
  EXPECT_NEAR(a.values[x], 1.0, kTol);  // x is nonbasic at its upper bound

  LpModel second(Sense::kMaximize);
  second.add_variable("x", 0.0, kInf, 3.0);
  second.add_variable("y", 0.0, 2.0, 2.0);
  second.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 2.5);

  const LpSolution b = solver.solve(second);
  ASSERT_TRUE(b.optimal());
  const LpSolution reference = SimplexSolver().solve(second);
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(b.objective, reference.objective, kTol * (1.0 + std::abs(reference.objective)));
  EXPECT_TRUE(second.is_feasible(b.values, 1e-6));
}

/// Shared harness: solve the same model with the shipped engine and the
/// tableau reference; require matching status and objective, and a feasible
/// point from the shipped engine (degenerate optima may differ in vertex).
void expect_engine_matches_tableau(const LpModel& model, int trial) {
  LpSolver solver;
  const LpSolution solution = solver.solve(model);
  const LpSolution reference = SimplexSolver().solve(model);
  ASSERT_EQ(solution.status, reference.status) << "trial " << trial;
  if (!solution.optimal()) return;
  EXPECT_NEAR(solution.objective, reference.objective,
              kTol * (1.0 + std::abs(reference.objective)))
      << "trial " << trial;
  EXPECT_TRUE(model.is_feasible(solution.values, 1e-6)) << "trial " << trial;
}

TEST(PricingArms, AgreeOnMixedRelationLps) {
  // The warm-start suite's mixed-relation generator: the shipped engine and
  // the tableau reach the same optimum.
  common::Rng rng(4711);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 8));
    LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
    for (std::size_t v = 0; v < nvars; ++v) {
      const double upper = rng.uniform() < 0.3 ? rng.uniform(1.0, 10.0) : kInf;
      model.add_variable("v", 0.0, upper, rng.uniform(-2.0, 3.0));
    }
    const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t r = 0; r < nrows; ++r) {
      LinearExpr expr;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform() < 0.7) expr.add(v, rng.uniform(-1.0, 2.0));
      }
      const double roll = rng.uniform();
      const Relation rel = roll < 0.6   ? Relation::kLessEqual
                           : roll < 0.9 ? Relation::kGreaterEqual
                                        : Relation::kEqual;
      model.add_constraint(std::move(expr), rel, rng.uniform(-2.0, 8.0));
    }
    expect_engine_matches_tableau(model, trial);
  }
}

TEST(PricingArms, AgreeOnCooperativeOefInstances) {
  // End-to-end: the cooperative lazy loop returns the same total efficiency
  // on the shipped engine and with every round solved by the tableau.
  common::Rng rng(9090);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(6, 14));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 4));
    std::vector<std::vector<double>> rows(n);
    for (auto& row : rows) {
      row.resize(k);
      row[0] = 1.0;
      for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
    }
    const core::SpeedupMatrix w(std::move(rows));
    std::vector<double> caps(k);
    for (double& c : caps) c = static_cast<double>(rng.uniform_int(2, 9));

    const core::AllocationResult shipped =
        core::make_cooperative_oef(core::OefOptions{}).allocate(w, caps);
    core::OefOptions tableau_options;
    tableau_options.solver.algorithm = LpAlgorithm::kTableau;
    const core::AllocationResult tableau =
        core::make_cooperative_oef(tableau_options).allocate(w, caps);
    ASSERT_TRUE(shipped.ok()) << "trial " << trial;
    ASSERT_TRUE(tableau.ok()) << "trial " << trial;
    EXPECT_NEAR(shipped.total_efficiency, tableau.total_efficiency,
                kTol * (1.0 + tableau.total_efficiency))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace oef::solver
