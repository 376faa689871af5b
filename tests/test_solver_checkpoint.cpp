// Checkpoint contract of the solver layer: a warm identity serialized
// mid-session and restored into a fresh solver must continue
// *pivot-identically* — the restored solver performs the same pivots and
// lands on the bit-identical vertex as the uninterrupted one. Corrupt streams
// must surface as CheckError(kCorruptData), and an identity that does not fit
// the next model must degrade to a cold solve, never to wrong state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/speedup_matrix.h"
#include "solver/checkpoint.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

LpModel oef_base_model(const core::SpeedupMatrix& w, const std::vector<double>& caps) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  LpModel model(Sense::kMaximize);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) model.add_variable("x", 0.0, kInf, w.at(l, j));
  }
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(l * k + j, 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, caps[j]);
  }
  return model;
}

core::SpeedupMatrix random_matrix(common::Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.0, 2.0);
  }
  return core::SpeedupMatrix(std::move(rows));
}

Constraint envy_row(const core::SpeedupMatrix& w, std::size_t l, std::size_t i) {
  const std::size_t k = w.num_types();
  LinearExpr expr;
  for (std::size_t j = 0; j < k; ++j) {
    expr.add(l * k + j, w.at(l, j));
    expr.add(i * k + j, -w.at(l, j));
  }
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0, "ef"};
}

std::vector<Constraint> violated_envy_rows(const core::SpeedupMatrix& w,
                                           const std::vector<double>& point) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  std::vector<Constraint> violated;
  for (std::size_t l = 0; l < n; ++l) {
    double own = 0.0;
    for (std::size_t j = 0; j < k; ++j) own += w.at(l, j) * point[l * k + j];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == l) continue;
      double envied = 0.0;
      for (std::size_t j = 0; j < k; ++j) envied += w.at(l, j) * point[i * k + j];
      if (envied - own > 1e-7) violated.push_back(envy_row(w, l, i));
    }
  }
  return violated;
}

/// `w` with every speedup past the slowest type moved by up to ±10%.
core::SpeedupMatrix perturbed(const core::SpeedupMatrix& w, common::Rng& rng) {
  std::vector<std::vector<double>> rows(w.num_users(), std::vector<double>(w.num_types(), 1.0));
  for (std::size_t l = 0; l < w.num_users(); ++l) {
    for (std::size_t j = 1; j < w.num_types(); ++j) {
      rows[l][j] = w.at(l, j) * rng.uniform(0.9, 1.1);
    }
  }
  return core::SpeedupMatrix(std::move(rows));
}

void expect_bit_identical(const LpSolution& a, const LpSolution& b, int trial) {
  EXPECT_EQ(a.iterations, b.iterations) << "trial " << trial;
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    // memcmp, not EXPECT_DOUBLE_EQ: the contract is bit-identity.
    EXPECT_EQ(0, std::memcmp(&a.values[v], &b.values[v], sizeof(double)))
        << "trial " << trial << " var " << v;
  }
  EXPECT_EQ(0, std::memcmp(&a.objective, &b.objective, sizeof(double))) << "trial " << trial;
}

TEST(SolverCheckpoint, RestoredSolverResolvesPivotIdentically) {
  // Serialize a solver mid-session (after the round-1 solve) and restore it
  // into a fresh instance. Then drive both the way production does: solve a
  // same-shaped model whose coefficients moved, add the rows it violates,
  // resolve. The restored solver must pivot identically and land on the
  // bit-identical vertex at both steps — the foundation of the daemon's
  // warm-restart contract.
  common::Rng rng(77);
  int warm_restores = 0;
  int resolves_compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 9));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const core::SpeedupMatrix w = random_matrix(rng, n, k);
    const std::vector<double> caps(k, 2.0);

    LpSolver original((SolverOptions()));
    ASSERT_TRUE(original.solve(oef_base_model(w, caps)).optimal());

    common::SerialWriter out;
    write_warm_state(out, original);

    LpSolver restored((SolverOptions()));
    common::SerialReader in(out.data());
    if (!read_warm_state(in, restored)) continue;  // nothing warm to compare
    ++warm_restores;

    const core::SpeedupMatrix moved = perturbed(w, rng);
    const LpModel model = oef_base_model(moved, caps);
    const LpSolution a = original.solve(model);
    const LpSolution b = restored.solve(model);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_TRUE(a.warm_started) << "trial " << trial;
    EXPECT_TRUE(b.warm_started) << "trial " << trial;
    expect_bit_identical(a, b, trial);

    const std::vector<Constraint> rows = violated_envy_rows(moved, a.values);
    if (rows.empty()) continue;
    original.add_rows(rows);
    restored.add_rows(rows);
    const LpSolution c = original.resolve();
    const LpSolution d = restored.resolve();
    ASSERT_TRUE(c.optimal());
    ASSERT_TRUE(d.optimal());
    expect_bit_identical(c, d, trial);
    ++resolves_compared;
  }
  EXPECT_GE(warm_restores, 5);
  EXPECT_GE(resolves_compared, 3);
}

TEST(SolverCheckpoint, ExportAfterImportReturnsTheImportedIdentity) {
  common::Rng rng(11);
  const core::SpeedupMatrix w = random_matrix(rng, 5, 3);
  LpSolver solver((SolverOptions()));
  ASSERT_TRUE(solver.solve(oef_base_model(w, {2.0, 2.0, 2.0})).optimal());
  const std::optional<LpWarmState> state = solver.export_warm_state();
  ASSERT_TRUE(state.has_value());

  common::SerialWriter out;
  write_warm_state(out, solver);
  LpSolver restored((SolverOptions()));
  common::SerialReader in(out.data());
  ASSERT_TRUE(read_warm_state(in, restored));
  EXPECT_TRUE(in.at_end());
  const std::optional<LpWarmState> again = restored.export_warm_state();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->basic, state->basic);
  EXPECT_EQ(again->at_upper, state->at_upper);
  EXPECT_EQ(again->relations, state->relations);
  EXPECT_EQ(again->num_structural, state->num_structural);
}

TEST(SolverCheckpoint, TamperedIdentityFallsBackToAColdSolve) {
  // An identity read from disk is outside input: one that does not fit the
  // next model must make that solve cold and still correct.
  common::Rng rng(21);
  const core::SpeedupMatrix w = random_matrix(rng, 6, 3);
  const std::vector<double> caps = {2.0, 3.0, 1.5};
  LpModel model = oef_base_model(w, caps);
  LpSolver live((SolverOptions()));
  const LpSolution first = live.solve(model);
  ASSERT_TRUE(first.optimal());
  const std::vector<Constraint> rows = violated_envy_rows(w, first.values);
  ASSERT_FALSE(rows.empty());
  live.add_rows(rows);
  ASSERT_TRUE(live.resolve().optimal());
  for (const Constraint& row : rows) model.add_constraint(row);
  const std::optional<LpWarmState> state = live.export_warm_state();
  ASSERT_TRUE(state.has_value());
  ASSERT_GE(state->basic.size(), 2u);

  LpSolver fresh((SolverOptions()));
  const LpSolution reference = fresh.solve(model);
  ASSERT_TRUE(reference.optimal());

  const std::vector<std::pair<const char*, void (*)(LpWarmState&)>> tampers = {
      {"duplicate column", [](LpWarmState& s) { s.basic[1] = s.basic[0]; }},
      {"column past the end", [](LpWarmState& s) { s.basic[0] = s.at_upper.size(); }},
      {"huge column", [](LpWarmState& s) { s.basic[0] = SIZE_MAX / 2; }},
      {"short basic set", [](LpWarmState& s) { s.basic.pop_back(); }},
      {"long at-upper flags", [](LpWarmState& s) { s.at_upper.push_back(1); }},
      {"short at-upper flags", [](LpWarmState& s) { s.at_upper.pop_back(); }},
      {"missing row", [](LpWarmState& s) { s.relations.pop_back(); }},
      {"other structural count", [](LpWarmState& s) { ++s.num_structural; }},
  };
  for (const auto& [name, tamper] : tampers) {
    LpWarmState bad = *state;
    tamper(bad);
    // Through the stream, as a restarted process would read it.
    LpSolver writer((SolverOptions()));
    ASSERT_TRUE(writer.import_warm_state(bad)) << name;
    common::SerialWriter out;
    write_warm_state(out, writer);
    LpSolver target((SolverOptions()));
    common::SerialReader in(out.data());
    ASSERT_TRUE(read_warm_state(in, target)) << name;

    const LpSolution solution = target.solve(model);
    ASSERT_TRUE(solution.optimal()) << name;
    EXPECT_FALSE(solution.warm_started) << name;
    EXPECT_EQ(target.stats().cold_solves, 1u) << name;
    EXPECT_EQ(target.stats().warm_start_hits, 0u) << name;
    EXPECT_NEAR(solution.objective, reference.objective,
                1e-9 * (1.0 + std::abs(reference.objective)))
        << name;
  }
}

TEST(SolverCheckpoint, SolverWithoutBasisWritesColdMarker) {
  LpSolver solver((SolverOptions()));
  EXPECT_FALSE(solver.export_warm_state().has_value());
  common::SerialWriter out;
  write_warm_state(out, solver);
  LpSolver target((SolverOptions()));
  common::SerialReader in(out.data());
  EXPECT_FALSE(read_warm_state(in, target));
  EXPECT_TRUE(in.at_end());
}

TEST(SolverCheckpoint, TruncatedStreamThrowsCorruptData) {
  common::Rng rng(3);
  const core::SpeedupMatrix w = random_matrix(rng, 4, 3);
  const LpModel model = oef_base_model(w, {2.0, 2.0, 2.0});
  LpSolver solver((SolverOptions()));
  (void)solver.solve(model);
  common::SerialWriter out;
  write_warm_state(out, solver);

  const std::string full = out.data();
  for (const std::size_t keep : {full.size() / 4, full.size() / 2, full.size() - 3}) {
    LpSolver target((SolverOptions()));
    common::SerialReader in(std::string_view(full).substr(0, keep));
    try {
      (void)read_warm_state(in, target);
      FAIL() << "truncated stream at " << keep << " bytes did not throw";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
    }
  }
}

TEST(SolverCheckpoint, ErrorCodesAndModuleTags) {
  EXPECT_STREQ(common::to_string(common::ErrorCode::kCorruptData), "corrupt_data");
  EXPECT_EQ(common::module_from_path("/root/repo/src/solver/lp_solver.cpp"), "solver");
  EXPECT_EQ(common::module_from_path("deep/src/core/oef.cpp"), "core");
  EXPECT_EQ(common::module_from_path("no_src_here.cpp"), "");
  try {
    OEF_REQUIRE_CODE(false, common::ErrorCode::kDimensionMismatch, "shape");
    FAIL();
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kDimensionMismatch);
    EXPECT_NE(std::string(error.what()).find("shape"), std::string::npos);
  }
}

}  // namespace
}  // namespace oef::solver
