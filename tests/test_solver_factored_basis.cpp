// Factored (sparse LU + eta file) basis.
//
// Every solve the basis exposes is checked by its residual against B itself,
// assembled from the SparseMatrix columns the basic set selects:
// ‖B ftran(a) − a‖∞, ‖btran(c)ᵀB − cᵀ‖∞ and btran_unit(pos)ᵀB == e_posᵀ —
// after fresh factorisations, eta-accumulating pivots, slack appends (which
// leave the factor stale until refactor(), and a stale factor refuses to
// solve) and warm row deletions. A refactorisation must change nothing but
// the representation. The row-major transpose product of SparseMatrix must
// equal its per-column dot products exactly. On top of the unit-level checks,
// whole solves must reach the independent tableau's optimum, and the
// lazy-loop relaxation compaction must take the warm-deletion path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/basis.h"
#include "solver/lazy.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"
#include "solver/sparse_matrix.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-8;

/// Random constraint matrix: m unit (slack-like) columns followed by `extra`
/// sparse structural columns, mirroring the shape of the row-generation LPs.
SparseMatrix random_matrix(common::Rng& rng, std::size_t m, std::size_t extra) {
  SparseMatrix a;
  a.reset(m);
  for (std::size_t j = 0; j < m; ++j) {
    a.add_column();
    a.add_entry(j, j, rng.uniform() < 0.25 ? -1.0 : 1.0);
  }
  for (std::size_t j = 0; j < extra; ++j) {
    const std::size_t col = a.add_column();
    const std::size_t nnz = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(std::min<std::size_t>(m, 4))));
    std::vector<std::size_t> picked;
    for (std::size_t t = 0; t < nnz; ++t) {
      picked.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)));
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
    for (const std::size_t row : picked) {
      double v = rng.uniform(-3.0, 3.0);
      if (std::abs(v) < 0.1) v = v < 0.0 ? -0.1 : 0.1;
      a.add_entry(col, row, v);
    }
  }
  return a;
}

/// Random basic set: the identity columns, with a few positions swapped for
/// distinct structural columns that cover the replaced row (which makes most
/// draws nonsingular). Still not guaranteed — callers skip the trial when
/// refactor() reports singularity.
std::vector<std::size_t> random_basic(common::Rng& rng, const SparseMatrix& a,
                                      std::size_t m, std::size_t extra) {
  std::vector<std::size_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = i;
  std::vector<std::size_t> structural(extra);
  for (std::size_t j = 0; j < extra; ++j) structural[j] = m + j;
  rng.shuffle(structural);
  const std::size_t swaps = std::min<std::size_t>(
      structural.size(), static_cast<std::size_t>(rng.uniform_int(0, 3)));
  std::vector<char> used(m, 0);
  for (std::size_t s = 0; s < swaps; ++s) {
    const std::size_t col = structural[s];
    for (const SparseEntry& e : a.column(col)) {
      if (!used[e.row] && std::abs(e.value) > 0.2) {
        basic[e.row] = col;
        used[e.row] = 1;
        break;
      }
    }
  }
  return basic;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], kTol * (1.0 + std::abs(b[i]))) << label << " entry " << i;
  }
}

double max_abs(const std::vector<double>& v) {
  double biggest = 0.0;
  for (const double x : v) biggest = std::max(biggest, std::abs(x));
  return biggest;
}

/// B w, with B assembled from the columns of `a` that the basis selects.
std::vector<double> times_b(const SparseMatrix& a, const std::vector<std::size_t>& basic,
                            const std::vector<double>& w) {
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t p = 0; p < basic.size(); ++p) a.axpy_column(basic[p], w[p], out);
  return out;
}

/// Independent singularity verdict: Gaussian elimination with partial
/// pivoting on B assembled densely, at the factorisation's own 1e-12 pivot
/// threshold.
bool dense_singular(const SparseMatrix& a, const std::vector<std::size_t>& basic) {
  const std::size_t m = basic.size();
  std::vector<std::vector<double>> b(m, std::vector<double>(m, 0.0));
  for (std::size_t p = 0; p < m; ++p) {
    for (const SparseEntry& e : a.column(basic[p])) b[e.row][p] += e.value;
  }
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < m; ++r) {
      if (std::abs(b[r][c]) > std::abs(b[pivot][c])) pivot = r;
    }
    if (std::abs(b[pivot][c]) < 1e-12) return true;
    std::swap(b[c], b[pivot]);
    for (std::size_t r = c + 1; r < m; ++r) {
      const double f = b[r][c] / b[c][c];
      for (std::size_t k = c; k < m; ++k) b[r][k] -= f * b[c][k];
    }
  }
  return false;
}

/// Residual checks of every exposed solve against B itself:
/// ‖B ftran(r) − r‖∞ (dense and sparse right-hand sides), ‖btran(c)ᵀB − cᵀ‖∞
/// and btran_unit(pos)ᵀB == e_posᵀ for every position.
void expect_residuals_small(const Basis& basis, const SparseMatrix& a, common::Rng& rng,
                            const char* label) {
  const std::size_t m = basis.size();
  ASSERT_EQ(a.rows(), m) << label;
  const std::vector<std::size_t>& basic = basis.basic();

  std::vector<double> rhs(m);
  for (double& v : rhs) v = rng.uniform(-2.0, 2.0);
  const std::vector<double> w = basis.ftran(rhs);
  const std::vector<double> bw = times_b(a, basic, w);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(bw[i], rhs[i], kTol * (1.0 + max_abs(w))) << label << " ftran row " << i;
  }

  const std::size_t col =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(a.cols()) - 1));
  std::vector<double> dense_col(m, 0.0);
  a.axpy_column(col, 1.0, dense_col);
  const std::vector<double> ws = basis.ftran(a.column(col));
  const std::vector<double> bws = times_b(a, basic, ws);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(bws[i], dense_col[i], kTol * (1.0 + max_abs(ws)))
        << label << " sparse ftran row " << i;
  }

  std::vector<double> cb(m, 0.0);
  for (double& v : cb) {
    if (rng.uniform() < 0.5) v = rng.uniform(-2.0, 2.0);  // mostly-zero, like c_B
  }
  const std::vector<double> y = basis.btran(cb);
  for (std::size_t p = 0; p < m; ++p) {
    EXPECT_NEAR(a.dot_column(basic[p], y), cb[p], kTol * (1.0 + max_abs(y)))
        << label << " btran position " << p;
  }

  for (std::size_t pos = 0; pos < m; ++pos) {
    const std::vector<double> rho = basis.btran_unit(pos);
    for (std::size_t q = 0; q < m; ++q) {
      EXPECT_NEAR(a.dot_column(basic[q], rho), q == pos ? 1.0 : 0.0,
                  kTol * (1.0 + max_abs(rho)))
          << label << " btran_unit(" << pos << ") position " << q;
    }
  }
}

/// Pivots up to `count` random structural columns into the basis, each with
/// a comfortably nonsingular pivot element and the basis's own ftran column
/// (the contract in lp_solver.cpp). Returns the number of pivots made.
int random_pivots(Basis& basis, const SparseMatrix& a, common::Rng& rng, std::size_t first,
                  int count) {
  std::vector<char> in_basis(a.cols(), 0);
  for (const std::size_t j : basis.basic()) in_basis[j] = 1;
  int done = 0;
  for (int p = 0; p < count; ++p) {
    const std::size_t enter = first + static_cast<std::size_t>(rng.uniform_int(
                                          0, static_cast<std::int64_t>(a.cols() - first) - 1));
    if (in_basis[enter]) continue;
    const std::vector<double> w = basis.ftran(a.column(enter));
    std::size_t leave = SIZE_MAX;
    double best = 0.2;
    for (std::size_t i = 0; i < basis.size(); ++i) {
      if (std::abs(w[i]) > best) {
        best = std::abs(w[i]);
        leave = i;
      }
    }
    if (leave == SIZE_MAX) continue;
    in_basis[basis.basic()[leave]] = 0;
    in_basis[enter] = 1;
    basis.pivot(leave, enter, w);
    ++done;
  }
  return done;
}

TEST(FactoredBasis, FreshFactorisationsSolveAgainstB) {
  common::Rng rng(20260731);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const SparseMatrix a = random_matrix(rng, m, extra);
    const std::vector<std::size_t> basic = random_basic(rng, a, m, extra);
    Basis lu;
    lu.set_basic(basic);
    const bool lu_ok = lu.refactor(a);
    ASSERT_EQ(lu_ok, !dense_singular(a, basic))
        << "trial " << trial << ": singularity verdicts differ";
    if (!lu_ok) {
      // A singular draw must name the positions to repair.
      EXPECT_FALSE(lu.deficiency().empty()) << "trial " << trial;
      continue;
    }
    EXPECT_TRUE(lu.deficiency().empty()) << "trial " << trial;
    ++compared;
    expect_residuals_small(lu, a, rng, "fresh");
  }
  EXPECT_GE(compared, 25);  // the generator must produce real work
}

TEST(FactoredBasis, EtaUpdatesAndSlackAppendsKeepResidualsSmall) {
  common::Rng rng(411);
  int pivots_done = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(3, 16));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(4, 12));
    SparseMatrix a = random_matrix(rng, m, extra);
    std::vector<std::size_t> basic(m);
    for (std::size_t i = 0; i < m; ++i) basic[i] = i;
    Basis lu;
    lu.set_basic(basic);
    ASSERT_TRUE(lu.refactor(a));

    // A run of pivots, one eta each, checked after every pivot.
    for (int p = 0; p < 8; ++p) {
      const int done = random_pivots(lu, a, rng, m, 1);
      if (done == 0) continue;
      pivots_done += done;
      expect_residuals_small(lu, a, rng, "after pivot");
    }

    // Row append on top of the eta file, as add_rows() performs it: the new
    // row's coefficients on some basic columns, plus a basic unit slack. The
    // factor goes stale; a resolve refactorises before its first solve.
    a.set_rows(m + 1);
    for (std::size_t i = 0; i < lu.size(); ++i) {
      if (rng.uniform() < 0.4) a.add_entry(lu.basic()[i], m, rng.uniform(-2.0, 2.0));
    }
    const std::size_t slack_col = a.add_column();
    a.add_entry(slack_col, m, 1.0);
    lu.append_slack(slack_col);
    ASSERT_EQ(lu.size(), m + 1);
    EXPECT_EQ(lu.basic().back(), slack_col);
    ASSERT_TRUE(lu.refactor(a));
    expect_residuals_small(lu, a, rng, "after append + refactor");

    // Further pivots stack etas on the refactorised basis.
    pivots_done += random_pivots(lu, a, rng, m, 3);
    expect_residuals_small(lu, a, rng, "after append + pivots");
  }
  EXPECT_GE(pivots_done, 40);
}

TEST(FactoredBasisDeathTest, StaleFactorRefusesToSolve) {
  // After a slack append the factor no longer describes B; every solve must
  // refuse it rather than return B_old^-1 products, until refactor() (or
  // set_basic()) installs a factor of the extended basis.
  SparseMatrix a;
  a.reset(2);
  for (std::size_t j = 0; j < 2; ++j) {
    a.add_column();
    a.add_entry(j, j, 1.0);
  }
  Basis lu;
  lu.set_basic({0, 1});
  ASSERT_TRUE(lu.refactor(a));
  a.set_rows(3);
  a.add_entry(0, 2, 2.0);
  const std::size_t slack = a.add_column();
  a.add_entry(slack, 2, 1.0);
  lu.append_slack(slack);
  const std::vector<double> rhs = {1.0, 2.0, 3.0};
  EXPECT_DEATH((void)lu.ftran(rhs), "stale");
  EXPECT_DEATH((void)lu.ftran(a.column(0)), "stale");
  EXPECT_DEATH((void)lu.btran(rhs), "stale");
  EXPECT_DEATH((void)lu.btran_unit(0), "stale");

  ASSERT_TRUE(lu.refactor(a));
  const std::vector<double> w = lu.ftran(rhs);
  // B = [[1, 0, 0], [0, 1, 0], [2, 0, 1]]: w = (1, 2, 3 - 2·1).
  EXPECT_EQ(w, (std::vector<double>{1.0, 2.0, 1.0}));
}

TEST(SparseMatrixMirror, TransposeProductEqualsColumnDotsExactly) {
  // add_transpose_product walks the row mirror and skips zero entries of v;
  // every product must still equal dot_column bit for bit — after appended
  // rows and columns (the add_rows() path) and after a rebuild that drops
  // rows and columns (the warm-deletion path).
  common::Rng rng(16016);
  const auto random_vector = [&](std::size_t size) {
    std::vector<double> v(size, 0.0);
    for (double& x : v) {
      if (rng.uniform() < 0.3) x = rng.uniform(-3.0, 3.0);
    }
    return v;
  };
  const auto expect_exact = [&](const SparseMatrix& a, const char* label) {
    for (int probe = 0; probe < 4; ++probe) {
      const std::vector<double> v = random_vector(a.rows());
      const double factor = probe % 2 == 0 ? 1.0 : -1.0;
      std::vector<double> base(a.cols(), 0.0);
      if (probe >= 2) {
        for (double& x : base) x = rng.uniform(-1.0, 1.0);
      }
      std::vector<double> out = base;
      a.add_transpose_product(v, factor, out);
      for (std::size_t j = 0; j < a.cols(); ++j) {
        const double dot = a.dot_column(j, v);
        const double expected = dot != 0.0 ? base[j] + factor * dot : base[j];
        EXPECT_EQ(out[j], expected) << label << " column " << j;
      }
    }
  };
  int compared = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 20));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(1, 15));
    SparseMatrix a = random_matrix(rng, m, extra);
    expect_exact(a, "fresh");

    // Appended rows, each touching some existing columns and its own new
    // column, as add_rows() appends an envy row and its slack.
    const std::size_t appended = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t r = 0; r < appended; ++r) {
      const std::size_t row = a.rows();
      a.set_rows(row + 1);
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (rng.uniform() < 0.3) a.add_entry(j, row, rng.uniform(-2.0, 2.0));
      }
      a.add_entry(a.add_column(), row, 1.0);
    }
    expect_exact(a, "after appends");

    // Rebuild without some rows and columns, renumbering the survivors.
    std::vector<char> drop_row(a.rows(), 0);
    for (char& d : drop_row) d = rng.uniform() < 0.3 ? 1 : 0;
    std::vector<std::size_t> row_remap(a.rows(), SIZE_MAX);
    std::size_t kept_rows = 0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (!drop_row[i]) row_remap[i] = kept_rows++;
    }
    SparseMatrix reduced;
    reduced.reset(kept_rows);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (rng.uniform() < 0.2) continue;
      const std::size_t nj = reduced.add_column();
      for (const SparseEntry& e : a.column(j)) {
        if (!drop_row[e.row]) reduced.add_entry(nj, row_remap[e.row], e.value);
      }
    }
    expect_exact(reduced, "after deletion");
    ++compared;
  }
  EXPECT_EQ(compared, 30);
}

TEST(FactoredBasis, RefactorTriggerTracksEtaFileAndResetsIt) {
  common::Rng rng(555);
  const std::size_t m = 12;
  const std::size_t extra = 10;
  const SparseMatrix a = random_matrix(rng, m, extra);
  std::vector<std::size_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = i;
  Basis lu;
  lu.set_basic(basic);
  ASSERT_TRUE(lu.refactor(a));

  // Fresh factor: not due under any reasonable policy.
  EXPECT_FALSE(lu.refactor_due(/*eta_cap=*/4, /*fill_growth=*/2.0));

  // Accumulate etas until the length trigger fires: the cap is 4, well below
  // m = 12, so the file length alone decides.
  std::vector<char> in_basis(a.cols(), 0);
  for (const std::size_t j : basic) in_basis[j] = 1;
  std::size_t pivots = 0;
  for (std::size_t enter = m; enter < m + extra && pivots < 4; ++enter) {
    if (in_basis[enter]) continue;
    const std::vector<double> w = lu.ftran(a.column(enter));
    std::size_t leave = SIZE_MAX;
    double best = 0.2;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::abs(w[i]) > best) {
        best = std::abs(w[i]);
        leave = i;
      }
    }
    if (leave == SIZE_MAX) continue;
    in_basis[lu.basic()[leave]] = 0;
    in_basis[enter] = 1;
    lu.pivot(leave, enter, w);
    ++pivots;
  }
  ASSERT_GE(pivots, 4u);
  EXPECT_TRUE(lu.refactor_due(4, 2.0));
  EXPECT_EQ(lu.pivots_since_refactor(), pivots);

  // Refactorising must only change the representation, not its products.
  std::vector<double> probe(m);
  for (double& v : probe) v = rng.uniform(-2.0, 2.0);
  const std::vector<double> before = lu.ftran(probe);
  const std::vector<double> before_bt = lu.btran_unit(m / 2);
  ASSERT_TRUE(lu.refactor(a));
  EXPECT_EQ(lu.pivots_since_refactor(), 0u);
  EXPECT_FALSE(lu.refactor_due(4, 2.0));
  expect_close(lu.ftran(probe), before, "ftran across refactor");
  expect_close(lu.btran_unit(m / 2), before_bt, "btran_unit across refactor");
}

TEST(FactoredBasis, SingularBasisReportsDeficiencyForRepair) {
  // Two positions holding the same structural column: the factorisation must
  // refuse and name exactly one (position, row) pair so the solver can patch
  // the position with a unit column — the basis-repair path that keeps large
  // solves off the tableau fallback.
  SparseMatrix a;
  a.reset(3);
  for (std::size_t j = 0; j < 3; ++j) {
    a.add_column();
    a.add_entry(j, j, 1.0);
  }
  const std::size_t dup = a.add_column();
  a.add_entry(dup, 0, 1.0);
  a.add_entry(dup, 1, 2.0);
  a.add_entry(dup, 2, 1.0);

  Basis lu;
  lu.set_basic({dup, dup, 2});
  EXPECT_FALSE(lu.refactor(a));
  ASSERT_EQ(lu.deficiency().size(), 1u);
  const auto [pos, row] = lu.deficiency()[0];
  EXPECT_TRUE(pos == 0 || pos == 1);
  EXPECT_TRUE(row == 0 || row == 1);

  // Patching the deficient position with the row's unit column recovers.
  std::vector<std::size_t> repaired = {dup, dup, 2};
  repaired[pos] = row;  // unit column `row` covers constraint row `row`
  lu.set_basic(repaired);
  EXPECT_TRUE(lu.refactor(a));
  EXPECT_TRUE(lu.deficiency().empty());
}

TEST(FactoredBasis, WarmRowDeletionMatchesColdRefactorisation) {
  // Basis-level contract: deleting rows whose own unit columns are basic
  // leaves the renumbered surviving basic set, which refactorises against
  // the reduced matrix and solves it exactly — also when the deletion lands
  // on top of an eta file.
  common::Rng rng(808);
  int deleted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(4, 18));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const SparseMatrix a = random_matrix(rng, m, extra);
    Basis lu;
    lu.set_basic(random_basic(rng, a, m, extra));
    if (!lu.refactor(a)) continue;
    random_pivots(lu, a, rng, m, 3);
    const std::vector<std::size_t> basic = lu.basic();

    // Delete up to two rows whose identity column is basic in place.
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < m && rows.size() < 2; ++i) {
      if (basic[i] == i) rows.push_back(i);
    }
    if (rows.empty()) continue;
    const std::vector<std::size_t>& positions = rows;

    // Reduced matrix: drop the deleted rows and their unit columns.
    std::vector<char> drop_row(m, 0);
    for (const std::size_t r : rows) drop_row[r] = 1;
    std::vector<std::size_t> row_remap(m, SIZE_MAX);
    std::size_t next_row = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!drop_row[i]) row_remap[i] = next_row++;
    }
    std::vector<std::size_t> col_remap(a.cols(), SIZE_MAX);
    std::size_t next_col = 0;
    SparseMatrix reduced;
    reduced.reset(next_row);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (j < m && drop_row[j]) continue;  // unit column of a deleted row
      col_remap[j] = next_col++;
      const std::size_t nj = reduced.add_column();
      for (const SparseEntry& e : a.column(j)) {
        if (!drop_row[e.row]) reduced.add_entry(nj, row_remap[e.row], e.value);
      }
    }
    std::vector<std::size_t> expected_basic;
    for (std::size_t p = 0; p < m; ++p) {
      if (!drop_row[p]) expected_basic.push_back(col_remap[basic[p]]);
    }

    lu.delete_rows(positions, col_remap);
    EXPECT_EQ(lu.basic(), expected_basic) << "trial " << trial;
    EXPECT_EQ(lu.pivots_since_refactor(), 0u) << "trial " << trial;
    ASSERT_TRUE(lu.refactor(reduced)) << "trial " << trial;
    expect_residuals_small(lu, reduced, rng, "after deletion");
    ++deleted;
  }
  EXPECT_GE(deleted, 10);
}

TEST(FactoredBasis, LpSolverWarmDeleteMatchesColdSolve) {
  common::Rng rng(9091);
  int warm_deletes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(3, 8));
    LpModel model(Sense::kMaximize);
    for (std::size_t v = 0; v < nvars; ++v) {
      model.add_variable("v", 0.0, kInf, rng.uniform(0.5, 3.0));
    }
    LinearExpr total;
    for (std::size_t v = 0; v < nvars; ++v) total.add(v, 1.0);
    model.add_constraint(std::move(total), Relation::kLessEqual, rng.uniform(3.0, 8.0));
    const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(3, 8));
    for (std::size_t r = 0; r < nrows; ++r) {
      LinearExpr expr;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform() < 0.7) expr.add(v, rng.uniform(0.1, 2.0));
      }
      model.add_constraint(std::move(expr), Relation::kLessEqual, rng.uniform(2.0, 12.0));
    }

    LpSolver solver;  // factored LU default
    const LpSolution first = solver.solve(model);
    ASSERT_TRUE(first.optimal()) << "trial " << trial;

    // Delete every row strictly loose at the optimum (the compaction rule).
    std::vector<std::size_t> loose;
    const auto& constraints = model.constraints();
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      const double slack =
          constraints[c].rhs - constraints[c].expr.evaluate(first.values);
      if (slack > 1e-5) loose.push_back(c);
    }
    if (loose.empty()) continue;

    const bool warm = solver.delete_rows(loose);
    EXPECT_TRUE(warm) << "trial " << trial;
    EXPECT_TRUE(solver.has_basis()) << "trial " << trial;
    if (warm) ++warm_deletes;

    // The reduced model reoptimises warm and matches a cold solve; loose
    // rows cannot have been binding, so the objective is unchanged too.
    const LpSolution resolved = solver.resolve();
    ASSERT_TRUE(resolved.optimal()) << "trial " << trial;
    EXPECT_TRUE(resolved.warm_started) << "trial " << trial;
    LpSolver cold;
    const LpSolution reference = cold.solve(solver.model());
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, reference.objective,
                1e-6 * (1.0 + std::abs(reference.objective)))
        << "trial " << trial;
    EXPECT_NEAR(resolved.objective, first.objective,
                1e-6 * (1.0 + std::abs(first.objective)))
        << "trial " << trial;
    EXPECT_TRUE(solver.model().is_feasible(resolved.values, 1e-6)) << "trial " << trial;
  }
  EXPECT_GE(warm_deletes, 10);
}

TEST(FactoredBasis, LazyCompactionTakesTheWarmPath) {
  // Cooperative OEF with a deliberately tight envy-row budget: compaction
  // must fire, stay warm, and not change the optimum.
  common::Rng rng(31337);
  const std::size_t n = 14;
  const std::size_t k = 3;
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  const core::SpeedupMatrix w(std::move(rows));
  const std::vector<double> caps = {5.0, 7.0, 4.0};

  core::OefOptions reference_options;
  const core::AllocationResult reference =
      core::make_cooperative_oef(reference_options).allocate(w, caps);
  ASSERT_TRUE(reference.ok());

  core::OefOptions tight;
  tight.max_envy_rows_total = 3 * n;  // forces repeated compactions
  const core::AllocationResult compacted =
      core::make_cooperative_oef(tight).allocate(w, caps);
  ASSERT_TRUE(compacted.ok());
  EXPECT_NEAR(compacted.total_efficiency, reference.total_efficiency,
              1e-6 * (1.0 + reference.total_efficiency));
  EXPECT_GT(compacted.compactions, 0u);
  EXPECT_EQ(compacted.compactions, compacted.warm_compactions)
      << "every compaction should excise rows in place";
  EXPECT_GT(compacted.envy_rows_dropped, 0u);
}

TEST(FactoredBasis, SolverAgreesWithTableau) {
  common::Rng rng(246810);
  int optimal_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 9));
    LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
    for (std::size_t v = 0; v < nvars; ++v) {
      const double lower = rng.uniform() < 0.3 ? rng.uniform(-2.0, 2.0) : 0.0;
      const double upper = rng.uniform() < 0.5 ? lower + rng.uniform(0.5, 8.0) : kInf;
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

    LpSolver lu_solver;
    const LpSolution lu = lu_solver.solve(model);
    const LpSolution tableau = SimplexSolver().solve(model);
    ASSERT_EQ(lu.status, tableau.status) << "trial " << trial;
    if (!lu.optimal()) continue;
    ++optimal_seen;
    EXPECT_NEAR(lu.objective, tableau.objective,
                1e-5 * (1.0 + std::abs(tableau.objective)))
        << "trial " << trial;
    EXPECT_TRUE(model.is_feasible(lu.values, 1e-6)) << "trial " << trial;
  }
  EXPECT_GE(optimal_seen, 10);
}

}  // namespace
}  // namespace oef::solver
