#include "core/oef.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "solver/checkpoint.h"
#include "solver/lp_model.h"

namespace oef::core {

namespace {

using solver::Constraint;
using solver::LinearExpr;
using solver::LpModel;
using solver::Relation;
using solver::Sense;
using solver::VarId;

/// Variable id of x[user][type] given k types.
[[nodiscard]] constexpr VarId var_of(std::size_t user, std::size_t type, std::size_t k) {
  return user * k + type;
}

/// Adds all x variables (objective = speedup) and capacity rows.
void build_base_model(LpModel& model, const SpeedupMatrix& w,
                      const std::vector<double>& capacities) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  OEF_CHECK(capacities.size() == k);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      model.add_variable("x_" + std::to_string(l) + "_" + std::to_string(j),
                         /*lower=*/0.0, solver::kInf, /*objective=*/w.at(l, j));
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(var_of(l, j, k), 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, capacities[j],
                         "cap_" + std::to_string(j));
  }
}

[[nodiscard]] Allocation extract_allocation(const std::vector<double>& values, std::size_t n,
                                            std::size_t k) {
  Allocation allocation(n, k);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      // Clamp solver roundoff so downstream capacity checks stay clean.
      allocation.at(l, j) = std::max(0.0, values[var_of(l, j, k)]);
    }
  }
  return allocation;
}

/// Scaled efficiency of user l at point `values`: w_l · x_l / r_l.
[[nodiscard]] double scaled_efficiency(const SpeedupMatrix& w,
                                       const std::vector<double>& multiplicities,
                                       const std::vector<double>& values, std::size_t l) {
  const std::size_t k = w.num_types();
  double eff = 0.0;
  for (std::size_t j = 0; j < k; ++j) eff += w.at(l, j) * values[var_of(l, j, k)];
  return eff / multiplicities[l];
}

/// Efficiency user l would obtain from user i's bundle at `values`, at 1/r_i
/// scale: w_l · x_i / r_i.
[[nodiscard]] double envied_efficiency(const SpeedupMatrix& w,
                                       const std::vector<double>& multiplicities,
                                       const std::vector<double>& values, std::size_t l,
                                       std::size_t i) {
  const std::size_t k = w.num_types();
  double eff = 0.0;
  for (std::size_t j = 0; j < k; ++j) eff += w.at(l, j) * values[var_of(i, j, k)];
  return eff / multiplicities[i];
}

/// Envy row: w_l·x_l / r_l  −  w_l·x_i / r_i  ≥ 0.
[[nodiscard]] Constraint envy_row(const SpeedupMatrix& w,
                                  const std::vector<double>& multiplicities, std::size_t l,
                                  std::size_t i) {
  const std::size_t k = w.num_types();
  LinearExpr expr;
  for (std::size_t j = 0; j < k; ++j) {
    expr.add(var_of(l, j, k), w.at(l, j) / multiplicities[l]);
    expr.add(var_of(i, j, k), -w.at(l, j) / multiplicities[i]);
  }
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0,
                    "ef_" + std::to_string(l) + "_" + std::to_string(i)};
}

/// Worker count for the separation oracle. An explicit `configured` count is
/// honoured as-is (so determinism tests can force 2 or 4 workers on small
/// instances); automatic mode engages threads only when the O(n^2 k) scan is
/// big enough to amortise the fork/join.
[[nodiscard]] std::size_t oracle_worker_count(std::size_t configured, std::size_t n) {
  if (configured == 1) return 1;
  if (configured != 0) return std::min(configured, n);
  if (n < 64) return 1;
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::min<std::size_t>(std::max<std::size_t>(hardware, 1), std::min<std::size_t>(n, 8));
}

/// Dominance ordering for the fast path: indices sorted so each row is
/// elementwise <= the next. Returns nullopt when no such chain exists.
[[nodiscard]] std::optional<std::vector<std::size_t>> dominance_order(
    const SpeedupMatrix& w, double tol) {
  const std::size_t n = w.num_users();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    double sum_a = 0.0;
    double sum_b = 0.0;
    for (std::size_t j = 0; j < w.num_types(); ++j) {
      sum_a += w.at(a, j);
      sum_b += w.at(b, j);
    }
    if (sum_a != sum_b) return sum_a < sum_b;
    return a < b;
  });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j < w.num_types(); ++j) {
      if (w.at(order[i], j) > w.at(order[i + 1], j) + tol) return std::nullopt;
    }
  }
  return order;
}

}  // namespace

const char* to_string(AllocationStatus status) {
  switch (status) {
    case AllocationStatus::kNotSolved: return "not_solved";
    case AllocationStatus::kOptimal: return "optimal";
    case AllocationStatus::kDegraded: return "degraded";
    case AllocationStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::optional<Allocation> non_cooperative_fast_path(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities, double tolerance) {
  if (!speedups.types_consistently_ordered()) return std::nullopt;
  const auto order = dominance_order(speedups, 1e-12);
  if (!order.has_value()) return std::nullopt;

  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  // Greedy staircase fill (Lemma 3.1): users in dominance order, each
  // consuming types slowest-first until its demand r_l * E is met. Returns
  // the allocation when feasible.
  const auto try_fill = [&](double level) -> std::optional<Allocation> {
    Allocation allocation(n, k);
    std::vector<double> remaining = capacities;
    std::size_t type = 0;
    for (const std::size_t l : *order) {
      double demand = multiplicities[l] * level;
      while (demand > tolerance) {
        while (type < k && remaining[type] <= tolerance) ++type;
        if (type >= k) return std::nullopt;
        const double rate = speedups.at(l, type);
        const double want = demand / rate;
        const double take = std::min(want, remaining[type]);
        allocation.at(l, type) += take;
        remaining[type] -= take;
        demand -= take * rate;
      }
    }
    return allocation;
  };

  double best_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    double best_rate = 0.0;
    for (std::size_t l = 0; l < n; ++l) best_rate = std::max(best_rate, speedups.at(l, j));
    best_total += capacities[j] * best_rate;
  }
  const double mult_sum = std::accumulate(multiplicities.begin(), multiplicities.end(), 0.0);
  OEF_CHECK(mult_sum > 0.0);

  double lo = 0.0;
  double hi = best_total / mult_sum;
  if (!try_fill(hi).has_value()) {
    for (int iter = 0; iter < 100 && hi - lo > 1e-12 * (1.0 + hi); ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (try_fill(mid).has_value()) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    hi = lo;
  }
  return try_fill(hi);
}

OefAllocator::OefAllocator(Mode mode, OefOptions options)
    : mode_(mode),
      options_(options),
      coop_solver_(options.solver),
      noncoop_solver_(options.solver) {}

solver::LpSolverStats OefAllocator::solver_stats() const {
  solver::LpSolverStats stats = coop_solver_.stats();
  stats.merge(noncoop_solver_.stats());
  return stats;
}

AllocationResult OefAllocator::allocate(const SpeedupMatrix& speedups,
                                        const std::vector<double>& capacities) const {
  return allocate_weighted(speedups, std::vector<double>(speedups.num_users(), 1.0),
                           capacities);
}

AllocationResult OefAllocator::allocate_weighted(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities,
    const std::vector<std::size_t>& user_ids) const {
  // Module boundary: malformed inputs here come from the caller (scheduler /
  // simulator feeding per-round data), so they throw CheckError rather than
  // aborting — a robust scheduler catches and degrades (see check.h policy).
  OEF_REQUIRE_MSG(multiplicities.size() == speedups.num_users(),
                  "multiplicities must match the speedup matrix's user count");
  for (const double r : multiplicities) OEF_REQUIRE_MSG(r > 0.0, "multiplicity must be > 0");
  OEF_REQUIRE_MSG(capacities.size() == speedups.num_types(),
                  "capacities must match the speedup matrix's type count");
  OEF_REQUIRE_MSG(user_ids.empty() || user_ids.size() == speedups.num_users(),
                  "user_ids must be empty or match the user count");
  if (mode_ == Mode::kNonCooperative) {
    return solve_non_cooperative(speedups, multiplicities, capacities);
  }
  return solve_cooperative(speedups, multiplicities, capacities, user_ids);
}

AllocationResult OefAllocator::solve_non_cooperative(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  AllocationResult result;
  if (options_.use_fast_path) {
    auto fast = non_cooperative_fast_path(speedups, multiplicities, capacities);
    if (fast.has_value()) {
      result.allocation = std::move(*fast);
      result.outcome = AllocationStatus::kOptimal;
      result.status = solver::SolveStatus::kOptimal;
      result.total_efficiency = result.allocation.total_efficiency(speedups);
      result.used_fast_path = true;
      return result;
    }
    // The instance has crossing rows, so the combinatorial path does not
    // apply and the LP below answers instead. Count and log the degradation
    // rather than falling through silently.
    result.fast_path_fallback = true;
    common::log_debug(
        "non-cooperative fast path unavailable (instance not totally ordered); "
        "falling back to the LP");
  }

  LpModel model(Sense::kMaximize);
  build_base_model(model, speedups, capacities);
  // Equal scaled efficiency across all (virtual) users, Eq. (9c).
  for (std::size_t l = 1; l < n; ++l) {
    LinearExpr expr;
    for (std::size_t j = 0; j < k; ++j) {
      expr.add(var_of(l, j, k), speedups.at(l, j) / multiplicities[l]);
      expr.add(var_of(0, j, k), -speedups.at(0, j) / multiplicities[0]);
    }
    model.add_constraint(std::move(expr), Relation::kEqual, 0.0,
                         "eq_" + std::to_string(l));
  }

  // Persistent solver: across simulator rounds with a stable user population
  // the model shape repeats, so the previous optimal basis warm-starts this
  // solve (equal-efficiency rows only move in their coefficients).
  const solver::LpSolverStats stats_before = noncoop_solver_.stats();
  const solver::LpSolution solution = noncoop_solver_.solve(model);
  const solver::LpSolverStats& stats_after = noncoop_solver_.stats();
  result.status = solution.status;
  result.lp_iterations = solution.iterations;
  result.solve_seconds = stats_after.solve_seconds - stats_before.solve_seconds;
  result.tableau_fallbacks = stats_after.tableau_fallbacks - stats_before.tableau_fallbacks;
  result.basis_repairs = stats_after.basis_repairs - stats_before.basis_repairs;
  if (solution.warm_started) {
    result.warm_lp_iterations = solution.iterations;
  } else {
    result.cold_lp_iterations = solution.iterations;
  }
  if (!solution.optimal()) {
    result.outcome = AllocationStatus::kFailed;
    return result;
  }
  result.outcome = AllocationStatus::kOptimal;
  result.allocation = extract_allocation(solution.values, n, k);
  result.total_efficiency = result.allocation.total_efficiency(speedups);
  return result;
}

AllocationResult OefAllocator::solve_cooperative(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities,
    const std::vector<std::size_t>& user_ids) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  LpModel model(Sense::kMaximize);
  build_base_model(model, speedups, capacities);

  AllocationResult result;
  const solver::LpSolverStats stats_before = coop_solver_.stats();
  const auto harvest_ladder_stats = [&] {
    const solver::LpSolverStats& after = coop_solver_.stats();
    result.tableau_fallbacks = after.tableau_fallbacks - stats_before.tableau_fallbacks;
    result.basis_repairs = after.basis_repairs - stats_before.basis_repairs;
  };
  if (!options_.lazy_envy_constraints) {
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i != l) model.add_constraint(envy_row(speedups, multiplicities, l, i));
      }
    }
    // Same persistent solver as the lazy path: stats accumulate, the
    // configured algorithm applies, and repeat calls of the same shape
    // warm-start.
    const double seconds_before = stats_before.solve_seconds;
    const solver::LpSolution solution = coop_solver_.solve(model);
    result.solve_seconds = coop_solver_.stats().solve_seconds - seconds_before;
    harvest_ladder_stats();
    result.status = solution.status;
    result.lp_iterations = solution.iterations;
    if (solution.warm_started) {
      result.warm_lp_iterations = solution.iterations;
    } else {
      result.cold_lp_iterations = solution.iterations;
    }
    if (!solution.optimal()) {
      result.outcome = AllocationStatus::kFailed;
      return result;
    }
    result.outcome = AllocationStatus::kOptimal;
    result.allocation = extract_allocation(solution.values, n, k);
    result.total_efficiency = result.allocation.total_efficiency(speedups);
    return result;
  }

  // Recycle the envy rows that were binding at the previous optimum into the
  // initial relaxation: across simulator rounds the active set barely moves,
  // so the first solve usually satisfies the oracle outright — and because
  // the recycled model has the same shape as last round's final model, the
  // solver also reuses the previous optimal basis. `added` marks every pair
  // materialised as a row this call: it deduplicates the recycled pool and
  // stops the oracle from re-emitting a row the solver already carries.
  const std::size_t base_rows = model.num_constraints();
  std::vector<char> added(n * n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> session_pairs;
  const auto seed_pair = [&](std::size_t l, std::size_t i) {
    if (l < n && i < n && l != i && !added[l * n + i]) {
      added[l * n + i] = 1;
      model.add_constraint(envy_row(speedups, multiplicities, l, i));
      session_pairs.push_back({l, i});
    }
  };
  // The pool stores stable-ID pairs. With caller-provided ids, pairs whose
  // both endpoints survived churn are mapped back to current row indices and
  // recycled even though n changed; departed/unknown ids are skipped (and an
  // id stored by a legacy identity-keyed call is harmless — seed_pair bounds-
  // checks). The legacy path keeps its same-n guard.
  if (options_.recycle_envy_rows && !user_ids.empty()) {
    std::unordered_map<std::size_t, std::size_t> index_of_id;
    index_of_id.reserve(n);
    for (std::size_t l = 0; l < n; ++l) index_of_id.emplace(user_ids[l], l);
    // When the user set is unchanged (same n, every pooled id still present)
    // the full pool is reseeded in order: the model then has the shape of the
    // previous call's final model and the solver reuses its optimal basis.
    // Any churn in the user set makes this call a cold solve no matter what
    // we seed, and there a big initial relaxation costs more phase-1 pivots
    // than the skipped oracle rounds save — so seed only the binding rows.
    bool same_user_set = n == envy_pool_users_;
    for (const PooledEnvyRow& row : envy_pool_) {
      if (!same_user_set) break;
      same_user_set = index_of_id.count(row.envier) != 0 &&
                      index_of_id.count(row.envied) != 0;
    }
    for (const PooledEnvyRow& row : envy_pool_) {
      if (!same_user_set && !row.binding) continue;
      const auto a = index_of_id.find(row.envier);
      const auto b = index_of_id.find(row.envied);
      if (a != index_of_id.end() && b != index_of_id.end()) {
        seed_pair(a->second, b->second);
      }
    }
  } else if (options_.recycle_envy_rows && user_ids.empty() && envy_pool_users_ == n) {
    for (const PooledEnvyRow& row : envy_pool_) seed_pair(row.envier, row.envied);
  }
  if (session_pairs.empty() && options_.seed_adjacent_envy_rows) {
    // Cold start: at the optimum envy binds densely between users adjacent
    // in the dominance order (Thm 5.2's adjacency structure), so seeding
    // both directions of every pair within distance 2 (~4n rows) skips most
    // of the lazy journey that would otherwise rediscover them one round at
    // a time. Depth 2 measured best: depth 1 leaves too much for the oracle,
    // depth 3's larger initial LP costs more than it saves.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> strength(n, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t j = 0; j < k; ++j) strength[l] += speedups.at(l, j);
      strength[l] /= multiplicities[l];
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (strength[a] != strength[b]) return strength[a] < strength[b];
      return a < b;
    });
    for (std::size_t r = 0; r + 1 < n; ++r) {
      for (std::size_t d = 1; d <= 2 && r + d < n; ++d) {
        seed_pair(order[r], order[r + d]);
        seed_pair(order[r + d], order[r]);
      }
    }
  }

  // Lazy row generation: add every violated envy row per round (capped per
  // user) — more rows per solve, but far fewer full re-solves than the
  // one-row-per-user policy. Only a small set is active at the optimum.
  //
  // Pairs already materialised are skipped below a looser threshold: rows in
  // the model are satisfied only to the solver's feasibility tolerance, and
  // flagging that echo would append duplicate rows forever; pairs whose row
  // was dropped again by compaction are re-emitted once the violation is
  // genuine. The per-user scans are independent, so they shard across a
  // small worker pool; the merge walks users in index order, making the
  // emitted rows identical for every thread count.
  const std::size_t per_user_cap = std::max<std::size_t>(1, options_.max_envy_rows_per_user);
  const double readd_tolerance = std::max(options_.envy_tolerance, 1e-6);
  const std::size_t workers = oracle_worker_count(options_.oracle_threads, n);
  double oracle_seconds = 0.0;

  const auto oracle = [&](const std::vector<double>& point) {
    const double oracle_start = common::monotonic_seconds();
    std::vector<std::vector<std::pair<double, std::size_t>>> top(n);
    const auto scan_users = [&](std::size_t begin, std::size_t end) {
      std::vector<std::pair<double, std::size_t>> gaps;
      for (std::size_t l = begin; l < end; ++l) {
        const double own = scaled_efficiency(speedups, multiplicities, point, l);
        gaps.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (i == l) continue;
          const double gap = envied_efficiency(speedups, multiplicities, point, l, i) - own;
          const double threshold =
              added[l * n + i] ? readd_tolerance : options_.envy_tolerance;
          if (gap > threshold) gaps.push_back({gap, i});
        }
        // Worst first; index breaks exact ties so the order is a total one.
        std::sort(gaps.begin(), gaps.end(), [](const auto& a, const auto& b) {
          if (a.first != b.first) return a.first > b.first;
          return a.second < b.second;
        });
        if (gaps.size() > per_user_cap) gaps.resize(per_user_cap);
        top[l] = gaps;
      }
    };
    if (workers <= 1) {
      scan_users(0, n);
    } else {
      const std::size_t chunk = (n + workers - 1) / workers;
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (std::size_t w = 1; w < workers; ++w) {
        const std::size_t begin = std::min(n, w * chunk);
        const std::size_t end = std::min(n, begin + chunk);
        if (begin < end) pool.emplace_back(scan_users, begin, end);
      }
      scan_users(0, std::min(n, chunk));
      for (std::thread& worker : pool) worker.join();
    }
    std::vector<Constraint> violated;
    for (std::size_t l = 0; l < n; ++l) {
      for (const auto& [gap, i] : top[l]) {
        violated.push_back(envy_row(speedups, multiplicities, l, i));
        session_pairs.push_back({l, i});
        added[l * n + i] = 1;
      }
    }
    oracle_seconds += common::monotonic_seconds() - oracle_start;
    return violated;
  };

  solver::LazyConstraintSolver lazy(options_.solver, options_.max_lazy_rounds);
  if (options_.max_envy_rows_total != SIZE_MAX) {
    const std::size_t envy_budget = options_.max_envy_rows_total != 0
                                        ? options_.max_envy_rows_total
                                        : std::max<std::size_t>(16 * n, 512);
    lazy.enable_compaction(base_rows, base_rows + envy_budget);
  }
  if (options_.solve_deadline_seconds > 0.0) {
    lazy.set_deadline(options_.solve_deadline_seconds);
  }
  if (!options_.deadline.is_none()) {
    lazy.set_deadline(options_.deadline);
  }
  const solver::LazySolveResult lazy_result = lazy.solve(coop_solver_, model, oracle);
  result.status = lazy_result.solution.status;
  result.lp_iterations = lazy_result.total_iterations;
  result.lazy_rounds = lazy_result.rounds;
  result.envy_rows_added = lazy_result.rows_added;
  result.envy_rows_dropped = lazy_result.rows_dropped;
  result.compactions = lazy_result.compactions;
  result.warm_compactions = lazy_result.warm_compactions;
  result.warm_rounds = lazy_result.warm_rounds;
  result.cold_lp_iterations = lazy_result.cold_iterations;
  result.warm_lp_iterations = lazy_result.warm_iterations;
  result.solve_seconds = lazy_result.solve_seconds;
  result.oracle_seconds = oracle_seconds;
  result.deadline_expired = lazy_result.deadline_expired;
  oracle_seconds_total_ += oracle_seconds;
  harvest_ladder_stats();
  if (!lazy_result.solution.optimal()) {
    // Every rung of the degradation ladder failed on some relaxation — there
    // is no feasible point to hand out at all.
    result.outcome = AllocationStatus::kFailed;
    return result;
  }
  if (!lazy_result.converged) {
    // The round cap or the deadline stopped the loop at a relaxation optimum:
    // capacity-feasible (the capacity rows are permanent), some envy rows
    // possibly violated. Serve it, flagged as degraded, instead of the old
    // behaviour of returning an empty allocation.
    result.status = solver::SolveStatus::kIterationLimit;
    result.outcome = AllocationStatus::kDegraded;
  } else {
    result.outcome = AllocationStatus::kOptimal;
  }
  result.allocation = extract_allocation(lazy_result.solution.values, n, k);
  result.total_efficiency = result.allocation.total_efficiency(speedups);

  // Refresh the recycled pool with every envy pair materialised this call
  // (seeded + lazily added, minus compaction drops), keyed by stable id.
  // Keeping the loose rows too — not just the binding set — preserves the
  // invariant the warm start depends on: a quiet next round re-seeds exactly
  // this call's final row set, the model shapes match, and the solver reuses
  // the optimal basis instead of cold-solving. The pool cannot grow without
  // bound: it mirrors the final model, whose envy rows the in-call
  // compaction budget caps.
  if (options_.recycle_envy_rows) {
    // Materialisation order, deduplicated first-occurrence (a pair appears
    // twice only when compaction dropped its row and the oracle re-emitted
    // it). Preserving the order matters: next round seeds the pool in pool
    // order, so pool order == this model's envy-row order keeps the restored
    // basis's slack columns attached to the same rows — sorting here would
    // permute the rows and turn the warm start into a singular-basis repair.
    envy_pool_.clear();
    std::vector<char> pooled(n * n, 0);
    const std::vector<double>& point = lazy_result.solution.values;
    for (const auto& [l, i] : session_pairs) {
      if (pooled[l * n + i]) continue;
      pooled[l * n + i] = 1;
      PooledEnvyRow row;
      row.envier = user_ids.empty() ? l : user_ids[l];
      row.envied = user_ids.empty() ? i : user_ids[i];
      // Tight at the optimum (own efficiency == envied efficiency, up to the
      // solver's feasibility tolerance) — the rows worth seeding into a
      // differently-shaped next call.
      row.binding = envied_efficiency(speedups, multiplicities, point, l, i) -
                        scaled_efficiency(speedups, multiplicities, point, l) >=
                    -1e-6;
      envy_pool_.push_back(row);
    }
    envy_pool_users_ = n;
  }
  return result;
}

void OefAllocator::save_warm_state(common::SerialWriter& out) const {
  out.u64(mode_ == Mode::kCooperative ? 1 : 0);
  out.u64(envy_pool_users_);
  out.u64(envy_pool_.size());
  for (const PooledEnvyRow& row : envy_pool_) {
    out.u64(row.envier);
    out.u64(row.envied);
    out.u64(row.binding ? 1 : 0);
  }
  solver::write_warm_state(out, coop_solver_);
  solver::write_warm_state(out, noncoop_solver_);
}

bool OefAllocator::load_warm_state(common::SerialReader& in) {
  const std::uint64_t mode_tag = in.u64();
  OEF_REQUIRE_CODE(mode_tag <= 1, common::ErrorCode::kCorruptData,
                   "bad allocator mode tag");
  OEF_REQUIRE_CODE((mode_tag == 1) == (mode_ == Mode::kCooperative),
                   common::ErrorCode::kInvalidArgument,
                   "checkpoint was taken under the other allocator mode");
  envy_pool_users_ = static_cast<std::size_t>(in.u64());
  const std::uint64_t pool_size = in.u64();
  envy_pool_.clear();
  for (std::uint64_t i = 0; i < pool_size; ++i) {
    PooledEnvyRow row;
    row.envier = static_cast<std::size_t>(in.u64());
    row.envied = static_cast<std::size_t>(in.u64());
    row.binding = in.u64() != 0;
    envy_pool_.push_back(row);
  }
  const bool coop_warm = solver::read_warm_state(in, coop_solver_);
  const bool noncoop_warm = solver::read_warm_state(in, noncoop_solver_);
  return coop_warm || noncoop_warm;
}

OefAllocator make_non_cooperative_oef(OefOptions options) {
  return OefAllocator(OefAllocator::Mode::kNonCooperative, options);
}

OefAllocator make_cooperative_oef(OefOptions options) {
  return OefAllocator(OefAllocator::Mode::kCooperative, options);
}

}  // namespace oef::core
