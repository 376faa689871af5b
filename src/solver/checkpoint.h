// Serialization of the solver's warm state.
//
// The allocator daemon checkpoints its warm solver state so a crash-restart
// resumes with the previous optimal basis instead of a cold solve. The solver
// layer owns the encoding of that state: the LpWarmState of lp_solver.h
// (basic set, at-upper flags, row relations, structural column count). The
// model is not part of it — the restarted caller rebuilds its model from its
// own inputs, and the next solve() of that model warm-starts from the
// identity. Container framing (magic, version, checksum, atomic rename) is
// the caller's job; see service/checkpoint.h.
//
// Readers throw common::CheckError(kCorruptData) on malformed input, matching
// the serial layer's contract.
#pragma once

#include "common/serial.h"
#include "solver/lp_solver.h"

namespace oef::solver {

/// Writes the solver's warm state, or a "no warm state" marker when the
/// solver has no reusable basis.
void write_warm_state(common::SerialWriter& out, const LpSolver& solver);

/// Reads what write_warm_state() wrote and imports it into `solver`. Returns
/// true when a warm state was present and stored for the next solve(); false
/// when the marker said cold (or the solver runs the tableau). An identity
/// that does not fit the next model makes that solve cold — degraded, not an
/// error. Always consumes the full record either way.
bool read_warm_state(common::SerialReader& in, LpSolver& solver);

}  // namespace oef::solver
