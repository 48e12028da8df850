"""Embedded bounded-variable primal simplex.

Solves   min c @ x   s.t.   A x = b,   lower <= x <= upper
with infinite bounds allowed on either side.  Two phases (artificial
variables for feasibility), Dantzig pricing with a Bland-rule fallback after
a degenerate streak so cycling cannot occur, explicit bound-flip steps for
boxed variables.  Dense tableau storage: this is meant for the small
problems this package generates, not as a general-purpose LP code, and an
LP whose tableau would pass ``TABLEAU_LIMIT_BYTES`` is refused unbuilt.  A
pivot updates only the cells it changes, those in a row where the pivot
column is nonzero and a column where the pivot row is nonzero; each of them
gets the same single multiply-subtract the full rank-1 update would give it.

Between iterations the loop keeps what only the entering and the leaving
column can change: the basic values and their bounds by basis position, and
per column whether it may enter moving up or down.  Pricing stays the full
product ``c - c_B @ t`` every iteration, since its bits decide the pivots.

The optimal status is only returned after the point the pivots produced, and
the duals read off the final tableau, pass primal and dual feasibility checks
on the original data at 1e-7.  The returned point is that certified point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import InputError

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_STREAK = 40
_PIVOT_CHUNK = 1 << 16     # cells per block of a pivot update; bounds its temporaries
TABLEAU_LIMIT_BYTES = 256 * 2**20     # a larger tableau is refused, not built

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3
# (gate_up, gate_dn) of a movable nonbasic column at that bound
_GATES = {_AT_LOWER: (0.0, -np.inf), _AT_UPPER: (-np.inf, 0.0)}


class SimplexStallError(RuntimeError):
    """Iteration cap hit before reaching an optimum."""


class SimplexNumericalError(RuntimeError):
    """Final basis failed the primal/dual certification."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    c: np.ndarray                       # (n,)
    a_eq: np.ndarray                    # (m, n)
    b_eq: np.ndarray                    # (m,)
    lower: np.ndarray                   # (n,), -inf allowed
    upper: np.ndarray                   # (n,), +inf allowed

    @classmethod
    def build(cls, c, a_eq, b_eq, lower, upper) -> "LpProblem":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        a_eq = np.asarray(a_eq, dtype=float)
        if a_eq.size == 0 and b_eq.shape[0] * c.shape[0] == 0:   # [] stands for any empty A
            a_eq = a_eq.reshape(b_eq.shape[0], c.shape[0])
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        return cls(c=c, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


@dataclass(frozen=True, eq=False)
class LpResult:
    status: str                         # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _validate(p: LpProblem) -> None:
    n = p.c.shape[0]
    m = p.b_eq.shape[0]
    if p.a_eq.shape != (m, n):
        raise ValueError(f"A shape {p.a_eq.shape} does not match ({m}, {n})")
    if p.lower.shape != (n,) or p.upper.shape != (n,):
        raise ValueError("bound vectors must match the variable count")
    for name, arr in (("c", p.c), ("a_eq", p.a_eq), ("b_eq", p.b_eq)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    if np.any(np.isnan(p.lower)) or np.any(np.isnan(p.upper)):
        raise ValueError("bounds contain NaN")
    if np.any(p.lower > p.upper):
        raise ValueError("lower bound exceeds upper bound")


def check_tableau_size(m: int, n: int) -> None:
    """Refuse an LP of m rows and n columns whose tableau, m x (n + m)
    float64, would exceed ``TABLEAU_LIMIT_BYTES``."""
    need = m * (n + m) * 8
    if need > TABLEAU_LIMIT_BYTES:
        raise InputError(f"the LP has {m} rows and {n} columns: its simplex tableau "
                         f"needs {need / 2**20:.0f} MiB, over the "
                         f"{TABLEAU_LIMIT_BYTES >> 20} MiB limit")


class _Tableau:
    def __init__(self, p: LpProblem):
        self.n = p.c.shape[0]
        self.m = p.b_eq.shape[0]
        n, m = self.n, self.m
        self.total = n + m

        self.lower = np.concatenate([p.lower, np.zeros(m)])
        self.upper = np.concatenate([p.upper, np.full(m, np.inf)])
        self.x = np.zeros(self.total)
        self.status = np.full(self.total, _BASIC, dtype=np.int8)
        # each column starts at the point of its box nearest 0, so a huge
        # finite bound never enters the residual arithmetic
        start = np.clip(0.0, p.lower, p.upper)
        self.x[:n] = start
        self.status[:n] = np.where(start == p.lower, _AT_LOWER,
                                   np.where(start == p.upper, _AT_UPPER, _FREE))

        resid = p.b_eq - p.a_eq @ self.x[:n]
        self.signs = np.where(resid >= 0.0, 1.0, -1.0)
        # columns [A, diag(signs)]; initial basis = artificials, B^-1 = diag(signs)
        self.t = self.signs[:, None] * np.hstack([p.a_eq, np.diag(self.signs)])
        self.basis = np.arange(n, n + m)
        self.x[n:] = np.abs(resid)
        self.iterations = 0

    # a step ratio past the float range is inf, as if that row set no limit
    @np.errstate(over="ignore")
    def run(self, cvec: np.ndarray, max_iter: int) -> str:
        """Minimize cvec over the current basis.  'optimal' or 'unbounded'.

        Between iterations the loop keeps, by basis position r, the basic
        values xb[r] = x[basis[r]] and their bounds (written back into x on
        every return), and, by column, gates that are 0 where the column may
        enter moving up (down) and -inf where it may not.  A step changes
        them only at the entering and the leaving column.
        """
        m, t, x, basis, status = self.m, self.t, self.x, self.basis, self.status
        lower, upper = self.lower, self.upper
        movable = (status != _BASIC) & (upper > lower)
        gate_up = np.where(movable & (status != _AT_UPPER), 0.0, -np.inf)
        gate_dn = np.where(movable & (status != _AT_LOWER), 0.0, -np.inf)
        dtol = FEAS_TOL * (1.0 + float(np.abs(cvec).max(initial=0.0)))
        xb, lb, ub = x[basis], lower[basis], upper[basis]
        score, score_dn = np.empty(self.total), np.empty(self.total)
        d, abs_d, room, ratios = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
        rises = np.empty(m, dtype=bool)
        bland = False
        streak = 0
        try:
            while True:
                if self.iterations >= max_iter:
                    raise SimplexStallError(
                        f"no optimum after {self.iterations} iterations")
                self.iterations += 1
                if not self.total:          # no column to price
                    return "optimal"

                z = cvec - (cvec[basis] @ t if m else 0.0)
                # |z| on every column that may enter, at most dtol elsewhere
                np.subtract(gate_up, z, out=score)
                np.add(gate_dn, z, out=score_dn)
                np.maximum(score, score_dn, out=score)
                j = int(score.argmax())
                if not score[j] > dtol:
                    return "optimal"
                if bland:
                    j = int((score > dtol).argmax())
                direction = 1.0 if z[j] < 0.0 else -1.0

                # basic value r moves by -direction * d[r] per unit step
                np.copyto(d, t[:, j])
                np.abs(d, out=abs_d)
                if direction > 0:
                    np.less(d, 0.0, out=rises)
                else:
                    np.greater(d, 0.0, out=rises)
                np.subtract(xb, lb, out=room)
                np.subtract(ub, xb, out=ratios)
                np.copyto(room, ratios, where=rises)
                np.maximum(room, 0.0, out=room)
                ratios.fill(np.inf)
                np.divide(room, abs_d, out=ratios, where=abs_d > PIVOT_TOL)

                # distance from x[j] to the bound it moves towards, inf if none
                xj = float(x[j])
                own = float(upper[j]) - xj if direction > 0 else xj - float(lower[j])
                row_min = float(ratios.min(initial=np.inf))
                delta = min(own, row_min)
                if not np.isfinite(delta):
                    return "unbounded"

                streak = streak + 1 if delta <= 1e-10 else 0
                if streak > DEGENERATE_STREAK:
                    bland = True
                elif streak == 0:
                    bland = False

                if own <= row_min:
                    # bound flip: variable reaches that bound, basis unchanged
                    xb -= direction * own * d
                    side = _AT_UPPER if direction > 0 else _AT_LOWER
                    x[j] = upper[j] if direction > 0 else lower[j]
                    status[j] = side
                    gate_up[j], gate_dn[j] = _GATES[side]
                    continue

                tie = ratios <= row_min + 1e-10
                if bland:
                    cands = np.flatnonzero(tie)
                    r = int(cands[np.argmin(basis[cands])])
                else:
                    r = int(np.where(tie, abs_d, -1.0).argmax())

                leaving = int(basis[r])
                xb -= direction * delta * d
                side = _AT_UPPER if rises[r] else _AT_LOWER
                x[leaving] = ub[r] if rises[r] else lb[r]
                status[leaving] = side
                if ub[r] > lb[r]:
                    gate_up[leaving], gate_dn[leaving] = _GATES[side]

                self._pivot(r, j)
                basis[r] = j
                status[j] = _BASIC
                gate_up[j] = gate_dn[j] = -np.inf
                xb[r] = xj + direction * delta
                lb[r], ub[r] = lower[j], upper[j]
        finally:
            x[basis] = xb

    def _pivot(self, r: int, j: int) -> None:
        """Eliminate column j from every row but r, which is scaled to t[r, j] = 1.

        Only the cells where both column j and row r are nonzero change; every
        other cell would have a product of 0 subtracted from it.  They are
        read and written by flat index into ``t`` (C-contiguous: built by
        ``np.hstack`` and only ever updated in place, so ``ravel`` is a view),
        which costs less per cell than a two-axis fancy index.  The rows go in
        blocks of at most ``_PIVOT_CHUNK`` cells, which bounds the three
        temporaries (index, product, gathered values) whatever the tableau.
        """
        t = self.t
        t[r] /= t[r, j]
        col = t[:, j].copy()
        col[r] = 0.0
        rows = col.nonzero()[0]
        prow = t[r]
        cols = prow.nonzero()[0]
        flat = t.ravel()
        pcols = prow[cols]
        step = max(1, _PIVOT_CHUNK // cols.size)
        for s in range(0, rows.size, step):
            block = rows[s:s + step]
            cells = (block * t.shape[1])[:, None] + cols
            change = np.multiply.outer(col[block], pcols)
            np.subtract(flat[cells], change, out=change)
            flat[cells] = change


def _certify(p: LpProblem, tab: _Tableau) -> np.ndarray:
    """Check the pivots' own primal-dual pair on the original data at 1e-7.

    ``t[:, n:]`` is B^-1 diag(signs), so the duals come off the tableau with
    no factorisation.  A basis too ill-conditioned to carry them fails the
    reduced-cost check on its own basic columns.
    """
    n, m, signs = tab.n, tab.m, tab.signs
    x = tab.x
    scale_b = 1.0 + np.abs(p.b_eq).max(initial=0.0)
    resid = p.a_eq @ x[:n] + signs * x[n:] - p.b_eq
    if np.abs(resid).max(initial=0.0) > FEAS_TOL * scale_b:
        raise SimplexNumericalError("primal residual exceeds tolerance")
    span = np.abs(x).max(initial=0.0) + 1.0
    if (np.any(x < tab.lower - FEAS_TOL * span)
            or np.any(x > tab.upper + FEAS_TOL * span)):
        raise SimplexNumericalError("variable bound violated at optimum")

    cvec = np.concatenate([p.c, np.zeros(m)])
    y = (cvec[tab.basis] @ tab.t[:, n:]) * signs
    z = cvec - np.concatenate([p.a_eq.T @ y, signs * y])
    dual_tol = FEAS_TOL * (1.0 + np.abs(p.c).max(initial=0.0))
    movable = tab.upper > tab.lower
    for state, bad, where in ((_AT_LOWER, z < -dual_tol, "at a lower bound"),
                              (_AT_UPPER, z > dual_tol, "at an upper bound"),
                              (_FREE, np.abs(z) > dual_tol, "on a free variable"),
                              (_BASIC, np.abs(z) > dual_tol, "on a basic variable")):
        if np.any(movable & (tab.status == state) & bad):
            raise SimplexNumericalError(f"dual feasibility violated {where}")
    return x


def solve_lp(problem: LpProblem, max_iter: int | None = None) -> LpResult:
    """Two-phase bounded-variable simplex.  See module docstring."""
    _validate(problem)
    n, m = problem.c.shape[0], problem.b_eq.shape[0]
    check_tableau_size(m, n)
    if max_iter is None:
        max_iter = max(2000, 100 * (n + m))
    tab = _Tableau(problem)

    if m:
        phase1 = np.concatenate([np.zeros(n), np.ones(m)])
        if tab.run(phase1, max_iter) == "unbounded":
            # phase-1 objective is bounded below by 0; this cannot happen
            raise SimplexNumericalError("phase 1 reported an unbounded ray")
        if float(phase1 @ tab.x) > FEAS_TOL * (1.0 + np.abs(problem.b_eq).max()):
            return LpResult(status="infeasible", iterations=tab.iterations)
        # pin artificials at zero for phase 2
        tab.lower[n:] = 0.0
        tab.upper[n:] = 0.0

    phase2 = np.concatenate([problem.c, np.zeros(m)])
    outcome = tab.run(phase2, max_iter)
    if outcome == "unbounded":
        return LpResult(status="unbounded", iterations=tab.iterations)

    x_full = _certify(problem, tab)
    x = x_full[:n].copy()
    return LpResult(status="optimal", x=x, objective=float(problem.c @ x),
                    iterations=tab.iterations)
