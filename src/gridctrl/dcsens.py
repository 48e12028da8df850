"""DC sensitivities: incidence, PTDF, CV, TCSC derivative, LODF.

Matrix row/column order follows the network's bus and in-service-line file
order.  ``incidence`` is the one place in-service lines become a matrix;
the susceptance matrices, the bridge test and the pinned-flow system are all
built from it.  The bus susceptance matrix is singular; every inverse here
deletes the slack row and column, inverts the remainder, and re-inserts zero
vectors at the slack position.  Consequence: the slack column of the PTDF is
zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .netmodel import InputError, Network, connected_components

BALANCE_TOL = 1e-9
_CV_CHUNK = 256         # pairs per subtraction in cv_matrix; bounds its temporaries


class DisconnectedNetworkError(InputError):
    """The in-service graph is not connected; reduced matrices are singular."""


def _require_connected(net: Network) -> None:
    if net.n_bus == 0:
        raise DisconnectedNetworkError("network has no buses")
    comps = connected_components(net)
    if len(comps) > 1:
        raise DisconnectedNetworkError(
            f"network is not connected: {len(comps)} components over in-service lines")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def incidence(net: Network) -> np.ndarray:
    """Signed (n_L, n_B) incidence of the in-service lines: row k is +1 at
    line k's from-bus and -1 at its to-bus, so a positive flow runs from->to."""
    lines = net.lines_in_service
    rows = np.arange(len(lines))
    inc = np.zeros((len(lines), net.n_bus))
    inc[rows, [net.bus_index[ln.from_bus] for ln in lines]] = 1.0
    inc[rows, [net.bus_index[ln.to_bus] for ln in lines]] = -1.0
    return inc


def _reduced_inverse(b_bus: np.ndarray, slack: int) -> np.ndarray:
    """inv(B_bus with slack row/col deleted), zero-filled back to full size."""
    n = b_bus.shape[0]
    keep = [i for i in range(n) if i != slack]
    reduced = b_bus[np.ix_(keep, keep)]
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise DisconnectedNetworkError("reduced susceptance matrix is singular") from exc
    full = np.zeros((n, n))
    full[np.ix_(keep, keep)] = inv
    return full


@dataclass(frozen=True, eq=False)
class PtdfMatrix:
    values: np.ndarray          # (n_L, n_B), slack column identically zero
    slack_index: int
    bus_ids: tuple[int, ...]
    line_ids: tuple[int, ...]

    def bus_column(self, bus_id: int) -> int:
        try:
            return self.bus_ids.index(bus_id)
        except ValueError:
            raise InputError(f"no bus with id {bus_id}") from None


def ptdf(net: Network) -> PtdfMatrix:
    """PTDF = B_line * reduced-inverse(B_bus), with B_line the incidence
    over the reactances and B_bus = inc.T @ B_line the weighted Laplacian.
    Requires a connected network."""
    _require_connected(net)
    lines = net.lines_in_service
    inc = incidence(net)
    b_line = inc / np.array([ln.reactance for ln in lines]).reshape(-1, 1)
    values = b_line @ _reduced_inverse(inc.T @ b_line, net.slack_index)
    values[:, net.slack_index] = 0.0
    return PtdfMatrix(values=_frozen(values), slack_index=net.slack_index,
                      bus_ids=net.bus_ids, line_ids=tuple(ln.id for ln in lines))


@dataclass(frozen=True, eq=False)
class InjectionProfile:
    """Per-bus net injections (MW, bus order).  They must sum to 0 within
    ``BALANCE_TOL`` relative to their total magnitude (at least 1 MW), so
    that roundoff in a large case is not refused."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if abs(float(p.sum())) > BALANCE_TOL * max(1.0, float(np.abs(p).sum())):
            raise InputError(f"injections must balance to 0, sum = {p.sum():.3e}")
        object.__setattr__(self, "p", _frozen(p.copy()))

    @classmethod
    def from_pairs(cls, net: Network, values: dict[int, float]) -> "InjectionProfile":
        p = np.zeros(net.n_bus)
        for bus_id, val in values.items():
            if bus_id not in net.bus_index:
                raise InputError(f"no bus with id {bus_id}")
            p[net.bus_index[bus_id]] += val
        return cls(p)


def dc_flow(net: Network, inj: InjectionProfile) -> np.ndarray:
    """Line flows (MW, in-service line order) for a balanced injection."""
    return _flows(ptdf(net), inj)


def _flows(mat: PtdfMatrix, inj: InjectionProfile) -> np.ndarray:
    n_bus = len(mat.bus_ids)
    if inj.p.shape != (n_bus,):
        raise InputError(f"injection length {inj.p.shape[0]} != n_bus {n_bus}")
    return mat.values @ inj.p


@dataclass(frozen=True, eq=False)
class ControllabilityVector:
    """Per-line flow response to +1 MW at bus m withdrawn at bus n."""

    m: int
    n: int
    values: np.ndarray


def node_pairs(bus_ids) -> list[tuple[int, int]]:
    """Every unordered node pair (m, n), m < n, in sorted order."""
    ordered = sorted(bus_ids)
    return [(m, n) for i, m in enumerate(ordered) for n in ordered[i + 1:]]


def cv_matrix(mat: PtdfMatrix, pairs) -> np.ndarray:
    """(len(pairs), n_L) array whose row j is P[:, m_j] - P[:, n_j]."""
    column = {b: i for i, b in enumerate(mat.bus_ids)}
    cols = []
    try:
        for m, n in pairs:
            if m == n:
                raise InputError(f"node pair must be distinct, got ({m}, {n})")
            cols.append((column[m], column[n]))
    except KeyError as exc:
        raise InputError(f"no bus with id {exc.args[0]}") from None
    idx = np.array(cols, dtype=np.intp).reshape(-1, 2)
    by_bus = np.ascontiguousarray(mat.values.T)
    out = np.empty((len(idx), by_bus.shape[1]))
    for s in range(0, len(idx), _CV_CHUNK):
        c = idx[s:s + _CV_CHUNK]
        np.subtract(by_bus[c[:, 0]], by_bus[c[:, 1]], out=out[s:s + _CV_CHUNK])
    return out


def cv(mat: PtdfMatrix, m: int, n: int) -> ControllabilityVector:
    return ControllabilityVector(m=m, n=n, values=_frozen(cv_matrix(mat, [(m, n)])[0]))


def check_p_dc_max(p_dc_max: float) -> None:
    """Reject a setpoint cap that is negative or NaN (MW; inf means no cap)."""
    if not p_dc_max >= 0.0:
        raise InputError(f"setpoint cap p_dc_max must be >= 0 MW, got {p_dc_max}")


def apply_hvdc(mat: PtdfMatrix, placements: list[tuple[int, int]],
               p_dc: np.ndarray) -> np.ndarray:
    """AC flow change (MW) from HVDC setpoints (MW) on the given node pairs."""
    p_dc = np.asarray(p_dc, dtype=float)
    if p_dc.shape != (len(placements),):
        raise InputError(f"{len(placements)} placements but {p_dc.shape} setpoints")
    return p_dc @ cv_matrix(mat, placements)


def tcsc_sensitivity(net: Network, inj: InjectionProfile, line_id: int) -> np.ndarray:
    """d(line flows)/d(reactance of ``line_id``), evaluated analytically, in
    MW per p.u. of reactance for injections ``inj`` in MW.

    With f_k the device line's flow and x_k its reactance, the derivative
    collapses to (f_k / x_k) * (CV_ij - e_k) over the line's terminals i, j.
    The second term of the product rule carries a minus sign from
    d(inv(B)) = -inv(B) dB inv(B).
    """
    mat = ptdf(net)
    row = net.line_row(line_id)
    ln = net.lines_in_service[row]
    scale = _flows(mat, inj)[row] / ln.reactance
    sens = scale * cv(mat, ln.from_bus, ln.to_bus).values
    sens[row] -= scale
    return sens


@dataclass(frozen=True, eq=False)
class LodfMatrix:
    """Column k: redistribution of line k's pre-outage flow; diagonal = -1.

    Bridge outages island the network: their columns are NaN and the line ids
    are listed in ``islanded``.
    """

    values: np.ndarray
    islanded: tuple[int, ...]
    line_ids: tuple[int, ...]


def remove_line(net: Network, line_id: int) -> Network:
    """Copy of the network with one line switched out of service."""
    net.line_row(line_id)                   # raises unless the line is in service
    return replace(net, lines=tuple(
        ln if ln.id != line_id else replace(ln, in_service=False) for ln in net.lines))


def bridges(net: Network) -> frozenset[int]:
    """Ids of the in-service lines whose outage would split the network.

    One reduced inverse decides every line.  With every reactance set to 1,
    h_k = inc[k] @ inv(inc.T @ inc) @ inc[k] (slack deleted) is line k's
    effective resistance.  It is exactly 1 when no cycle contains the line,
    and at most 1 - 1/n_B when one does: the line is then in parallel with a
    path of at most n_B - 1 unit resistors.  The threshold 1 - 0.5/n_B lies
    between the two.  The test is structural: it ignores reactances, so a
    near-bridge (a line whose outage leaves an almost singular LODF
    denominator) is not a bridge.  Requires a connected network.
    """
    _require_connected(net)
    inc = incidence(net)
    h = ((inc @ _reduced_inverse(inc.T @ inc, net.slack_index)) * inc).sum(axis=1)
    return frozenset(ln.id for ln, hk in zip(net.lines_in_service, h)
                     if hk > 1.0 - 0.5 / net.n_bus)


def lodf(net: Network) -> LodfMatrix:
    mat = ptdf(net)
    lines = net.lines_in_service
    islanding = bridges(net)
    bridge = np.array([ln.id in islanding for ln in lines], dtype=bool)
    h = cv_matrix(mat, [(ln.from_bus, ln.to_bus) for ln in lines]).T
    denom = np.where(bridge, np.nan, 1.0 - np.diag(h))     # bridge columns come out NaN
    singular = np.flatnonzero(np.abs(denom) < 1e-9)
    if singular.size:
        k = singular[0]
        raise InputError(f"line {lines[k].id}: outage denominator "
                         f"{denom[k]:.3e} is numerically singular")
    values = h / denom
    values[~bridge, ~bridge] = -1.0
    return LodfMatrix(values=_frozen(values),
                      islanded=tuple(ln.id for ln, b in zip(lines, bridge) if b),
                      line_ids=mat.line_ids)
