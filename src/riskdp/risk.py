"""Coherent one-step risk measures on finite outcome spaces.

A risk measure here is the support function of a set of *densities* p over the
M outcomes of a stage: ``rho(v) = max_{p in P} sum_j p_j phi_j v_j`` where phi
is the nominal probability vector and P is a subset of the dual base set
``D = {p >= 0 : sum_j p_j phi_j = 1}``.  Supported sets:

* ``expectation`` — P = {1}.
* ``cvar`` — P = {p in D : p <= 1/epsilon}; the maximizer is computed
  analytically (sort outcomes by value, fill the density cap greedily).
* ``mixture`` — (1 - lam) * expectation + lam * cvar, the convention of the
  source paper, realized as the corresponding convex combination of
  densities; ``lam`` is the weight of the tail.
* ``polytope`` — P = D intersected with user rows ``a . p <= rhs``; the
  maximizer is found by our own simplex solver.

Every evaluation returns both the risk value and the maximizing density, and
the value is always the exact dot product ``sum_j p_j phi_j v_j`` of the
returned density, which keeps downstream cut assembly perfectly consistent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import lp

logger = logging.getLogger(__name__)

RISK_KINDS = ("expectation", "cvar", "mixture", "polytope")

PROB_TOL = 1e-9   # probability vectors must sum to 1 within this


class RiskConfigError(ValueError):
    """Invalid risk-measure configuration (bad parameters or empty dual set)."""


@dataclass
class RiskSpec:
    """Declarative description of one stage's risk measure.

    Parameters
    ----------
    kind : str
        One of :data:`RISK_KINDS`.
    epsilon : float, optional
        Tail level for ``cvar`` / ``mixture``; must lie in (0, 1].
    lam : float, optional
        CVaR (tail) weight for ``mixture``, which is
        ``(1 - lam) * E + lam * CVaR_epsilon``; must lie in [0, 1].
    rows : list of (array, float), optional
        Halfspaces ``a . p <= rhs`` for ``polytope``.
    """

    kind: str = "expectation"
    epsilon: float | None = None
    lam: float | None = None
    rows: list[tuple[np.ndarray, float]] = field(default_factory=list)

    def validate(self, n_outcomes: int | None = None) -> None:
        if self.kind not in RISK_KINDS:
            raise RiskConfigError(f"unknown risk kind {self.kind!r}")
        if self.kind in ("cvar", "mixture"):
            if self.epsilon is None or not (0.0 < self.epsilon <= 1.0):
                raise RiskConfigError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if self.kind == "mixture":
            if self.lam is None or not (0.0 <= self.lam <= 1.0):
                raise RiskConfigError(f"lambda must lie in [0, 1], got {self.lam!r}")
        if self.kind == "polytope":
            if not self.rows:
                raise RiskConfigError("polytope risk needs at least one row")
            for a, rhs in self.rows:
                a = np.asarray(a, dtype=float)
                if not np.all(np.isfinite(a)) or not np.isfinite(rhs):
                    raise RiskConfigError("polytope rows must be finite")
                if n_outcomes is not None and a.shape != (n_outcomes,):
                    raise RiskConfigError(
                        f"polytope row has {a.shape[0]} entries, expected {n_outcomes}")

    @classmethod
    def from_json_fragment(cls, frag: dict) -> "RiskSpec":
        """Build a spec from its JSON form, e.g. ``{"type": "cvar", "epsilon": 0.5}``."""
        if not isinstance(frag, dict) or "type" not in frag:
            raise RiskConfigError(f"risk fragment must be an object with a 'type' key: {frag!r}")
        try:
            spec = cls(kind=frag["type"], epsilon=_json_number(frag.get("epsilon"), True),
                       lam=_json_number(frag.get("lambda"), True),
                       rows=[(np.array([_json_number(v) for v in r["a"]], dtype=float),
                              float(_json_number(r["rhs"])))
                             for r in frag.get("rows", [])])
            spec.validate()
        except RiskConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RiskConfigError(
                f"malformed risk fragment {frag!r}: epsilon and lambda must be numbers and "
                f"rows a list of {{'a': [...], 'rhs': number}} objects ({exc!r})") from exc
        return spec

    def to_json_fragment(self) -> dict:
        out: dict = {"type": self.kind}
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.rows:
            out["rows"] = [{"a": list(map(float, a)), "rhs": float(rhs)} for a, rhs in self.rows]
        return out


def _json_number(value, absent_ok: bool = False):
    """``value`` as given when it is a JSON number (``None`` too with ``absent_ok``).

    A bool or a string raises ``TypeError``; Python would otherwise compare
    and convert both as numbers.
    """
    if value is None and absent_ok:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.size == 0:
        raise RiskConfigError("empty outcome space")
    if not (probs > 0.0).all():  # written so that NaN fails both checks
        raise RiskConfigError("outcome probabilities must be strictly positive")
    if not abs(probs.sum() - 1.0) <= PROB_TOL:
        raise RiskConfigError(f"probabilities sum to {probs.sum()!r}, not 1")
    return probs


def _cvar_density(epsilon: float, probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Analytic maximizer: cap 1/epsilon on the worst outcomes, largest first.

    Ties in value are broken by outcome index (ascending), which makes the
    density a deterministic function of the inputs.
    """
    n = values.shape[0]
    cap = 1.0 / epsilon
    order = np.lexsort((np.arange(n), -values))
    p = np.zeros(n)
    mass = 0.0
    for j in order:
        room = 1.0 - mass
        if room <= 0.0:
            break
        take = min(cap, room / probs[j])
        p[j] = take
        mass += take * probs[j]
    return p


def risk_value_and_density(spec: RiskSpec, probs, values) -> tuple[float, np.ndarray]:
    """Evaluate the risk measure and return ``(value, density)``.

    The value is the exact dot product of the returned density:
    ``value == sum_j density[j] * probs[j] * values[j]``.

    Raises
    ------
    RiskConfigError
        On invalid parameters or an empty polytope dual set.
    """
    probs = _check_probs(probs)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape != probs.shape:
        raise RiskConfigError("probs and values must have matching shapes")
    spec.validate(n_outcomes=probs.shape[0])
    if spec.kind == "expectation":
        p = np.ones_like(probs)
    elif spec.kind == "cvar":
        p = _cvar_density(spec.epsilon, probs, values)
    elif spec.kind == "mixture":
        p_tail = _cvar_density(spec.epsilon, probs, values)
        p = (1.0 - spec.lam) * np.ones_like(probs) + spec.lam * p_tail
    else:  # polytope
        p = _polytope_density(spec, probs, values)
    value = float((p * probs).dot(values))
    return value, p


def _polytope_density(spec: RiskSpec, probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    n = probs.shape[0]
    a_ub = np.array([np.asarray(a, dtype=float) for a, _ in spec.rows]).reshape(len(spec.rows), n)
    b_ub = np.array([rhs for _, rhs in spec.rows], dtype=float)
    prob = lp.LpProblem(c=-(probs * values),
                        a_eq=probs.reshape(1, n), b_eq=[1.0],
                        a_ub=a_ub, b_ub=b_ub,
                        lower=np.zeros(n), upper=np.full(n, np.inf))
    sol = lp.solve(prob)
    if sol.status == lp.INFEASIBLE:
        raise RiskConfigError("polytope dual set is empty (rows exclude every density)")
    if sol.status != lp.OPTIMAL:  # pragma: no cover - D is bounded, cannot happen
        raise RiskConfigError(f"polytope risk LP returned {sol.status}")
    return sol.x.copy()


def validate_risk_set(spec: RiskSpec, probs) -> None:
    """Validate a spec against a concrete outcome space.

    Checks parameter ranges and, for polytopes, that the dual set
    ``P intersect D`` is nonempty (by LP); it is automatically bounded because
    D is.  Raises :class:`RiskConfigError` on any failure.
    """
    probs = _check_probs(probs)
    spec.validate(n_outcomes=probs.shape[0])
    if spec.kind == "polytope":
        _polytope_density(spec, probs, np.zeros_like(probs))
