"""Tests for the coherent risk measures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from checks import cvar_by_minimization
from riskdp import risk

QUARTER = np.array([0.25, 0.25, 0.25, 0.25])
VALUES = np.array([1.0, 2.0, 3.0, 4.0])


def test_expectation():
    spec = risk.RiskSpec(kind="expectation")
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert value == pytest.approx(2.5, abs=1e-12)
    assert np.array_equal(p, np.ones(4))


def test_cvar_half_tail():
    # eps = 0.5 on four equiprobable outcomes: the two worst carry density 2
    spec = risk.RiskSpec(kind="cvar", epsilon=0.5)
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert value == pytest.approx(3.5, abs=1e-12)
    assert np.allclose(p, [0.0, 0.0, 2.0, 2.0], atol=1e-12)


def test_cvar_fractional_boundary_atom():
    # eps = 0.4: worst outcome takes the cap 2.5 (mass 0.625), the next only 1.5
    spec = risk.RiskSpec(kind="cvar", epsilon=0.4)
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert np.allclose(p, [0.0, 0.0, 1.5, 2.5], atol=1e-12)
    assert value == pytest.approx(0.25 * (1.5 * 3.0 + 2.5 * 4.0), abs=1e-12)


def test_cvar_tie_break_by_index():
    spec = risk.RiskSpec(kind="cvar", epsilon=0.5)
    _, p = risk.risk_value_and_density(spec, QUARTER, np.array([4.0, 4.0, 4.0, 4.0]))
    # all values tie: the cap fills outcomes 0 and 1, later indices get nothing
    assert np.allclose(p, [2.0, 2.0, 0.0, 0.0], atol=1e-12)


def test_cvar_eps_one_is_expectation():
    spec = risk.RiskSpec(kind="cvar", epsilon=1.0)
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert value == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(p, np.ones(4), atol=1e-12)


def test_cvar_matches_minimization_form():
    assert cvar_by_minimization(0.5, QUARTER, VALUES) == pytest.approx(3.5, abs=1e-12)


def test_mixture():
    # (1 - lam) * E + lam * CVaR_eps: lam weighs the tail
    spec = risk.RiskSpec(kind="mixture", lam=0.4, epsilon=0.5)
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert np.allclose(p, 0.6 * np.ones(4) + 0.4 * np.array([0, 0, 2.0, 2.0]), atol=1e-12)
    assert value == pytest.approx(0.6 * 2.5 + 0.4 * 3.5, abs=1e-12)


def test_polytope_recovers_cvar():
    # explicit cap rows p_j <= 2 reproduce CVaR(eps=0.5) on this data
    rows = [(np.eye(4)[j], 2.0) for j in range(4)]
    spec = risk.RiskSpec(kind="polytope", rows=rows)
    value, p = risk.risk_value_and_density(spec, QUARTER, VALUES)
    assert value == pytest.approx(3.5, abs=1e-9)


def test_polytope_empty_set():
    rows = [(np.ones(4), 0.5)]  # sum p <= 0.5 conflicts with sum p phi = 1, phi = 1/4
    spec = risk.RiskSpec(kind="polytope", rows=rows)
    with pytest.raises(risk.RiskConfigError):
        risk.risk_value_and_density(spec, QUARTER, VALUES)
    with pytest.raises(risk.RiskConfigError):
        risk.validate_risk_set(spec, QUARTER)


def test_config_errors():
    with pytest.raises(risk.RiskConfigError):
        risk.RiskSpec(kind="cvar", epsilon=0.0).validate()
    with pytest.raises(risk.RiskConfigError):
        risk.RiskSpec(kind="cvar", epsilon=1.5).validate()
    with pytest.raises(risk.RiskConfigError):
        risk.RiskSpec(kind="mixture", epsilon=0.5, lam=1.2).validate()
    with pytest.raises(risk.RiskConfigError):
        risk.RiskSpec(kind="nope").validate()
    with pytest.raises(risk.RiskConfigError):
        risk.risk_value_and_density(risk.RiskSpec(), np.array([0.5, 0.6]), np.zeros(2))


@pytest.mark.parametrize("probs", [[0.5, np.nan], [np.nan], [np.nan, 1.0]])
def test_nan_probabilities_are_rejected(probs):
    # nan <= 0 and |sum - 1| > tol are both False for a NaN: written that
    # way, the checks pass it
    with pytest.raises(risk.RiskConfigError, match="strictly positive"):
        risk.risk_value_and_density(risk.RiskSpec(), np.array(probs), np.zeros(len(probs)))
    with pytest.raises(risk.RiskConfigError, match="strictly positive"):
        risk.validate_risk_set(risk.RiskSpec(kind="cvar", epsilon=0.5), probs)


def test_json_round_trip():
    frag = {"type": "mixture", "lambda": 0.4, "epsilon": 0.1}
    spec = risk.RiskSpec.from_json_fragment(frag)
    assert spec.kind == "mixture" and spec.lam == 0.4 and spec.epsilon == 0.1
    assert risk.RiskSpec.from_json_fragment(spec.to_json_fragment()).lam == 0.4
    poly = {"type": "polytope", "rows": [{"a": [1.0, 0.0], "rhs": 1.5}]}
    spec2 = risk.RiskSpec.from_json_fragment(poly)
    assert spec2.rows[0][1] == 1.5


def _random_case(draw_seed):
    rng = np.random.default_rng(draw_seed)
    n = int(rng.integers(2, 7))
    probs = rng.uniform(0.1, 1.0, size=n)
    probs /= probs.sum()
    values = rng.normal(scale=3.0, size=n)
    return probs, values


SPECS = [
    risk.RiskSpec(kind="expectation"),
    risk.RiskSpec(kind="cvar", epsilon=0.3),
    risk.RiskSpec(kind="mixture", lam=0.4, epsilon=0.1),
]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_density_lies_in_base_set(seed):
    probs, values = _random_case(seed)
    for spec in SPECS:
        value, p = risk.risk_value_and_density(spec, probs, values)
        assert np.all(p >= -1e-12)
        assert float(p @ probs) == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(float((p * probs) @ values), abs=0.0)
        if spec.kind == "cvar":
            assert np.all(p <= 1.0 / spec.epsilon + 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cvar_against_minimization_oracle(seed):
    probs, values = _random_case(seed)
    for eps in (0.1, 0.35, 0.5, 0.9, 1.0):
        value, _ = risk.risk_value_and_density(risk.RiskSpec(kind="cvar", epsilon=eps),
                                               probs, values)
        assert value == pytest.approx(cvar_by_minimization(eps, probs, values), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_coherence_properties(seed):
    probs, values = _random_case(seed)
    rng = np.random.default_rng(seed + 13)
    other = rng.normal(scale=3.0, size=values.shape[0])
    for spec in SPECS:
        val = risk.risk_value_and_density(spec, probs, values)[0]
        # monotonicity
        higher = values + rng.uniform(0.0, 1.0, size=values.shape[0])
        assert risk.risk_value_and_density(spec, probs, higher)[0] >= val - 1e-9
        # translation equivariance
        shifted = risk.risk_value_and_density(spec, probs, values + 2.5)[0]
        assert shifted == pytest.approx(val + 2.5, abs=1e-9)
        # positive homogeneity
        doubled = risk.risk_value_and_density(spec, probs, 2.0 * values)[0]
        assert doubled == pytest.approx(2.0 * val, abs=1e-9)
        # convexity (subadditivity via max-form): rho(v+w) <= rho(v) + rho(w)
        vw = risk.risk_value_and_density(spec, probs, values + other)[0]
        ow = risk.risk_value_and_density(spec, probs, other)[0]
        assert vw <= val + ow + 1e-9
        # dominates the expectation (1 lies in every supported dual set)
        assert val >= float(probs @ values) - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_polytope_cap_rows_match_analytic_cvar(seed):
    probs, values = _random_case(seed)
    n = probs.shape[0]
    eps = 0.4
    rows = [(np.eye(n)[j], 1.0 / eps) for j in range(n)]
    poly_val, _ = risk.risk_value_and_density(risk.RiskSpec(kind="polytope", rows=rows),
                                              probs, values)
    cvar_val, _ = risk.risk_value_and_density(risk.RiskSpec(kind="cvar", epsilon=eps),
                                              probs, values)
    assert poly_val == pytest.approx(cvar_val, abs=1e-8)
