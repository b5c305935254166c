"""The acceptance suite: every shipped guarantee, one test per criterion.

Each test runs its criterion at the tolerances fixed in
modelspace.acceptance and prints one pass/fail line (shown with -s, or
in the failure report).
"""

import numpy as np
import pytest

from modelspace import acceptance as ac
from modelspace import connections as cn
from modelspace import duality as du
from modelspace import pogorelov as pg
from modelspace import projective as pj
from modelspace import surfaces as sf
from modelspace import transition as tr


INF = float("inf")

# the contract: each criterion's checks in order, as (text before the
# value, lo, hi); loosening or dropping a bound fails test_criterion
BOUNDS = {
    "criterion_1_distance_consistency": [("sup |d_cr - d_closed| = ", -INF, 1e-9),
                                         ("", -INF, 5.0)],
    "criterion_2_duality_round_trips": [("double-dual gap ", -INF, 1e-6),
                                        ("smooth duals ", -INF, 1e-9),
                                        ("truncation ", -INF, 1e-9)],
    "criterion_3_one_d_transition": [("sup gap to the translation ", -INF, 1e-6)],
    "criterion_4_three_d_transition": [("", -INF, 0), ("duality diagram gap ", -INF, 1e-7)],
    "criterion_5_co_connection": [("axiom residuals ", -INF, 1e-6),
                                  ("line residual ", -INF, 1e-6),
                                  ("control ", 1e-2, INF)],
    "criterion_6_connection_transition": [("connection gap ", -INF, 1e-6),
                                          ("volume gap ", -INF, 1e-6)],
    "criterion_7_pogorelov": [("src ", -INF, 1e-7), ("image ", -INF, 1e-6),
                              ("eigen ", -INF, 1e-9), ("weyl ", -INF, 1e-6)],
    "criterion_8_surfaces": [("canonical ", -INF, 1e-9), ("h2-ratio ", 3.5, 4.5),
                             ("support-gap ", -INF, 1e-4), ("involution ", -INF, 1e-8),
                             ("K-dictionary ", -INF, 1e-6), ("transition ", -INF, 1e-5),
                             ("R2 ", 0.99, INF)],
    "criterion_9_rigidity": [("src ", -INF, 1e-7), ("dst ", -INF, 1e-6),
                             ("triviality fit ", -INF, 1e-6)],
}


@pytest.mark.parametrize("criterion", ac.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(seed=0)
    status = "PASS" if result["passed"] else "FAIL"
    line = f"[{status}] {result['name']}: {result['detail']} ({result['seconds']:.1f}s)"
    print(line)
    assert result["passed"], line
    bounds = BOUNDS[criterion.__name__]
    assert len(result["checks"]) == len(bounds)
    for c, (prefix, lo, hi) in zip(result["checks"], bounds):
        assert c["text"].startswith(prefix) and (c["lo"], c["hi"]) == (lo, hi), c


def test_check_bounds_are_inclusive_and_nan_fails():
    assert ac.check("{}", 1e-6, hi=1e-6)["passed"]
    assert ac.check("{}", 3.5, lo=3.5, hi=4.5)["passed"]
    assert not ac.check("{}", 4.5000001, lo=3.5, hi=4.5)["passed"]
    nan = ac.check("gap {:.2e}", float("nan"), hi=1.0)
    assert not nan["passed"] and nan["text"] == "gap nan"


def test_criterion_6_makes_one_check_per_transition(monkeypatch):
    # the 20 families of a transition are one stack: 4 connection and 4
    # volume checks, each returning 20 gaps
    gaps = {"connection_transition_check": [], "volume_transition_check": []}
    for name, seen in gaps.items():
        def counted(*args, _real=getattr(cn, name), _seen=seen):
            _seen.append(_real(*args))
            return _seen[-1]

        monkeypatch.setattr(cn, name, counted)
    assert ac.criterion_6_connection_transition(seed=0)["passed"]
    assert [[g.shape for g in seen] for seen in gaps.values()] == [[(20,)] * 4] * 2


def test_nan_residual_fails_criterion_5(monkeypatch):
    # Python's max(worst, nan) returns worst; the criterion must not
    calls = []
    real = cn.symmetry_residual

    def nan_on_second_call(*args):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(*args)

    monkeypatch.setattr(cn, "symmetry_residual", nan_on_second_call)
    result = ac.criterion_5_co_connection(seed=0)
    assert len(calls) > 2
    assert not result["passed"] and "axiom residuals nan" in result["detail"]


def _nan_on_second_call(monkeypatch, module, name, poison):
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return poison(out) if len(calls) == 2 else out

    monkeypatch.setattr(module, name, wrapped)
    return calls


NAN = float("nan")


def _nan_B(data):
    return sf.EmbeddingData(data.space_name, data.U, data.V, data.du, data.dv, data.I,
                            data.II, np.full_like(data.B, NAN), data.III)


def _nan_transition(out):
    # a NaN behind a finite gap and in the second rate: Python's max/min
    # would keep the finite values
    gaps = dict(out["gaps"])
    gaps[list(gaps)[-1]] = NAN
    return {**out, "gaps": gaps, "rate_r2": NAN}


NAN_CASES = {
    "criterion-1": (ac.criterion_1_distance_consistency,
                    [(pj, "projective_distance_batch", lambda out: (out[0] * NAN, out[1]))],
                    ["d_closed| = nan"]),
    "criterion-2": (ac.criterion_2_duality_round_trips,
                    [(du, "truncation_dual", lambda apex: apex * NAN)],
                    ["truncation nan"]),
    "criterion-3": (ac.criterion_3_one_d_transition,
                    [(tr, "one_d_limit", lambda out: (out[0] * NAN, out[1]))],
                    ["translation nan"]),
    "criterion-4": (ac.criterion_4_three_d_transition,
                    [(tr, "duality_transition_check", lambda gap: NAN),
                     (tr, "conjugate_limit", lambda out: (out[0] * NAN, out[1]))],
                    ["125/1000 pattern failures", "diagram gap nan"]),
    "criterion-6": (ac.criterion_6_connection_transition,
                    [(cn, "connection_transition_check", lambda gap: NAN),
                     (cn, "volume_transition_check", lambda gap: NAN)],
                    ["connection gap nan", "volume gap nan"]),
    "criterion-7": (ac.criterion_7_pogorelov,
                    [(pg, "killing_residual", lambda res: NAN)],
                    ["image nan"]),
    "criterion-8": (ac.criterion_8_surfaces,
                    [(sf, "embedding_data", _nan_B),
                     (sf, "dual_embedding_data", _nan_B),
                     (sf, "surface_transition", _nan_transition)],
                    ["canonical nan", "involution nan", "transition nan", "R2 nan"]),
    "criterion-9": (ac.criterion_9_rigidity,
                    [(pg, "deformation_residual", lambda res: NAN)],
                    ["dst nan"]),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_residual_fails_criterion(monkeypatch, case):
    # every accumulator propagates a NaN arriving after a finite value
    criterion, patches, expected = NAN_CASES[case]
    counters = [_nan_on_second_call(monkeypatch, *patch) for patch in patches]
    with np.errstate(invalid="ignore"):
        result = criterion(seed=0)
    assert all(len(calls) >= 2 for calls in counters)
    assert not result["passed"]
    for text in expected:
        assert text in result["detail"], result["detail"]
