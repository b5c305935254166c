"""The acceptance suite: every shipped guarantee, one test per criterion.

Each test runs its criterion at the tolerances fixed in
modelspace.acceptance and prints one pass/fail line (shown with -s, or
in the failure report).
"""

import pytest

from modelspace import acceptance as ac
from modelspace import connections as cn


@pytest.mark.parametrize("criterion", ac.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(seed=0)
    status = "PASS" if result["passed"] else "FAIL"
    line = f"[{status}] {result['name']}: {result['detail']} ({result['seconds']:.1f}s)"
    print(line)
    assert result["passed"], line


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
