"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them data
live; the same checks back the CLI's verify-all command).
"""

import json

import pytest

from teichkit import boundary, solver, verification


def test_criteria_are_registered_in_number_order():
    assert [fn.__name__ for fn in verification.ALL_CRITERIA] == [
        "check_1_bers_closed_form", "check_2_mp_norm",
        "check_3_douglas_lemma6", "check_4_ahlfors_weill",
        "check_5_chain_rule", "check_6_solver_residual", "check_7_welding",
        "check_8_characterization", "check_9_roundtrip",
        "check_10_bilipschitz", "check_11_beurling"]


@pytest.mark.parametrize("check", verification.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in verification.ALL_CRITERIA])
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.criterion == int(check.__name__.split("_")[1])
    assert result.elapsed > 0
    assert result.passed, json.dumps(result.details, default=str, indent=1)


def test_roundtrip_check_reads_the_welding_check_welded(monkeypatch):
    # criterion 9 welds the coefficient and N that criterion 7 welds just
    # before it, so in one process it is served the kept welding whole:
    # no plane or half-plane solve and no Newton inversion
    monkeypatch.setattr(boundary, "_last_welding", (None, None))
    assert verification.check_7_welding().passed
    calls, solve, invert = [], solver._solve, solver.invert
    monkeypatch.setattr(solver, "_solve", lambda *a, **kw: calls.append(
        "solve") or solve(*a, **kw))
    for mod in (solver, boundary):
        monkeypatch.setattr(mod, "invert",
                            lambda f: calls.append("invert") or invert(f))
    assert verification.check_9_roundtrip().passed
    assert calls == []
