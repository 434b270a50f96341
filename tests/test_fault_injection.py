"""Every suite notices a broken operator context.

Two faults are injected into DunklContext, one at a time: the difference
quotient of the first active root is doubled, or that root is dropped
from the operators while the Bessel index still counts it.  Under each
fault every registered suite must report a failing case or raise
InvariantError; a suite that passes checks nothing the fault touches.

On a sign-flip (z2) system a one-root fault only changes that root's
multiplicity, under which the purely operator-side identities still
hold, so the exact suites run on the a:d=3 default run.  The pizzetti and
transforms suites have only z2 default runs, and read the Bessel index,
so they run on their first run with a nonzero multiplicity.
"""

import pytest

import dunklcalc.verify as verify
from dunklcalc.operators import DunklContext
from dunklcalc.poly import InvariantError

EXACT_RUN = ("a:d=3", ("1",))


def _double_first_quotient(monkeypatch):
    quotient = DunklContext._quotient

    def doubled(ctx, root_index, e):
        value = quotient(ctx, root_index, e)
        return value.scale(2) if root_index == ctx._active[0] else value

    monkeypatch.setattr(DunklContext, "_quotient", doubled)


def _drop_first_root(monkeypatch):
    init = DunklContext.__init__

    def dropped(ctx, rs):
        init(ctx, rs)
        if ctx._active:
            ctx._active.pop(0)

    monkeypatch.setattr(DunklContext, "__init__", dropped)


def _fault_run(suite):
    runs = verify.default_runs(suite)
    if runs is verify.EXACT_DEFAULT_RUNS:
        assert EXACT_RUN in runs
        return EXACT_RUN
    return next(run for run in runs if any(k != "0" for k in run[1]))


@pytest.mark.parametrize("fault", [_double_first_quotient, _drop_first_root])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_suite_fails_under_an_injected_fault(monkeypatch, fault, suite):
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    fault(monkeypatch)
    system, kappas = _fault_run(suite)
    try:
        report = verify.SUITES[suite](system, kappas)
    except InvariantError:
        return
    failing = [case.name for case in report.cases if case.status == "fail"]
    assert failing, f"{suite} on {system} {kappas} passed under {fault.__name__}"


def test_the_fault_runs_pass_without_a_fault():
    for suite in verify.SUITES:
        system, kappas = _fault_run(suite)
        assert verify.SUITES[suite](system, kappas).passed, suite
