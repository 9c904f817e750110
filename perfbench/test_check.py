"""The independent answer check accepts the right answer and rejects the
wrong ones a run can produce.  Run with ``python3 -m pytest perfbench``."""

import numpy as np
import pytest

from check import EPS, WINDOW, BlockJacobi, Reference, laplacian, manufactured, strips

N, PEERS, OVERLAP = 32, 4, 4


@pytest.fixture(scope="module")
def ref():
    return Reference.build(N, PEERS, OVERLAP)


def fragments(x):
    return {task: (start, x[start:end].copy())
            for task, (start, end) in enumerate(strips(N, PEERS))}


def test_accepts_the_spsolve_answer(ref):
    assert ref.check(True, fragments(ref.x_star)) == []


def test_accepts_an_answer_stopped_by_the_runtime_rule(ref):
    """Synchronous sweeps stopped once the relative update stayed below
    EPS for WINDOW sweeps: the derived tolerance must accept it."""
    A = laplacian(N)
    _, f = manufactured(N)
    sweep = BlockJacobi(A, N, PEERS, OVERLAP)
    x, quiet = np.zeros(N * N), 0
    while quiet < WINDOW:
        new = sweep.sweep(x, f)
        quiet = quiet + 1 if np.max(np.abs(new - x)) < EPS * np.max(np.abs(new)) else 0
        x = new
    assert ref.check(True, fragments(x)) == []


def test_rejects_a_zeroed_strip(ref):
    x = ref.x_star.copy()
    start, end = strips(N, PEERS)[1]
    x[start:end] = 0.0
    assert any("error vs spsolve" in p for p in ref.check(True, fragments(x)))


def test_rejects_a_stale_strip(ref):
    """One strip left at an early iterate while the others converged."""
    A = laplacian(N)
    _, f = manufactured(N)
    sweep = BlockJacobi(A, N, PEERS, OVERLAP)
    early = np.zeros(N * N)
    for _ in range(3):
        early = sweep.sweep(early, f)
    x = ref.x_star.copy()
    start, end = strips(N, PEERS)[2]
    x[start:end] = early[start:end]
    assert any("error vs spsolve" in p for p in ref.check(True, fragments(x)))


def test_rejects_a_missing_fragment(ref):
    frags = fragments(ref.x_star)
    frags[3] = None
    assert ref.check(True, frags) == ["fragment of task 3 missing"]
    del frags[3]
    assert ref.check(True, frags) == ["fragment of task 3 missing"]


def test_rejects_overlapping_fragments(ref):
    frags = fragments(ref.x_star)
    frags[1] = frags[0]
    assert ref.check(True, frags) == ["fragments do not tile the grid exactly once"]


def test_rejects_a_run_that_did_not_converge(ref):
    assert ref.check(False, fragments(ref.x_star)) == [
        "did not converge within its horizon"]


def test_tolerance_comes_from_the_stopping_rule_and_contraction(ref):
    assert 0.0 < ref.rho < 1.0
    assert ref.tol == (WINDOW + 1) * EPS / (1.0 - ref.rho)
    # the contraction is the sweep's: the error of many sweeps shrinks by rho
    sweep = BlockJacobi(laplacian(N), N, PEERS, OVERLAP)
    e = np.ones(N * N)
    for _ in range(200):
        e = sweep.sweep(e)
        e /= np.max(np.abs(e))
    ratio = np.max(np.abs(sweep.sweep(e)))
    assert ratio == pytest.approx(ref.rho, rel=1e-3)


@pytest.mark.parametrize("n", [16, 40, 64])
def test_spsolve_answer_meets_the_discretization_bound(n):
    ref = Reference.build(n, 4, 1)
    assert ref.errors(ref.x_star)[1] <= ref.disc_bound
