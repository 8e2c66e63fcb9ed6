"""Acceptance gate: every verification criterion at its pinned tolerance.

Runs the same registry the ``majorana-pt verify`` command uses and prints
one PASS/FAIL line per criterion (run pytest with ``-s`` to see them all).
"""

import re
import time
from collections import Counter

import pytest

from majorana_pt import verify

_RESULTS = {}


def _run(criterion_id):
    if criterion_id not in _RESULTS:
        fn = dict(verify.CRITERIA)[criterion_id]
        _RESULTS[criterion_id] = fn(verify.spectral.DEFAULT_TOLERANCES)
    return _RESULTS[criterion_id]


@pytest.mark.parametrize("criterion_id", [cid for cid, _ in verify.CRITERIA])
def test_criterion(criterion_id):
    result = _run(criterion_id)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.criterion_id}: {result.detail}")
    assert result.passed, f"{result.criterion_id}: {result.detail}"


def test_full_suite_runs_quickly():
    started = time.perf_counter()
    results = verify.run_criteria()
    elapsed = time.perf_counter() - started
    assert all(r.passed for r in results)
    assert elapsed < 60.0


def test_grid_criteria_share_solved_eigensystems(monkeypatch):
    tolerances = verify.spectral.DEFAULT_TOLERANCES
    solved = {}
    gap = verify.scattering_gap_bound(tolerances, solved)
    assert len(solved) == len(verify.GRID_N) * 6

    def no_solve(*args, **kwargs):
        raise AssertionError("grid point built or solved twice")

    monkeypatch.setattr(verify.spectral, "eig", no_solve)
    monkeypatch.setattr(verify.model, "build_ssh", no_solve)
    pt = verify.pseudo_hermiticity_pt(tolerances, solved)
    assert gap.passed and pt.passed
    assert pt.detail == _run("pseudo-hermiticity-pt").detail


def test_shared_grid_is_keyed_on_the_residual_tolerance():
    solved = {}
    loose = verify.spectral.DEFAULT_TOLERANCES
    tight = verify.spectral.Tolerances(residual=loose.residual / 10)
    assert verify.scattering_gap_bound(loose, solved).passed
    assert verify.scattering_gap_bound(tight, solved).passed
    assert len(solved) == 2 * len(verify.GRID_N) * 6
    assert {key[2] for key in solved} == {loose.residual, tight.residual}


def test_suite_solves_the_shared_grid_once(monkeypatch):
    solved = []
    original = verify._grid_eig

    def counted(n, mu, tolerances, shared):
        if (n, mu, tolerances.residual) not in shared:
            solved.append((n, mu))
        return original(n, mu, tolerances, shared)

    monkeypatch.setattr(verify, "_grid_eig", counted)
    results = verify.run_criteria()
    assert all(r.passed for r in results)
    assert len(solved) == len(set(solved)) == len(verify.GRID_N) * 6


def test_suite_solves_each_distinct_matrix_once(monkeypatch):
    solved = []
    original = verify.spectral.eig

    def counted(h, *args, **kwargs):
        solved.append(h.tobytes())
        return original(h, *args, **kwargs)

    monkeypatch.setattr(verify.spectral, "eig", counted)
    verify.run_criteria()
    # 78 grid chains and 6 rings, plus the two timed six-site solves, whose
    # chains are the grid points (6, 2.0) and (6, 0.5)
    counts = Counter(solved)
    assert len(solved) == 86 and max(counts.values()) == 2
    assert {h for h, k in counts.items() if k == 2} == {
        verify.model.build_ssh(6, 2.0, 0.25).tobytes(),
        verify.model.build_ssh(6, 0.5, 4.0).tobytes(),
    }


def _without_runtimes(detail):
    return re.sub(r"runtime [0-9.]+ m?s", "runtime", detail)


def test_shared_run_gives_the_details_of_criteria_run_alone():
    for shared in verify.run_criteria():
        alone = _run(shared.criterion_id)
        assert _without_runtimes(shared.detail) == _without_runtimes(alone.detail)
