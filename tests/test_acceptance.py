"""Acceptance gate: every verification criterion at its pinned bounds.

Runs the same registry the ``majorana-pt verify`` command uses and prints
one PASS/FAIL line per criterion (run pytest with ``-s`` to see them all).
"""

import dataclasses
import re
import time
from collections import Counter

import numpy as np
import pytest

from majorana_pt import verify

_RESULTS = {}


def _run(criterion_id):
    if criterion_id not in _RESULTS:
        _RESULTS[criterion_id] = verify._evaluate(criterion_id, {})
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
    solved = {}
    census = verify._evaluate("mode-census", solved)
    pt = verify._evaluate("pseudo-hermiticity-pt", solved)
    assert len(solved) == len(verify.GRID_N) * 6

    def no_repeat(*args, **kwargs):
        raise AssertionError("grid point built, solved or analysed twice")

    for name in ("eig", "chain_eigensystem", "chain_eigensystems", "classify_modes",
                 "classify_stack", "coalesced_eigenvalues"):
        monkeypatch.setattr(verify.spectral, name, no_repeat)
    monkeypatch.setattr(verify.model, "build_ssh", no_repeat)
    gap = verify._evaluate("scattering-gap-bound", solved)
    evanescent = verify._evaluate("evanescent-asymptotics", solved)
    assert census.passed and pt.passed and gap.passed and evanescent.passed
    assert gap.detail == _run("scattering-gap-bound").detail
    assert evanescent.detail == _run("evanescent-asymptotics").detail


def test_suite_solves_the_shared_grid_once(monkeypatch):
    # one miss per chain length, each filling that length's six grid points
    misses = []
    original = verify._grid_chain

    def counted(n, mu, shared):
        if (n, mu) not in shared:
            before = set(shared)
            chain = original(n, mu, shared)
            misses.append((n, set(shared) - before))
            return chain
        return original(n, mu, shared)

    monkeypatch.setattr(verify, "_grid_chain", counted)
    results = verify.run_criteria()
    assert all(r.passed for r in results)
    assert sorted(n for n, _ in misses) == verify.GRID_N
    mus = set(verify.GRID_MU_TOPO + verify.GRID_MU_TRIV)
    assert all(added == {(n, mu) for mu in mus} for n, added in misses)
    points = [point for _, added in misses for point in added]
    assert len(points) == len(set(points)) == len(verify.GRID_N) * 6


def test_suite_solves_each_distinct_matrix_once(monkeypatch):
    solved = []
    stacks = []
    original_eig = verify.spectral.eig
    original_chains = verify.spectral.chain_eigensystems

    def counted_eig(h, *args, **kwargs):
        solved.append(("eig", h.tobytes()))
        return original_eig(h, *args, **kwargs)

    def counted_chains(n, mus, gammas, *args, **kwargs):
        stacks.append(n)
        solved.extend(("chain", verify.model.build_ssh(n, mu, gamma).tobytes())
                      for mu, gamma in zip(mus, gammas))
        return original_chains(n, mus, gammas, *args, **kwargs)

    monkeypatch.setattr(verify.spectral, "eig", counted_eig)
    monkeypatch.setattr(verify.spectral, "chain_eigensystems", counted_chains)
    verify.run_criteria()
    # 78 grid chains from one stacked real solve per length; the two timed
    # six-site solves through the general eig, whose chains are the grid
    # points (6, 2.0) and (6, 0.5); the rings take np.linalg.eigvals alone
    assert sorted(stacks) == verify.GRID_N
    paths = Counter(path for path, _ in solved)
    assert paths == {"chain": 78, "eig": 2}
    counts = Counter(h for _, h in solved)
    assert len(counts) == 78 and max(counts.values()) == 2
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


def test_suite_analyses_each_chain_once(monkeypatch):
    calls = Counter()
    rows = Counter()
    stacked = {"chain_eigensystems": 1, "classify_stack": 0}
    for module, name in [
        (verify.spectral, "eig"), (verify.spectral, "chain_eigensystem"),
        (verify.spectral, "chain_eigensystems"), (verify.spectral, "classify_modes"),
        (verify.spectral, "classify_stack"), (verify.spectral, "coalesced_eigenvalues"),
        (verify.spectral, "detect_coalescence"),
        (verify.bethe, "solve_evanescent_pair"),
    ]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            if _name in stacked:
                rows[_name] += len(args[stacked[_name]])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert all(r.passed for r in verify.run_criteria())
    # 78 grid chains in one stacked pass per length (13), each chain solved
    # and classified once: no classify_modes call; the two six-site chains
    # through eig; the evanescent pair is solved once per
    # closed-form chain at mu = 0.5.  detect_coalescence serves the coalesced
    # six-site spectra (2) and the two timed six-site solves; the rings
    # coalesce their np.linalg.eigvals levels themselves
    assert calls == {"chain_eigensystems": 13, "classify_stack": 13,
                     "eig": 2, "coalesced_eigenvalues": 2, "detect_coalescence": 4,
                     "solve_evanescent_pair": 5}
    assert rows == {name: 78 for name in stacked}


def test_grid_arrays_equal_the_classified_records():
    # every grid point of the stacked pass as classify_modes classifies it
    # alone: codes, classes, census, pair, its <eta|psi>, masks, and the
    # coalesced spectrum bit for bit with the pair at complex(np.mean(...))
    # of its raw levels
    modes = verify.spectral.ModeClass
    solved = {}
    for n in verify.GRID_N:
        for mu in verify.GRID_MU_TOPO + verify.GRID_MU_TRIV:
            gamma, got = verify._grid_chain(n, mu, solved)
            alone = verify.spectral.classify_modes(got.es, mu, gamma)
            classes = alone.mode_classes
            pair = [i for i, c in enumerate(classes) if c is modes.ZERO_COALESCING]
            assert got.es is alone.es
            assert got.codes.tobytes() == alone.codes.tobytes()
            assert got.mode_classes == classes
            assert got.census == alone.census
            assert got.pair == alone.pair == pair and len(pair) == 2
            assert got.biorth == alone.biorth
            assert got.real.tolist() == [c is modes.REAL_SCATTERING for c in classes]
            assert got.imaginary.tolist() == [c is modes.IMAGINARY_EVANESCENT for c in classes]
            expected = got.es.eigenvalues.copy()
            expected[pair] = complex(np.mean(got.es.eigenvalues[pair]))
            assert got.coalesced.tobytes() == expected.tobytes()
            assert got.coalesced.tobytes() == alone.coalesced.tobytes()


def test_classification_failure_fails_only_the_criteria_that_classify(monkeypatch):
    monkeypatch.setattr(verify.spectral, "CLASS_TOLERANCE", 1e-20)
    results = verify.run_criteria()
    failed = {r.criterion_id for r in results if not r.passed}
    # block-decomposition and pseudo-hermiticity-pt read the grid's coalesced
    # spectra from the chains' classifications
    assert failed == {"mode-census", "bethe-spectrum-equivalence",
                      "evanescent-asymptotics", "scattering-gap-bound",
                      "block-decomposition", "pseudo-hermiticity-pt"}
    assert all(r.detail.startswith("raised ClassificationError: ")
               for r in results if not r.passed)


def test_a_refused_grid_chain_fails_alone(monkeypatch):
    # at n = 6 the third level nearest zero lies 1.7e7 times farther out than
    # the pair at mu = 0.8, and over 1e8 times at the other grid couplings
    monkeypatch.setattr(verify.spectral, "PAIR_SEPARATION", 5e7)
    solved = {}
    for _ in range(2):
        with pytest.raises(verify.spectral.ClassificationError, match="no isolated zero pair"):
            verify._grid_chain(6, 0.8, solved)
    assert len(solved) == 6
    for mu in verify.GRID_MU_TOPO + [0.3, 0.5]:
        assert verify._grid_chain(6, mu, solved)[1].census.n_EP == 1


def test_mode_census_confirms_the_pair_from_the_eigenvectors(monkeypatch):
    original = verify.spectral.chain_eigensystems

    def orthonormal(n, mus, gammas):
        return [dataclasses.replace(es, vectors=np.eye(n, dtype=complex))
                for es in original(n, mus, gammas)]

    monkeypatch.setattr(verify.spectral, "chain_eigensystems", orthonormal)
    result = verify._evaluate("mode-census", {})
    assert not result.passed
    assert ("(n=6, mu=1.5): eigenvectors along the closed-form zero mode at levels [], "
            "not the pair [") in result.detail


def _replaced_columns(monkeypatch, replace):
    """Route the grid's eigensystems through ``replace(vectors, pair)``,
    which overwrites a copy of each chain's real-form vectors in place."""
    original = verify.spectral.chain_eigensystems

    def replaced(n, mus, gammas):
        systems = []
        for es, mu, gamma in zip(original(n, mus, gammas), mus, gammas):
            vectors = es.vectors.copy()
            replace(vectors, verify.spectral.classify_modes(es, mu, gamma).pair)
            systems.append(dataclasses.replace(es, vectors=vectors))
        return systems

    monkeypatch.setattr(verify.spectral, "chain_eigensystems", replaced)


def test_mode_census_checks_the_pair_against_the_closed_form(monkeypatch):
    # both pair columns become one site vector of the real form: parallel to
    # each other, as on the product route, but not to the closed-form zero mode
    def one_site(vectors, pair):
        vectors[:, pair] = np.eye(len(vectors))[:, [0]]

    _replaced_columns(monkeypatch, one_site)
    result = verify._evaluate("mode-census", {})
    assert not result.passed
    assert ("(n=6, mu=1.5): eigenvectors along the closed-form zero mode at levels [], "
            "not the pair [") in result.detail


def test_mode_census_refuses_parallel_levels_outside_the_pair(monkeypatch):
    def duplicate(vectors, pair):
        vectors[:, 1] = vectors[:, 0]

    _replaced_columns(monkeypatch, duplicate)
    result = verify._evaluate("mode-census", {})
    assert not result.passed
    assert "(n=6, mu=1.5): levels [0, 1] outside the pair have parallel eigenvectors" in result.detail


def _spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


@pytest.mark.parametrize("stall,within_budget", [(time.sleep, True), (_spin, False)])
def test_six_site_budget_counts_thread_time(monkeypatch, stall, within_budget):
    original = verify.spectral.eig

    def stalled(*args, **kwargs):
        stall(0.020)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify.spectral, "eig", stalled)
    result = verify._evaluate("six-site-mu2", {})
    budget = result.detail.split("; ")[-1]
    assert re.fullmatch(r"runtime [0-9.]+ ms < 10 ms", budget)
    assert (float(budget.split()[1]) < 10) is within_budget
    assert result.passed is within_budget
