import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from majorana_pt import (
    ClassificationError,
    EigenSystem,
    ModelParams,
    ModeClass,
    apply_ssh,
    build_majorana_ring,
    build_ssh,
    build_ssh_real,
    chain_census,
    chain_eigensystem,
    chain_eigensystems,
    classify_modes,
    classify_stack,
    coalesced_eigenvalues,
    detect_coalescence,
    eig,
    gamma_ep,
    match_multisets,
    on_locus,
    parity_matrix,
    pseudo_hermiticity_check,
    zero_mode_amplitudes,
)
from majorana_pt import spectral
from majorana_pt.model import MAX_DIM
from majorana_pt.spectral import (
    CLASS_TOLERANCE, EP_TOLERANCE, RESIDUAL_TOLERANCE, _canonical_phase,
)
from majorana_pt.verify import GRID_MU_TOPO, GRID_MU_TRIV, GRID_N

M1_NONZERO = [
    np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
    -np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
    np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
    -np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
]
M2_EXACT = [
    0.0,
    0.0,
    0.5j * np.sqrt(2 * np.sqrt(238) + 25),
    -0.5j * np.sqrt(2 * np.sqrt(238) + 25),
    0.5 * np.sqrt(2 * np.sqrt(238) - 25),
    -0.5 * np.sqrt(2 * np.sqrt(238) - 25),
]


def _ring(n, mu):
    return build_majorana_ring(ModelParams(n=n, mu=mu, gamma=gamma_ep(mu, n)))


def _two_solve_eig(a):
    """Reference: the former eig, two solves paired by a per-row greedy loop."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    values, right = np.linalg.eig(a)
    left_values, left = np.linalg.eig(a.conj().T)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    right = right[:, order]
    right = right / np.linalg.norm(right, axis=0)
    targets = values.conj()
    used = np.zeros(n, dtype=bool)
    assignment = np.empty(n, dtype=int)
    for i in range(n):
        dist = np.abs(left_values - targets[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        assignment[i] = j
        used[j] = True
    left = left[:, assignment]
    left_values = left_values[assignment]
    left = left / np.linalg.norm(left, axis=0)
    residuals = np.max(np.abs(a @ right - right * values[None, :]), axis=0)
    left_residuals = np.max(
        np.abs(a.conj().T @ left - left * left_values[None, :]), axis=0
    )
    biorth = np.einsum("ij,ij->j", left.conj(), right)
    return values, right, left, residuals, left_residuals, biorth


def _double_loop_coalescence(es, ep_tolerance=EP_TOLERANCE):
    """Reference: the former O(N^2) pair loop over the full Gram matrix."""
    n = es.dim
    scale = es.scale
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    overlaps = np.abs(es.right.conj().T @ es.right)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(es.eigenvalues[i] - es.eigenvalues[j]) > ep_tolerance * scale:
                continue
            if overlaps[i, j] < 1.0 - ep_tolerance:
                continue
            parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        if len(members) < 2:
            continue
        idx = tuple(sorted(members))
        u_r, _, _ = np.linalg.svd(es.right[:, idx], full_matrices=False)
        u_l, _, _ = np.linalg.svd(es.left[:, idx], full_matrices=False)
        v_coal = _canonical_phase(u_r[:, 0])
        w_coal = _canonical_phase(u_l[:, 0])
        biorth = complex(np.vdot(w_coal, v_coal))
        if abs(biorth) > ep_tolerance:
            continue
        centroid = complex(np.mean(es.eigenvalues[list(idx)]))
        clusters.append((idx, centroid, v_coal, w_coal, biorth))
    clusters.sort(key=lambda c: (c[1].real, c[1].imag))
    return clusters


def _loop_match_multisets(a, b):
    """Reference: the former per-value greedy loop over a shrinking list."""
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = [complex(z) for z in b]
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    worst = 0.0
    remaining = b[:]
    for z in a:
        dist = [abs(z - w) for w in remaining]
        j = int(np.argmin(dist))
        worst = max(worst, dist[j])
        remaining.pop(j)
    return worst


def _planted_pair(n, split, parallel):
    """Real symmetric background plus one planted near-degenerate 2 x 2 block.

    The background levels lie near 1..n-2, away from the pair. With
    ``parallel`` the block is a Jordan block perturbed by ``split**2``, whose
    eigenvalues split by ``2 split`` with nearly parallel eigenvectors;
    otherwise it is ``diag(0, split)``, a close pair with orthogonal
    eigenvectors.
    """
    g = np.random.default_rng(0).normal(size=(n - 2, n - 2))
    background = np.diag(np.arange(1.0, n - 1)) + 0.02 * (g + g.T)
    block = np.array([[0.0, 1.0], [split**2, 0.0]]) if parallel else np.diag([0.0, split])
    a = np.zeros((n, n), dtype=complex)
    a[:2, :2] = block
    a[2:, 2:] = background
    return a


class TestEig:
    def test_diagonal_example(self):
        es = eig(np.diag([1.0, 2.0j]))
        # sorted by (Re, Im): 2i before 1
        assert np.allclose(es.eigenvalues, [2.0j, 1.0])
        assert np.allclose(np.linalg.norm(es.right, axis=0), 1.0)
        assert np.allclose(np.abs(es.biorth_norms), 1.0)

    def test_six_site_exact_spectra(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        values = coalesced_eigenvalues(es)
        assert match_multisets(values, [0.0, 0.0] + M1_NONZERO) < 1e-10
        es2 = eig(build_ssh(6, 0.5, 4.0))
        assert match_multisets(coalesced_eigenvalues(es2), M2_EXACT) < 1e-10

    @pytest.mark.parametrize("n,mu", [(6, 2.0), (14, 0.5), (30, 1.5), (30, 0.3)])
    def test_residual_invariant(self, n, mu):
        h = build_ssh(n, mu, gamma_ep(mu, n))
        es = eig(h)
        bound = 1e-11 * es.norm_inf
        assert float(np.max(es.residuals)) <= bound
        assert float(np.max(es.left_residuals)) <= bound

    def test_sorted_by_re_then_im(self):
        es = eig(build_ssh(6, 0.5, 4.0))
        keys = [(z.real, z.imag) for z in es.eigenvalues]
        assert keys == sorted(keys)

    def test_left_vectors_solve_adjoint_problem(self):
        h = build_ssh(10, 1.5, gamma_ep(1.5, 10))
        es = eig(h)
        for i in range(es.dim):
            w = es.left[:, i]
            nu = np.vdot(w, h.conj().T @ w)  # Rayleigh quotient
            assert np.max(np.abs(h.conj().T @ w - nu * w)) < 1e-10 * es.norm_inf

    def test_solves_matrix_and_adjoint_with_numpy(self, monkeypatch):
        calls = []

        def counted(name, solver):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solver(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", counted("numpy", np.linalg.eig))
        monkeypatch.setattr(scipy.linalg, "eig", counted("scipy", scipy.linalg.eig))
        eig(build_ssh(10, 1.5, gamma_ep(1.5, 10)))
        assert calls == ["numpy", "numpy"]
        calls.clear()
        # a ring's left vectors are lifted from its chain's, not a second solve
        eig(_ring(6, 2.0))
        assert calls == ["numpy"]

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_ring_left_vectors_solve_adjoint_problem(self, n, mu):
        h = _ring(n, mu)
        assert not np.array_equal(h, h.T)
        es = eig(h)
        bound = RESIDUAL_TOLERANCE * es.norm_inf
        adjoint = h.conj().T
        for i in range(es.dim):
            w = es.left[:, i]
            nu = np.vdot(w, adjoint @ w)  # the paired left eigenvalue
            assert np.max(np.abs(adjoint @ w - nu * w)) <= bound
            # off conj(eigenvalue) by at most the splitting at the EP
            assert abs(nu - es.eigenvalues[i].conjugate()) <= 1e-6 * es.scale
            assert abs(np.linalg.norm(w) - 1.0) < 1e-14
        assert float(np.max(es.left_residuals)) <= bound
        assert float(np.max(es.residuals)) <= bound

    @pytest.mark.parametrize(
        "matrix",
        [build_ssh(n, mu, gamma_ep(mu, n))
         for n, mu in [(6, 2.0), (6, 0.5), (14, 0.5), (30, 1.5), (30, 0.3), (64, 2.0)]]
        + [
            np.diag([1.0, 1.0, 2.0j]),
            np.kron(np.eye(2), [[1.0, 0.5j, 0.2], [0.5j, -1.0, 0.3], [0.2, 0.3, 0.4j]]),
        ],
        ids=[f"chain{i}" for i in range(6)] + ["repeated-diagonal", "repeated-block"],
    )
    def test_matches_greedy_pairing_loop(self, matrix):
        es = eig(matrix)
        got = (es.eigenvalues, es.right, es.left, es.residuals,
               es.left_residuals, es.biorth_norms)
        for g, w in zip(got, _two_solve_eig(matrix)):
            assert np.array_equal(g, w)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig(np.array([[np.inf, 0], [0, 1.0]]))
        with pytest.raises(ValueError):
            eig(np.zeros((MAX_DIM + 2, MAX_DIM + 2)))

    def test_empty_matrix(self):
        es = eig(np.zeros((0, 0)))
        assert es.dim == 0 and es.right.shape == es.left.shape == (0, 0)
        assert es.residuals.size == es.left_residuals.size == es.biorth_norms.size == 0
        assert es.scale == 1.0 and es.norm_inf == 0.0
        assert match_multisets(es.eigenvalues, []) == 0.0


def _degenerate_projectors(es, skip):
    """Spectral projector ``V (W^dag V)^-1 W^dag`` of each level outside
    ``skip``, exactly degenerate copies (within 1e-8 scale) merged.

    A ring level is doubly degenerate, so the per-column overlaps depend on
    the basis the solver picks; the projector does not, and its norm is
    ``1 / |biorth|`` for a simple level.
    """
    done, projectors = set(skip), []
    for i in range(es.dim):
        if i in done:
            continue
        c = [j for j in range(es.dim) if j not in done
             and abs(es.eigenvalues[j] - es.eigenvalues[i]) <= 1e-8 * es.scale]
        done.update(c)
        v, w = es.right[:, c], es.left[:, c]
        projectors.append((complex(np.mean(es.eigenvalues[c])),
                           v @ np.linalg.solve(w.conj().T @ v, w.conj().T)))
    return sorted(projectors, key=lambda p: (round(p[0].real, 8), round(p[0].imag, 8)))


def _recorded_solves(monkeypatch):
    """The ``(dtype, shape)`` of each ``np.linalg.eig`` call from here on."""
    calls = []
    original = np.linalg.eig

    def recorded(x):
        calls.append((x.dtype, x.shape))
        return original(x)

    monkeypatch.setattr(np.linalg, "eig", recorded)
    return calls


class TestRealGauge:
    """The ring solved in real arithmetic, from the real form of its chain,
    against the complex two-solve eig: the ring is ``V diag(h_plus^dag,
    h_plus) V^-1`` with ``h_plus`` similar to ``build_ssh_real / 2``."""

    @pytest.mark.parametrize("mu", [0.5, 1.1, 2.0])
    @pytest.mark.parametrize("n", [4, 6, 10, 16, 30, 58])
    def test_ring_gauge_is_exact(self, n, mu):
        # the levels are those of the chain's N x N real solve halved, and
        # their conjugates, bit for bit; chain_eigensystem makes that solve
        # off the product routes (the locus with mu >= 1, or with gamma >=
        # SPLIT_GAMMA)
        for gamma in (gamma_ep(mu, n), 0.3 * gamma_ep(mu, n), 0.0):
            es = eig(build_majorana_ring(ModelParams(n=n, mu=mu, gamma=gamma)))
            m = build_ssh_real(n, mu, gamma)
            chain = np.linalg.eig(m)[0].astype(complex)
            if spectral._sublattice_product(m, n, mu, gamma) is None:
                assert np.array_equal(chain[np.lexsort((chain.imag, chain.real))],
                                      chain_eigensystem(n, mu, gamma).eigenvalues)
            want = np.concatenate([chain / 2, chain.conj() / 2])
            want = want[np.lexsort((want.imag, want.real))]
            assert es.eigenvalues.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "matrix",
        [build_ssh(10, 1.5, gamma_ep(1.5, 10)), build_ssh(14, 0.5, 0.3),
         np.diag([1.0, 1.0, 2.0j]),
         np.kron(np.eye(2), [[1.0, 0.5j, 0.2], [0.5j, -1.0, 0.3], [0.2, 0.3, 0.4j]]),
         np.random.default_rng(3).normal(size=(8, 8, 2)) @ [1.0, 1.0j],
         _planted_pair(12, 1e-3, True), _planted_pair(12, 1e-3, False), np.zeros((8, 8))],
        ids=["chain", "chain-off-locus", "repeated-diagonal", "repeated-block", "random",
             "planted-jordan", "planted-diagonal", "zeros"],
    )
    def test_no_gauge(self, monkeypatch, matrix):
        # not a ring: the matrix and its adjoint, each in complex arithmetic
        calls = _recorded_solves(monkeypatch)
        eig(matrix)
        assert calls == [(np.complex128, matrix.shape)] * 2

    @pytest.mark.parametrize(
        "entry",
        [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (19, 0), (0, 19), (4, 17)],
        ids=lambda entry: f"{entry[0]}-{entry[1]}",
    )
    def test_any_entry_changed_takes_two_complex_solves(self, monkeypatch, entry):
        h = _ring(10, 0.5)
        h[entry] += 1e-3 * (1 + 1j)
        calls = _recorded_solves(monkeypatch)
        es = eig(h)
        assert calls == [(np.complex128, (20, 20))] * 2
        bound = RESIDUAL_TOLERANCE * es.norm_inf
        assert max(np.max(es.residuals), np.max(es.left_residuals)) <= bound

    def test_one_ulp_off_sign_symmetry_takes_two_complex_solves(self, monkeypatch):
        h = _ring(10, 0.5)
        i, k = np.argwhere(np.triu(h != 0, 1))[0]
        h[i, k] *= 1 + np.finfo(float).eps  # one ulp off a ring entry
        assert abs(h[i, k]) != abs(h[k, i]) and (h[i, k] * h[k, i]).imag == 0
        calls = _recorded_solves(monkeypatch)
        es = eig(h)
        assert calls == [(np.complex128, (20, 20))] * 2
        bound = RESIDUAL_TOLERANCE * es.norm_inf
        assert max(np.max(es.residuals), np.max(es.left_residuals)) <= bound
        assert match_multisets(es.eigenvalues, eig(_ring(10, 0.5)).eigenvalues) <= 1e-6 * es.scale

    def test_solve_dtypes(self, monkeypatch):
        # a ring of n sites: one real solve of its n x n chain, nothing else
        calls = _recorded_solves(monkeypatch)
        for n, mu in [(4, 2.0), (6, 2.0), (10, 0.5), (30, 1.1), (58, 0.5)]:
            eig(_ring(n, mu))
            assert calls == [(np.float64, (n, n))]
            calls.clear()
        eig(build_ssh(10, 0.5, gamma_ep(0.5, 10)))
        assert calls == [(np.complex128, (10, 10))] * 2

    @pytest.mark.parametrize("n", [48, 52, 56, 58, 60])
    def test_no_drift_at_mu_half(self, n):
        # twice the ring's levels against the dense complex solve of the
        # chain, each side's split EP pairs at their centroid; the ring's own
        # complex solve missed this by 4.7e-10 at n = 48 and 1.5e-8 at 60
        mu, gamma = 0.5, gamma_ep(0.5, n)
        dense = _at_centroid(np.linalg.eigvals(build_ssh(n, mu, gamma)), 2)
        union = np.concatenate([dense, dense.conj()])
        ring = _at_centroid(2 * eig(_ring(n, mu)).eigenvalues, 4)
        assert _relative_level_gap(ring, union) <= 1e-10

    @pytest.mark.parametrize("mu", [0.5, 1.1, 2.0])
    @pytest.mark.parametrize("n", [6, 10, 16, 30, 58])
    def test_ring_matches_complex_solve(self, n, mu):
        h = _ring(n, mu)
        es = eig(h)
        reference = EigenSystem(*_two_solve_eig(h), es.norm_inf)
        bound = RESIDUAL_TOLERANCE * es.norm_inf
        assert max(np.max(es.residuals), np.max(es.left_residuals)) <= bound
        # away from the EP: the four levels nearest zero are the two split pairs
        ep, ep_ref = (np.argsort(np.abs(x.eigenvalues))[:4] for x in (es, reference))
        assert match_multisets(np.delete(es.eigenvalues, ep),
                               np.delete(reference.eigenvalues, ep_ref)) <= 1e-12 * es.scale
        projectors = _degenerate_projectors(es, ep)
        projectors_ref = _degenerate_projectors(reference, ep_ref)
        assert len(projectors) == len(projectors_ref)
        for (value, p), (value_ref, p_ref) in zip(projectors, projectors_ref):
            assert abs(value - value_ref) <= 1e-12 * es.scale
            assert np.max(np.abs(p - p_ref)) <= 1e-11 * es.norm_inf * np.linalg.norm(p_ref, 2)
        # every cluster of the complex solve is found, at the same centroid
        clusters = detect_coalescence(es)
        for want in detect_coalescence(reference):
            assert any(len(c.indices) == len(want.indices)
                       and abs(c.eigenvalue - want.eigenvalue) <= 1e-12 * es.scale
                       for c in clusters)
        assert all(abs(c.biorth_norm) <= EP_TOLERANCE for c in clusters)


def _at_centroid(values, count):
    """``values`` with its ``count`` values of least modulus at their centroid."""
    values = np.array(values, dtype=complex)
    nearest = np.argsort(np.abs(values))[:count]
    values[nearest] = np.mean(values[nearest])
    return values


def _relative_level_gap(a, b):
    """Largest ``|a - b| / max(1, |b|)`` over the best pairing of two spectra."""
    a, b = np.asarray(a), np.asarray(b)
    cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(b))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _classified(es, mu, gamma):
    """Census and coalesced eigenvalues (the pair as its centroid), or the refusal."""
    try:
        modes = classify_modes(es, mu, gamma)
    except ClassificationError:
        return ClassificationError, None
    return modes.census, modes.coalesced


class TestChainEigensystem:
    """One real solve of the PT real form against the general two-solve eig."""

    @pytest.mark.parametrize("on_locus", [True, False], ids=["locus", "off-locus"])
    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.1, 2.0])
    @pytest.mark.parametrize("n", [6, 14, 30, 66, 104])
    def test_matches_eig(self, n, mu, on_locus):
        gamma = gamma_ep(mu, n) * (1.0 if on_locus else 0.3)
        h = build_ssh(n, mu, gamma)
        es, reference = chain_eigensystem(n, mu, gamma), eig(h)
        census, values = _classified(es, mu, gamma)
        reference_census, reference_values = _classified(reference, mu, gamma)
        assert census == reference_census
        if values is not None:
            # the pair's raw members split by ~sqrt(eps) differently in each solve
            assert _relative_level_gap(values, reference_values) <= 1e-12
        else:
            assert _relative_level_gap(es.eigenvalues, reference.eigenvalues) <= 1e-12
        assert np.array_equal(es.left, es.right.conj())
        assert np.array_equal(es.left_residuals, es.residuals)
        assert es.norm_inf == reference.norm_inf
        assert float(np.max(es.residuals)) <= RESIDUAL_TOLERANCE * es.norm_inf
        # the bond-by-bond residuals against the dense product; on the
        # product route (the locus with mu > 1) the pair's at eps = 0
        shifts = es.eigenvalues.copy()
        if on_locus and mu > 1:
            shifts[classify_modes(es, mu, gamma).pair] = 0.0
        dense = np.max(np.abs(h @ es.right - es.right * shifts), axis=0)
        assert np.allclose(es.residuals, dense, rtol=0, atol=1e-15 * es.norm_inf)
        assert np.allclose(np.linalg.norm(es.right, axis=0), 1.0)
        # biorth = right^T right = i sum_j v_j v_{n-1-j} of the real-form
        # vectors, each to the rounding of an n-term sum
        bound = np.sqrt(n) * 2.0 ** -52
        assert np.max(np.abs(es.biorth_norms - np.einsum("ij,ij->j", es.right, es.right))) <= bound
        folds = np.einsum("ij,ij->j", es.vectors, es.vectors[::-1])
        assert np.max(np.abs(es.biorth_norms - 1j * folds)) <= bound

    def test_real_levels_are_exactly_real(self):
        es = chain_eigensystem(14, 0.5, gamma_ep(0.5, 14))
        real = classify_modes(es, 0.5, gamma_ep(0.5, 14)).real
        assert np.count_nonzero(real) == 10
        assert np.all(es.eigenvalues[real].imag == 0.0)

    def test_makes_one_real_solve(self, monkeypatch):
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.asarray(a).dtype)
            return solve(a, *args, **kwargs)

        solve = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", counted)
        monkeypatch.setattr(scipy.linalg, "eig", lambda *a, **k: pytest.fail("scipy eig"))
        chain_eigensystem(30, 2.0, gamma_ep(2.0, 30))
        assert calls == [np.float64]

    def test_residual_bound_is_read(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOLERANCE", 1e-30)
        with pytest.raises(RuntimeError, match="right eigenpair"):
            chain_eigensystem(6, 2.0, 0.25)

    def test_rejects_bad_chains(self):
        for args in [(5, 2.0, 0.25), (6, -1.0, 0.25), (6, 2.0, np.inf)]:
            with pytest.raises(ValueError):
                chain_eigensystem(*args)


def _product_solve(n, mu, gamma):
    """Reference: the real-form levels of one chain on the product route,
    level by level, as ``(values, own, other, peaks, norms2, folds, w, kw)``.

    ``x, w`` solve the product of the sublattice blocks on the zero mode's
    own sublattice; a level ``+/- sqrt(x)`` has the vector ``own w = +/-
    sqrt(x) w`` there and ``other kw = outward @ w`` on the other, except the
    pair, the ``x`` of least modulus, whose two levels both have ``w`` and
    zero (``own = 1``, ``other = 0``), with their residual taken at 0.  The
    residual ``r = M v - shift v`` is ``product @ w - x w`` on the own sites
    and zero on the other, or the pair's ``kw`` on the other sites; ``peaks``
    are ``max |r|``, ``norms2`` the squared norms of the unnormalised
    vectors and ``folds`` their ``sum_j v_j v_{n-1-j}``, in which own site
    ``a`` meets other site ``n/2 - 1 - a``.  The column sums run as in
    ``chain_eigensystem``, over the columns of ``w`` at once.
    """
    m, own_sites, half = build_ssh_real(n, mu, gamma), n // 2 % 2, n // 2
    outward = m[1 - own_sites::2, own_sites::2]
    product = m[own_sites::2, 1 - own_sites::2] @ outward
    x, w = np.linalg.eig(product)
    roots = np.sqrt(x.astype(complex))
    values = np.concatenate([roots, 0.0 - roots])
    pair, kw = int(np.argmin(np.abs(x))), outward @ w
    residual_peaks = np.abs(product @ w - w * x).max(axis=0)
    w_norms2, kw_norms2 = ((a.T * a.T.conj()).real.sum(axis=-1) for a in (w, kw))
    w_folds = (w.T * kw.T[:, ::-1]).sum(axis=-1)
    own, other = values.copy(), np.ones(n)
    peaks, norms2, folds = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    for level in range(n):
        j = level % half
        if j == pair:
            own[level], other[level] = 1.0, 0.0
            peaks[level] = np.abs(kw[:, j]).max()
        else:
            peaks[level] = residual_peaks[j]
        c = own[level]
        norms2[level] = (c * c.conjugate()).real * w_norms2[j] + other[level] * kw_norms2[j]
        folds[level] = 2 * c * other[level] * w_folds[j]
    return values, own, other, peaks, norms2, folds, w, kw


def _single_chain_reference(n, mu, gamma):
    """Reference: the former single-chain pipeline, as ``(es, modes,
    coalesced)``.

    One real solve of one chain (of its sublattice product on the locus
    with mu >= 1, :func:`_product_solve`), the unit real-form vectors ``V``
    level by level with the numbers read from them, a per-level class loop
    with the closed-form certificate of one zero mode, and the two-loop
    cluster search.  With ``r = M v - shift v``, applied bond by bond off
    the product route, the residual is ``max_j |r_j + i r_{n-1-j}| / (sqrt(2)
    |v|)`` and the overlap ``i sum_j v_j v_{n-1-j} / |v|^2``; ``right = (V +
    i V[::-1]) / sqrt(2)`` and ``left = conj(right)``.  ``modes`` is
    ``(classes, pair, biorth, values)``, with ``values`` the eigenvalues and
    the pair at ``complex(np.mean(...))`` of its levels, or the error that
    refused them.
    """
    half, own_sites = n // 2, n // 2 % 2
    if on_locus(mu, n, gamma) and gamma <= 1:
        values, own, other, peaks, norms2, folds, w, kw = _product_solve(n, mu, gamma)
        order = np.lexsort((values.imag, values.real))
        values, own, other, peaks, norms2, folds = (
            a[order] for a in (values, own, other, peaks, norms2, folds))
        scale = 1.0 / np.sqrt(norms2)
        vectors = np.empty((n, n), dtype=complex)
        for k, level in enumerate(order):
            vectors[own_sites::2, k] = w[:, level % half] * (own[k] * scale[k])
            vectors[1 - own_sites::2, k] = kw[:, level % half] * (other[k] * scale[k])
    else:
        values, v = np.linalg.eig(build_ssh_real(n, mu, gamma))
        order = np.lexsort((values.imag, values.real))
        vt = v.T[order]  # level by level
        bonds = np.where(np.arange(n - 1) % 2, mu, 1.0)
        mv = np.zeros(vt.shape, dtype=np.result_type(vt, float))
        mv[:, :-1] += bonds * vt[:, 1:]
        mv[:, 1:] += bonds * vt[:, :-1]
        mv[:, 0] -= gamma * vt[:, -1]
        mv[:, -1] += gamma * vt[:, 0]
        r = mv - values[order][:, None] * vt
        peaks = np.abs(r + 1j * r[:, ::-1]).max(axis=-1)
        norms2 = (vt * vt.conj()).real.sum(axis=-1)
        folds = (vt * vt[:, ::-1]).sum(axis=-1)
        vectors = (vt / np.sqrt(norms2)[:, None]).T
        values = values[order].astype(complex)
    residuals = peaks / (np.sqrt(2) * np.sqrt(norms2))
    es = EigenSystem(values, vectors, None, residuals, residuals,
                     1j * folds / norms2 + 0.0, 1.0 + max(mu, abs(gamma)))
    right = (vectors + 1j * vectors[::-1]) / np.sqrt(2)
    assert _bits(es.right, es.left) == _bits(right, right.conj())
    coalesced = values.copy()
    for idx, centroid, *_ in _double_loop_coalescence(es):
        coalesced[list(idx)] = centroid
    magnitudes = np.abs(values)
    scale = float(np.max(magnitudes))
    threshold = CLASS_TOLERANCE * scale
    pair = biorth = None
    if on_locus(mu, n, gamma):
        first, second, third = np.argsort(magnitudes, kind="stable")[:3]
        if (magnitudes[third] <= spectral.PAIR_SEPARATION * magnitudes[second]
                or magnitudes[second] > EP_TOLERANCE * scale):
            return es, ClassificationError, coalesced
        psi = zero_mode_amplitudes(n, mu)
        assert np.max(np.abs(apply_ssh(n, mu, gamma, psi))) <= RESIDUAL_TOLERANCE * es.norm_inf
        biorth = complex(psi @ psi)
        pair = tuple(sorted((int(first), int(second))))
    classes, pair_values = [], values.copy()
    for i, value in enumerate(values):
        if pair and i in pair:
            classes.append(ModeClass.ZERO_COALESCING)
            pair_values[i] = complex(np.mean(values[list(pair)]))
        elif abs(value.imag) <= threshold:
            classes.append(ModeClass.REAL_SCATTERING)
        elif abs(value.real) <= threshold:
            classes.append(ModeClass.IMAGINARY_EVANESCENT)
        else:
            return es, ClassificationError, coalesced
    return es, (classes, list(pair or ()), biorth, pair_values), coalesced


def _bits(*arrays):
    return [(np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes()) for a in arrays]


class TestStackedChains:
    """The stacked chain pipeline against the former single-chain one, bit for bit."""

    @staticmethod
    def _assert_matches_reference(n, mu, gamma, es, modes):
        ref, ref_modes, ref_coalesced = _single_chain_reference(n, mu, gamma)
        fields = ("eigenvalues", "vectors", "right", "left", "residuals", "left_residuals",
                  "biorth_norms")
        assert _bits(*(getattr(es, f) for f in fields)) == _bits(*(getattr(ref, f) for f in fields))
        assert es.norm_inf == ref.norm_inf
        if ref_modes is ClassificationError:
            assert isinstance(modes, ClassificationError)
            return
        classes, pair, biorth, pair_values = ref_modes
        assert modes.es is es
        assert modes.mode_classes == classes
        assert modes.pair == pair
        assert modes.biorth == biorth
        # the coalesced values are the spectrum with the pair at its mean, and
        # the spectrum coalesced by the two-loop cluster search
        assert _bits(modes.coalesced) == _bits(pair_values) == _bits(ref_coalesced)
        assert modes.census == spectral.ModeCensus(
            classes.count(ModeClass.IMAGINARY_EVANESCENT),
            classes.count(ModeClass.ZERO_COALESCING) // 2,
            classes.count(ModeClass.REAL_SCATTERING), n)

    def test_stack_matches_single_chains_on_verify_grid(self):
        mus = GRID_MU_TOPO + GRID_MU_TRIV
        for n in GRID_N:
            gammas = [gamma_ep(mu, n) for mu in mus]
            systems = chain_eigensystems(n, mus, gammas)
            for row in zip(mus, gammas, systems, classify_stack(systems, mus, gammas)):
                self._assert_matches_reference(n, *row)

    @pytest.mark.parametrize("n,mu,locus_fraction", [
        (6, 2.0, 1.0), (14, 0.5, 1.0), (30, 0.3, 1.0), (66, 1.1, 1.0), (104, 0.8, 1.0),
        (14, 0.8, 0.3), (6, 0.5, 0.2),
    ])
    def test_stack_of_one_matches_the_single_chain(self, n, mu, locus_fraction):
        gamma = gamma_ep(mu, n) * locus_fraction
        es = chain_eigensystem(n, mu, gamma)
        try:
            modes = classify_modes(es, mu, gamma)
        except ClassificationError as exc:
            modes = exc
        self._assert_matches_reference(n, mu, gamma, es, modes)
        assert _bits(coalesced_eigenvalues(es)) == _bits(_single_chain_reference(n, mu, gamma)[2])

    def test_refused_row_leaves_the_others_served(self):
        # gamma = 0.8 at mu = 0.5 is off the locus (4.0) with PT broken
        mus, gammas = [2.0, 0.5, 0.5], [0.25, 0.8, 4.0]
        systems = chain_eigensystems(6, mus, gammas)
        rows = classify_stack(systems, mus, gammas)
        assert isinstance(rows[1], ClassificationError)
        with pytest.raises(ClassificationError) as alone:
            classify_modes(chain_eigensystem(6, 0.5, 0.8), 0.5, 0.8)
        assert str(rows[1]) == str(alone.value)
        assert "neither real nor imaginary" in str(rows[1])
        for row, mu, gamma in [(rows[0], 2.0, 0.25), (rows[2], 0.5, 4.0)]:
            assert row.census == classify_modes(chain_eigensystem(6, mu, gamma), mu, gamma).census

    def test_refused_solves_pass_through_the_stack(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOLERANCE", 1e-30)
        mus, gammas = [2.0, 0.5], [0.25, 4.0]
        systems = chain_eigensystems(6, mus, gammas)
        assert all(isinstance(es, RuntimeError) and "right eigenpair" in str(es)
                   for es in systems)
        assert classify_stack(systems, mus, gammas) == systems

    def test_empty_stack_has_no_rows(self):
        assert chain_eigensystems(6, [], []) == []
        assert classify_stack([], [], []) == []

    def test_mismatched_couplings_are_refused(self):
        with pytest.raises(ValueError, match=r"^stack inputs differ in length: 2 mus, 1 gammas$"):
            chain_eigensystems(6, [2.0, 0.5], [0.25])

    def test_mismatched_systems_are_refused(self):
        systems = chain_eigensystems(6, [2.0, 0.5], [0.25, 4.0])
        with pytest.raises(
                ValueError,
                match=r"^stack inputs differ in length: 2 systems, 1 mus, 1 gammas$"):
            classify_stack(systems, [2.0], [0.25])


class TestPseudoHermiticity:
    def test_real_spectrum(self):
        ok, unmatched = pseudo_hermiticity_check([1.0, 2.0, 3.0], 1e-12)
        assert ok and unmatched == []

    def test_single_imaginary_value_fails(self):
        ok, unmatched = pseudo_hermiticity_check([1.0j], 1e-12)
        assert not ok
        assert unmatched == [1.0j]

    def test_conjugate_pair_passes(self):
        ok, _ = pseudo_hermiticity_check([0.3 + 1.0j, 0.3 - 1.0j, 2.0], 1e-12)
        assert ok

    def test_six_site_spectrum(self):
        ok, _ = pseudo_hermiticity_check(M2_EXACT, 1e-12)
        assert ok

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pt_covariant_chains(self, seed):
        # reflection-symmetric real bonds with an imaginary antisymmetric
        # diagonal stay PT-covariant, so the spectrum must be closed under
        # conjugation whatever the bond disorder
        rng = np.random.default_rng(seed)
        n = 12
        bonds = rng.uniform(0.2, 2.0, n - 1)
        bonds = 0.5 * (bonds + bonds[::-1])
        diag = rng.uniform(-1.5, 1.5, n)
        diag = 1j * 0.5 * (diag - diag[::-1])
        h = np.diag(bonds, 1) + np.diag(bonds, -1) + np.diag(diag)
        from majorana_pt import pt_deviation

        assert pt_deviation(h) == 0.0
        es = eig(h)
        ok, unmatched = pseudo_hermiticity_check(es.eigenvalues, 1e-10 * es.scale)
        assert ok, unmatched


class TestDetectCoalescence:
    def test_six_site_cluster_and_vector(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        clusters = detect_coalescence(es)
        assert len(clusters) == 1
        cluster = clusters[0]
        assert len(cluster.indices) == 2
        assert abs(cluster.eigenvalue) < 1e-12
        target = np.array([4j, 1, -2j, -2, 1j, 4], dtype=complex)
        target = target / np.linalg.norm(target)
        overlap = abs(np.vdot(target, cluster.right_vector))
        assert overlap > 1 - 1e-12
        assert abs(cluster.biorth_norm) < 1e-12

    def test_hermitian_matrix_has_no_cluster(self):
        assert detect_coalescence(eig(build_ssh(8, 1.5, 0.0))) == []

    def test_ten_site_single_cluster(self):
        es = eig(build_ssh(10, 1.5, gamma_ep(1.5, 10)))
        clusters = detect_coalescence(es)
        assert len(clusters) == 1
        assert abs(clusters[0].eigenvalue) < 1e-12

    @staticmethod
    def _assert_same_clusters(es):
        got = detect_coalescence(es)
        want = _double_loop_coalescence(es)
        assert len(got) == len(want)
        for cluster, (idx, centroid, v, _, biorth) in zip(got, want):
            assert cluster.indices == idx
            assert cluster.eigenvalue == centroid
            assert np.array_equal(cluster.right_vector, v)
            assert cluster.biorth_norm == biorth
        return got

    def test_matches_double_loop_on_verify_grid(self):
        found = 0
        for n in GRID_N:
            for mu in GRID_MU_TOPO + GRID_MU_TRIV:
                found += len(self._assert_same_clusters(
                    eig(build_ssh(n, mu, gamma_ep(mu, n)))))
        assert found == len(GRID_N) * len(GRID_MU_TOPO + GRID_MU_TRIV)

    @pytest.mark.parametrize("n,mu", [(6, 0.5), (10, 2.0)])
    def test_matches_double_loop_on_ring(self, n, mu):
        self._assert_same_clusters(eig(_ring(n, mu)))

    def test_matches_double_loop_when_every_pair_is_close(self):
        # beyond the domain edge the evanescent pair at ~gamma_ep ~ 6e14 sets
        # the scale, so every pair of O(1) levels falls inside the cluster width
        es = eig(build_ssh(100, 0.5, gamma_ep(0.5, 100)))
        small = np.abs(es.eigenvalues) < 0.5 * EP_TOLERANCE * es.scale
        assert small.sum() >= es.dim - 2
        self._assert_same_clusters(es)

    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("split", [1e-9, 1e-7, 1e-5])
    def test_matches_double_loop_on_planted_pair(self, parallel, split):
        es = eig(_planted_pair(12, split, parallel))
        clusters = self._assert_same_clusters(es)
        # the pair is a candidate whenever it lies inside the width; only
        # the parallel (Jordan-like) one passes the overlap test
        expected = 1 if parallel and 2 * split <= EP_TOLERANCE * es.scale else 0
        assert len(clusters) == expected

    def test_zero_tolerance_detects_nothing(self, monkeypatch):
        es = eig(build_ssh(6, 2.0, 0.25))
        monkeypatch.setattr(spectral, "EP_TOLERANCE", 0.0)
        assert detect_coalescence(es) == []


class TestClassifyModes:
    @pytest.mark.parametrize(
        "n,mu,expected",
        [
            (6, 2.0, (0, 1, 4)),
            (6, 0.5, (2, 1, 2)),
            (14, 0.5, (2, 1, 10)),
            (30, 3.0, (0, 1, 28)),
            (30, 0.3, (2, 1, 26)),
        ],
    )
    def test_census_counts(self, n, mu, expected):
        es = eig(build_ssh(n, mu, gamma_ep(mu, n)))
        modes = classify_modes(es, mu, gamma_ep(mu, n))
        census = modes.census
        assert (census.n_I, census.n_EP, census.n_S) == expected
        assert census.n_I + 2 * census.n_EP + census.n_S == n
        assert len(modes.codes) == len(modes.mode_classes) == n

    def test_record_invariants(self):
        es = eig(build_ssh(14, 0.5, gamma_ep(0.5, 14)))
        modes = classify_modes(es, 0.5, gamma_ep(0.5, 14))
        scale = es.scale
        assert modes.real.tolist() == [c is ModeClass.REAL_SCATTERING for c in modes.mode_classes]
        assert modes.imaginary.tolist() == [c is ModeClass.IMAGINARY_EVANESCENT
                                            for c in modes.mode_classes]
        for eigenvalue, mode_class in zip(modes.coalesced.tolist(), modes.mode_classes):
            if mode_class is ModeClass.REAL_SCATTERING:
                assert abs(eigenvalue.imag) <= 1e-8 * scale
            elif mode_class is ModeClass.IMAGINARY_EVANESCENT:
                assert abs(eigenvalue.real) <= 1e-8 * scale
                assert abs(eigenvalue.imag) > 1e-8 * scale
            else:
                assert abs(eigenvalue) <= 1e-8 * scale
                assert abs(modes.biorth) <= 1e-6

    def test_hermitian_chain_is_all_scattering(self):
        es = eig(build_ssh(6, 2.0, 0.0))
        modes = classify_modes(es, 2.0, 0.0)
        census = modes.census
        assert (census.n_I, census.n_EP, census.n_S) == (0, 0, 6)
        assert (modes.pair, modes.biorth) == ([], None)

    def test_broken_pt_levels_are_unclassifiable(self):
        # gamma between the band scales drives scattering levels complex
        es = eig(build_ssh(6, 0.5, 0.55))
        with pytest.raises(ClassificationError):
            classify_modes(es, 0.5, 0.55)

    def test_uniform_chain_pair_is_certified(self):
        # at mu = 1 the certificate takes zero_mode's limit, |psi_j| = 1/sqrt(n)
        es = eig(build_ssh(8, 1.0, 1.0))
        modes = classify_modes(es, 1.0, 1.0)
        census = modes.census
        assert (census.n_I, census.n_EP, census.n_S) == (0, 1, 6)
        assert chain_census(8, 1.0, 1.0) == census
        assert len(modes.pair) == 2 and abs(modes.biorth) < 1e-15

    def test_pair_records_carry_the_centroid(self):
        es = eig(build_ssh(14, 1.5, gamma_ep(1.5, 14)))
        modes = classify_modes(es, 1.5, gamma_ep(1.5, 14))
        pair = modes.pair
        assert pair == sorted(np.argsort(np.abs(es.eigenvalues))[:2])
        assert [modes.mode_classes[i] for i in pair] == [ModeClass.ZERO_COALESCING] * 2
        values = modes.coalesced
        assert values[pair[0]] == values[pair[1]] == np.mean(es.eigenvalues[pair])
        others = [i for i in range(14) if i not in pair]
        assert _bits(values[others]) == _bits(es.eigenvalues[others])

    def test_pair_without_a_gap_is_refused(self):
        n, mu = 78, 0.99901401
        with pytest.raises(ClassificationError, match="no isolated zero pair"):
            chain_census(n, mu, gamma_ep(mu, n))

    @pytest.mark.parametrize("tolerances,error,match", [
        ({"EP_TOLERANCE": 1e-20}, ClassificationError, "exceptional-point width"),
        ({"RESIDUAL_TOLERANCE": 1e-20}, RuntimeError, "closed-form zero mode residual"),
    ])
    def test_pair_bounds_are_read(self, monkeypatch, tolerances, error, match):
        for name, value in tolerances.items():
            monkeypatch.setattr(spectral, name, value)
        with pytest.raises(error, match=match):
            chain_census(6, 0.8, gamma_ep(0.8, 6))

    def test_chain_census_matches_classify_modes_on_a_request_grid(self):
        # the couplings of the benchmark's requests; 20 log-spaced N in 6..200
        for mu in (0.5, 0.8, 1.1, 1.5, 2.0):
            for n in sorted({2 * round(3 * (200 / 6) ** (i / 19)) for i in range(20)}):
                gamma = gamma_ep(mu, n)
                census = classify_modes(eig(build_ssh(n, mu, gamma)), mu, gamma).census
                assert chain_census(n, mu, gamma) == census, (n, mu)
                assert (census.n_I, census.n_EP) == ((0, 1) if mu > 1 else (2, 1))

    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.1, 1.5, 2.0, 3.0])
    def test_the_mirrored_locus_has_the_census_of_the_locus(self, mu):
        # build_ssh(n, mu, -gamma) = P build_ssh(n, mu, gamma) P with P the
        # site reversal: the same levels and zero pair, certified by the
        # reversed zero mode, along which the pair's eigenvectors lie up to
        # the verify grid's n = 30; past it the N x N solve loses them, at
        # +gamma_ep too (at (200, 0.5) they are orthogonal to psi)
        for n in (4, 6, 14, 30, 62, 100, 200):
            gamma = gamma_ep(mu, n)
            locus = classify_modes(chain_eigensystem(n, mu, gamma), mu, gamma)
            mirrored = classify_modes(chain_eigensystem(n, mu, -gamma), mu, -gamma)
            assert (chain_census(n, mu, -gamma) == mirrored.census == locus.census
                    == chain_census(n, mu, gamma)), (n, mu)
            assert len(mirrored.pair) == 2 and locus.census.n_EP == 1
            assert np.array_equal(mirrored.psi, locus.psi[::-1])
            if n <= 30:
                psi = mirrored.psi / np.linalg.norm(mirrored.psi)
                along = np.abs(psi.conj() @ mirrored.es.right[:, mirrored.pair])
                assert np.all(along >= 1 - EP_TOLERANCE), (n, mu)

    def test_synthetic_complex_eigenvalue_raises(self):
        es = eig(np.diag([1 + 1j, 1 - 1j, 2.0, 3.0]))
        with pytest.raises(ClassificationError):
            classify_modes(es, 2.0, 0.0)


def _census_outcome(census, n, mu, gamma):
    """``(n_I, n_EP, n_S)`` of ``census(n, mu, gamma)``, or the type of its refusal."""
    try:
        c = census(n, mu, gamma)
    except (ClassificationError, RuntimeError) as exc:
        return type(exc)
    return c.n_I, c.n_EP, c.n_S


def _full_solve_census(n, mu, gamma):
    """The oracle: the census from one N x N eigvals of the real form at
    ``|gamma|``.

    ``M(-gamma) = M(gamma)^T`` shares the spectrum, but the transposed solve
    can round differently: at (6, 0.5) and (18, 0.5) a real double level of
    a band pair (±sqrt(3)/2 at N = 6, split by 1e-31 at 60 digits) comes out
    of it neither real nor imaginary at gamma = -0.5, and is refused.
    """
    values = np.linalg.eigvals(build_ssh_real(n, mu, abs(gamma)))
    codes, _, _ = spectral._served(spectral._classify_levels(values[None], [mu], [gamma])[0])
    return spectral._census(codes)


#: Off the locus: |gamma| <= 1, both signs, where the half-size solve would be
#: well scaled.  N runs to 200, where the Hermitian chain at mu = 2 has a real
#: pair far below the half-size solve's noise.
OFF_LOCUS_GAMMA = sorted({s * g for g in (0.0, 1e-3, 0.3, 0.5, 0.9, 1.0) for s in (1, -1)})
OFF_LOCUS_MU = (0.5, 0.8, 1.1, 2.0)
OFF_LOCUS_N = tuple(range(4, 41, 2)) + (64, 100, 154, 200)


def _off_locus_points():
    """``(n, mu, gamma)`` of the off-locus grid; (4, 2.0, 0.5) lies on the
    locus, and is left out, and (4, 2.0, -0.5) on its mirror, and is kept:
    both routes solve the N x N real form there."""
    return [(n, mu, gamma) for mu in OFF_LOCUS_MU for gamma in OFF_LOCUS_GAMMA
            for n in OFF_LOCUS_N if not on_locus(mu, n, gamma)]


class TestCensusRoutes:
    """``chain_census`` solves the (N/2) x (N/2) sublattice product on the
    locus with mu >= 1, the (N/2 - 1) x (N/2 - 1) product of the inner chain
    on the locus with gamma >= SPLIT_GAMMA, and the N x N real form elsewhere
    (the oracle), each at |gamma|."""

    @pytest.mark.parametrize("mu", [1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0])
    def test_half_size_solve_matches_the_full_solve_on_the_locus(self, mu):
        for n in (*range(4, 201, 2), 256, 400, 1000):
            if n > 648 and mu == 10.0:  # gamma_ep underflows to 0 past N = 648
                continue
            gamma = gamma_ep(mu, n)
            expected = _census_outcome(_full_solve_census, n, mu, gamma)
            assert _census_outcome(chain_census, n, mu, gamma) == expected, (n, mu)
            assert expected == (0, 1, n - 2), (n, mu)

    def test_off_the_locus_the_full_solve_is_kept(self):
        # the half-size solve would read the Hermitian chain (gamma = 0) at
        # mu = 2 as having an imaginary pair at N = 154 and 200
        for n, mu, gamma in _off_locus_points():
            assert (_census_outcome(chain_census, n, mu, gamma)
                    == _census_outcome(_full_solve_census, n, mu, gamma)), (n, mu, gamma)

    def test_census_is_even_in_gamma_off_the_locus(self):
        # M(-gamma) = M(gamma)^T has the spectrum of M(gamma), so the census
        # is solved at |gamma|; at (6, 0.5, -0.5) and (18, 0.5, -0.5) the
        # solve of M(-gamma) refused a real double level of a band pair
        asymmetric = {(n, mu, gamma) for n, mu, gamma in _off_locus_points()
                      if gamma > 0 and (_census_outcome(chain_census, n, mu, gamma)
                                        != _census_outcome(chain_census, n, mu, -gamma))}
        assert asymmetric == set()

    @pytest.mark.parametrize("n", [154, 200])
    def test_the_hermitian_chain_at_mu_2_is_all_real(self, n):
        # why the half-size solve stays on the locus: the edge pair of this
        # chain lies near +/-1e-23 (N = 154) and +/-1e-30 (N = 200), far below
        # the noise of B C's eigenvalues x = eps^2, about 2^-52 (1 + mu)^2;
        # sqrt of that noise, 4.5e-8, is over the class threshold 1e-8
        # max|eps| = 3e-8, so from B C the pair could read as imaginary
        assert _census_outcome(chain_census, n, 2.0, 0.0) == (0, 0, n)

    @pytest.mark.parametrize("n,mu,gamma,shape", [
        (6, 2.0, 0.25, (3, 3)),        # on the locus, mu > 1
        (200, 1.1, None, (100, 100)),
        (8, 1.0, 1.0, (4, 4)),         # the uniform chain: gamma = 1
        (6, 0.5, 4.0, (6, 6)),         # on the locus, mu < 1: 1 < gamma < 2^27
        (30, 0.8, None, (30, 30)),
        (54, 0.5, None, (54, 54)),     # gamma = 2^26
        (56, 0.5, None, (27, 27)),     # gamma = 2^27: the inner chain's product
        (168, 0.8, None, (168, 168)),  # gamma = 1.1e8
        (170, 0.8, None, (84, 84)),    # gamma = 1.4e8
        (6, 2.0, 0.0, (6, 6)),         # off the locus
        (6, 2.0, -0.25, (3, 3)),       # the mirrored locus, -gamma_ep, solved at +gamma_ep
        (30, 1.5, 1.0, (30, 30)),
    ])
    def test_one_eigvals_call_per_census(self, monkeypatch, n, mu, gamma, shape):
        calls, solve = [], np.linalg.eigvals

        def recorded(a):
            calls.append((np.asarray(a).dtype, np.shape(a)))
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        chain_census(n, mu, gamma_ep(mu, n) if gamma is None else gamma)
        assert calls == [(np.float64, shape)]


#: The product route's grid: on the locus, N to 402 (and 256, 258, 400,
#: 402) at mu from the uniform chain, where the gap closes, to mu = 10.
ROUTE_MU = (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0)
ROUTE_N = (*range(4, 203, 2), 256, 258, 400, 402)


#: The split route's grid: on the locus where gamma >= SPLIT_GAMMA, N to 400
#: (from N = 26 at mu = 0.2, 56 at 0.5, 170 at 0.8 and 358 at 0.9), and
#: (1000, 0.5).  mu = 0.99 would reach it only past N = 3700, beyond the
#: dimension ceiling.
SPLIT_MU = (0.2, 0.5, 0.8, 0.9)
SPLIT_N = (*range(26, 73, 2), *range(74, 121, 6), 150, 168, 170, 200, 256, 300, 358, 400)


#: The mirrored locus's grid, -gamma_ep: N to 200, and 256 and 400,
#: over the product route (mu > 1), the N x N solve and the split route.
MIRROR_MU = (0.5, 0.8, 1.1, 1.5, 2.0, 3.0)
MIRROR_N = (*range(4, 202, 2), 256, 400)


def _split_gamma(mu, n):
    """True where ``gamma_ep(mu, n)`` is a float of at least SPLIT_GAMMA."""
    try:
        return gamma_ep(mu, n) >= spectral.SPLIT_GAMMA
    except ValueError:  # overflows
        return False


def _assert_real_form_identities(n, mu, gamma, es, pair=()):
    """The numbers ``chain_eigensystem`` reads from the real form against
    the lifted unit vectors ``right``, and the dense residuals, returned.

    Each residual lies within ``1e-15 * norm_inf`` of the dense ``|h right -
    right shift|`` (the pair's shift is 0), and each overlap within the
    rounding of an n-term sum, ``sqrt(n) 2^-52``, of ``right^T right``;
    ``left = conj(right)`` with the same residuals.
    """
    shifts = es.eigenvalues.copy()
    shifts[list(pair)] = 0.0
    dense = np.max(np.abs(build_ssh(n, mu, gamma) @ es.right - es.right * shifts), axis=0)
    assert np.max(np.abs(es.residuals - dense)) <= 1e-15 * es.norm_inf, (n, mu, gamma)
    lifted = np.einsum("ij,ij->j", es.right, es.right)
    assert np.max(np.abs(es.biorth_norms - lifted)) <= np.sqrt(n) * 2.0 ** -52, (n, mu, gamma)
    assert np.max(np.abs(np.linalg.norm(es.right, axis=0) - 1.0)) <= 1e-15, (n, mu, gamma)
    assert es.left_residuals is es.residuals
    assert np.array_equal(es.left, es.right.conj())
    return dense


class TestEigensystemRoutes:
    """``chain_eigensystem`` solves the (N/2) x (N/2) sublattice product on
    the locus with mu >= 1, the (N/2 - 1) x (N/2 - 1) product of the inner
    chain on the locus with gamma >= SPLIT_GAMMA, and the N x N real form
    elsewhere; the N x N solve is the oracle."""

    @pytest.mark.parametrize("n", [*range(4, 42, 2), 100, 102])
    def test_the_zero_mode_lives_on_the_product_sublattice(self, n):
        # Q^dag psi, the closed-form zero mode in the real form, lies on the
        # sites n/2 mod 2, 0::2 or 1::2, where the product's null vector lies;
        # on the split route those are the inner chain's sites (n/2 - 1) mod 2
        own = n // 2 % 2
        for mu in (1.0, 1.5, 2.0, 0.5, 0.2):
            gamma, psi = gamma_ep(mu, n), zero_mode_amplitudes(n, mu)
            u = (psi - 1j * psi[::-1]) / np.sqrt(2)
            m = build_ssh_real(n, mu, gamma)
            assert np.max(np.abs(u[1 - own::2])) <= 1e-15 * np.max(np.abs(u))
            assert np.max(np.abs(m[1 - own::2, own::2] @ u[own::2])) <= 1e-15 * (1 + mu)
            route = spectral._sublattice_product(m, n, mu, gamma)
            if 1 < gamma < spectral.SPLIT_GAMMA:  # the N x N solve is kept
                assert route is None
            elif gamma <= 1:
                assert route[:2] == (False, own)
                assert route[2].tobytes() == m[1 - own::2, own::2].tobytes()
            else:  # the inner chain: the Schur complement of the end sites at eps = 0
                inner = (n // 2 - 1) % 2
                assert route[:2] == (True, inner) and inner == 1 - own
                k = m[1:-1, 1:-1].copy()
                k[0, -1], k[-1, 0] = -1 / gamma, 1 / gamma
                assert route[2].tobytes() == k[1 - inner::2, inner::2].tobytes()
                assert np.max(np.abs(route[2] @ u[1:-1][inner::2])) <= 1e-15 * (1 + mu)

    @pytest.mark.parametrize("sizes", [ROUTE_N[:50], ROUTE_N[50:90], ROUTE_N[90:]],
                             ids=["N4-102", "N104-182", "N184-402"])
    def test_product_route_matches_the_full_solve(self, sizes):
        for n in sizes:
            gammas = [gamma_ep(mu, n) for mu in ROUTE_MU]
            full = np.linalg.eigvals([build_ssh_real(n, mu, g) for mu, g in zip(ROUTE_MU, gammas)])
            stacked = chain_eigensystems(n, ROUTE_MU, gammas)
            mirrored = chain_eigensystems(n, ROUTE_MU, [-g for g in gammas])
            for mu, gamma, levels, es, es_m in zip(ROUTE_MU, gammas, full, stacked, mirrored):
                self._assert_matches_the_full_solve(n, mu, gamma, levels, es)
                self._assert_mirrors(n, mu, gamma, es, es_m)

    @staticmethod
    def _assert_mirrors(n, mu, gamma, es, mirrored):
        # at -gamma the real form is solved at +gamma: every number read from
        # it is the same, bit for bit, and the lifted vectors are reversed
        fields = ("eigenvalues", "vectors", "residuals", "biorth_norms")
        assert (_bits(*(getattr(mirrored, f) for f in fields))
                == _bits(*(getattr(es, f) for f in fields))), (n, mu)
        assert mirrored.right.tobytes() == es.right[::-1].tobytes(), (n, mu)
        pair = classify_modes(mirrored, mu, -gamma).pair
        _assert_real_form_identities(n, mu, -gamma, mirrored, pair)

    @staticmethod
    def _assert_matches_the_full_solve(n, mu, gamma, full, es):
        # each row of the stack is bit for bit the chain solved alone
        alone = chain_eigensystem(n, mu, gamma)
        fields = ("eigenvalues", "vectors", "right", "left", "residuals", "left_residuals",
                  "biorth_norms")
        assert _bits(*(getattr(es, f) for f in fields)) == _bits(*(getattr(alone, f) for f in fields))
        modes = classify_modes(es, mu, gamma)
        census = chain_census(n, mu, gamma)
        assert modes.census == census == spectral.ModeCensus(0, 1, n - 2, n), (n, mu)
        codes, _, _ = spectral._served(spectral._classify_levels(full[None], [mu], [gamma])[0])
        assert census == spectral._census(codes)
        pair = modes.pair
        # the levels outside the pair against the full solve's
        gap = match_multisets(np.delete(es.eigenvalues, pair),
                              np.delete(full, np.argsort(np.abs(full))[:2]))
        assert gap <= 1e-12 * es.scale, (n, mu)
        assert np.all(es.eigenvalues[modes.real].imag == 0.0)
        # both pair columns are one vector, the closed-form zero mode
        assert np.array_equal(es.right[:, pair[0]], es.right[:, pair[1]])
        psi = zero_mode_amplitudes(n, mu)
        assert abs(np.vdot(psi, es.right[:, pair[0]])) / np.linalg.norm(psi) >= 1 - 1e-14
        # the pair's residual is taken at eps = 0; every residual lies at
        # the LAPACK floor, a tenth of the bound or less
        _assert_real_form_identities(n, mu, gamma, es, pair)
        assert float(np.max(es.residuals)) <= 0.1 * RESIDUAL_TOLERANCE * es.norm_inf

    @pytest.mark.parametrize("sizes,split_mu", [(SPLIT_N[:24], SPLIT_MU),
                                                (SPLIT_N[24:], SPLIT_MU), ((1000,), (0.5,))],
                             ids=["N26-72", "N74-400", "N1000"])
    def test_split_route_matches_the_full_solve(self, sizes, split_mu):
        for n in sizes:
            mus = [mu for mu in split_mu if _split_gamma(mu, n)]
            gammas = [gamma_ep(mu, n) for mu in mus]
            full = np.linalg.eigvals([build_ssh_real(n, mu, g) for mu, g in zip(mus, gammas)])
            stacked = chain_eigensystems(n, mus, gammas)
            mirrored = chain_eigensystems(n, mus, [-g for g in gammas])
            for mu, gamma, levels, es, es_m in zip(mus, gammas, full, stacked, mirrored):
                self._assert_split_route_matches(n, mu, gamma, levels, es)
                self._assert_mirrors(n, mu, gamma, es, es_m)

    @staticmethod
    def _assert_split_route_matches(n, mu, gamma, full, es):
        alone = chain_eigensystem(n, mu, gamma)
        fields = ("eigenvalues", "vectors", "right", "left", "residuals", "left_residuals",
                  "biorth_norms")
        assert _bits(*(getattr(es, f) for f in fields)) == _bits(*(getattr(alone, f) for f in fields))
        modes = classify_modes(es, mu, gamma)
        census = chain_census(n, mu, gamma)
        codes, _, _ = spectral._served(spectral._classify_levels(full[None], [mu], [gamma])[0])
        assert modes.census == census == spectral._census(codes), (n, mu)
        assert census.n_EP == 1, (n, mu)
        pair = modes.pair
        # the levels outside the pair against the full solve's, each
        # relative to max(1, |eps|); the evanescent pair is +/- i gamma
        ours = np.delete(es.eigenvalues, pair)
        theirs = np.delete(full, np.argsort(np.abs(full))[:2])
        gap = match_multisets(ours / np.maximum(1.0, np.abs(ours)),
                              theirs / np.maximum(1.0, np.abs(theirs)))
        assert gap <= 5e-14, (n, mu, gap)
        assert np.count_nonzero(np.isin(es.eigenvalues, [1j * gamma, -1j * gamma])) == 2
        assert np.all(es.eigenvalues[modes.real].imag == 0.0)
        # both pair columns are one vector, the closed-form zero mode
        assert np.array_equal(es.right[:, pair[0]], es.right[:, pair[1]])
        psi = zero_mode_amplitudes(n, mu)
        assert abs(np.vdot(psi, es.right[:, pair[0]])) / np.linalg.norm(psi) >= 1 - 1e-14
        # every residual on the chain, the pair's at eps = 0, is at the LAPACK floor
        dense = _assert_real_form_identities(n, mu, gamma, es, pair)
        assert float(np.max(dense)) <= 1e-14 * (1 + mu), (n, mu)
        assert float(np.max(es.residuals)) <= 1e-14 * (1 + mu), (n, mu)

    def test_full_route_reads_the_real_form(self):
        # the N x N route off the locus, at both signs of gamma, and on it
        # with 1 < gamma < 2^27: the numbers read from the real form against
        # the lifted vectors, with no pair shift
        points = [(n, mu, gamma) for n, mu, gamma in _off_locus_points() if n <= 100]
        points += [(n, mu, s * gamma_ep(mu, n)) for mu in (0.5, 0.8, 0.9, 0.99)
                   for n in (*range(4, 41, 2), 64, 100, 154, 200) for s in (1, -1)
                   if 1 < gamma_ep(mu, n) < spectral.SPLIT_GAMMA]
        for n, mu, gamma in points:
            _assert_real_form_identities(n, mu, gamma, chain_eigensystem(n, mu, gamma))

    @pytest.mark.parametrize("n,mu,gamma,shape", [
        (6, 2.0, 0.25, (3, 3)),        # on the locus, mu > 1
        (200, 1.1, None, (100, 100)),
        (8, 1.0, 1.0, (4, 4)),         # the uniform chain: gamma = 1
        (6, 0.5, 4.0, (6, 6)),         # on the locus, mu < 1: 1 < gamma < 2^27
        (30, 0.8, None, (30, 30)),
        (54, 0.5, None, (54, 54)),     # gamma = 2^26
        (56, 0.5, None, (27, 27)),     # gamma = 2^27: the inner chain's product
        (168, 0.8, None, (168, 168)),  # gamma = 1.1e8
        (170, 0.8, None, (84, 84)),    # gamma = 1.4e8
        (6, 2.0, 0.0, (6, 6)),         # off the locus
        (6, 2.0, -0.25, (3, 3)),       # the mirrored locus, -gamma_ep, solved at +gamma_ep
        (30, 1.5, 1.0, (30, 30)),
    ])
    def test_one_eig_call_per_eigensystem(self, monkeypatch, n, mu, gamma, shape):
        calls, solve = [], np.linalg.eig

        def recorded(a):
            calls.append((np.asarray(a).dtype, np.shape(a)))
            return solve(a)

        monkeypatch.setattr(np.linalg, "eig", recorded)
        chain_eigensystem(n, mu, gamma_ep(mu, n) if gamma is None else gamma)
        assert calls == [(np.float64, (1, *shape))]  # a stack of one

    def test_the_eigensystem_census_is_chain_census_off_the_locus(self):
        # both solve at |gamma|; the N x N solve of M(-gamma) refused a real
        # double level at (6, 0.5, -0.5) and (18, 0.5, -0.5) as neither real
        # nor imaginary, where chain_census reads (0, 0, N)
        def eigensystem_census(n, mu, gamma):
            return classify_modes(chain_eigensystem(n, mu, gamma), mu, gamma).census

        for n, mu, gamma in _off_locus_points():
            assert (_census_outcome(eigensystem_census, n, mu, gamma)
                    == _census_outcome(chain_census, n, mu, gamma)), (n, mu, gamma)

    @pytest.mark.parametrize("mu", MIRROR_MU)
    def test_the_mirrored_locus_is_the_locus_reversed(self, mu):
        # h(-gamma) = P h(gamma) P: solved at +gamma_ep, on its route, the
        # levels are the locus's bit for bit and the vectors reversed site
        # for site (normalised in the reversed order, to an ulp); the census
        # is chain_census's
        for n in MIRROR_N:
            gamma = gamma_ep(mu, n)
            locus, mirrored = chain_eigensystem(n, mu, gamma), chain_eigensystem(n, mu, -gamma)
            assert mirrored.eigenvalues.tobytes() == locus.eigenvalues.tobytes(), (n, mu)
            assert np.max(np.abs(mirrored.right - locus.right[::-1])) <= 1e-15, (n, mu)
            census = classify_modes(mirrored, mu, -gamma).census
            assert census == chain_census(n, mu, -gamma) == chain_census(n, mu, gamma), (n, mu)

    def test_a_mixed_stack_makes_one_call_per_route(self, monkeypatch):
        calls, solve = [], np.linalg.eig

        def recorded(a):
            calls.append((np.asarray(a).dtype, np.shape(a)))
            return solve(a)

        monkeypatch.setattr(np.linalg, "eig", recorded)
        mus = GRID_MU_TOPO + GRID_MU_TRIV
        chain_eigensystems(30, mus, [gamma_ep(mu, 30) for mu in mus])
        assert calls == [(np.float64, (3, 30, 30)), (np.float64, (3, 15, 15))]

    def test_a_stack_over_the_three_routes_makes_one_call_each(self, monkeypatch):
        # N x N at mu = 0.9 (gamma = 174), then the product, then the split route
        n, mus = 100, (0.5, 0.9, 1.5, 0.3, 2.0)
        calls = _recorded_solves(monkeypatch)
        gammas = [gamma_ep(mu, n) for mu in mus]
        stacked = chain_eigensystems(n, mus, gammas)
        assert calls == [(np.float64, (1, 100, 100)), (np.float64, (2, 50, 50)),
                         (np.float64, (2, 49, 49))]
        fields = ("eigenvalues", "vectors", "right", "left", "residuals", "left_residuals",
                  "biorth_norms")
        for mu, gamma, es in zip(mus, gammas, stacked):  # each row as when solved alone
            alone = chain_eigensystem(n, mu, gamma)
            assert (_bits(*(getattr(es, f) for f in fields))
                    == _bits(*(getattr(alone, f) for f in fields))), mu

    @pytest.mark.parametrize("n,mu", [(1000, 1.1), (1000, 0.5)], ids=["product", "split"])
    def test_half_size_routes_hold_one_real_form_array(self, n, mu):
        # the 1000 x 1000 complex vectors V take 16 MB; the residuals and
        # overlaps come from the half-size solve, and no lifted vector is
        # built until read
        chain_eigensystem(6, 2.0, 0.25)
        tracemalloc.start()
        try:
            es = chain_eigensystem(n, mu, gamma_ep(mu, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, peak
        assert "right" not in vars(es) and "left" not in vars(es)


class TestPtActionOnEigenvectors:
    @pytest.mark.parametrize("n,mu", [(10, 0.5), (14, 1.5)])
    def test_parity_conjugation_maps_spectrum(self, n, mu):
        h = build_ssh(n, mu, gamma_ep(mu, n))
        es = eig(h)
        p = parity_matrix(n)
        for i in range(n):
            mapped = p @ es.right[:, i].conj()
            target = es.eigenvalues[i].conjugate()
            assert np.max(np.abs(h @ mapped - target * mapped)) < 1e-7 * es.norm_inf

    @pytest.mark.parametrize("n", [10, 14, 22, 30])
    def test_imaginary_pair_are_pt_partners(self, n):
        mu = 0.5
        es = eig(build_ssh(n, mu, gamma_ep(mu, n)))
        idx = np.flatnonzero(classify_modes(es, mu, gamma_ep(mu, n)).imaginary).tolist()
        assert len(idx) == 2
        v_plus, v_minus = es.right[:, idx[0]], es.right[:, idx[1]]
        mapped = parity_matrix(n) @ v_plus.conj()
        overlap = abs(np.vdot(v_minus, mapped))
        assert overlap >= 1 - 1e-8


class TestUtilities:
    def test_coalesced_eigenvalues_replaces_cluster(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        values = coalesced_eigenvalues(es)
        near_zero = sorted(values, key=abs)[:2]
        assert near_zero[0] == near_zero[1]
        assert abs(near_zero[0]) < 1e-12

    def test_match_multisets(self):
        assert match_multisets([1.0, 2.0j], [2.0j, 1.0]) == 0.0
        assert match_multisets([1.0], [1.0 + 1e-12]) <= 2e-12
        with pytest.raises(ValueError):
            match_multisets([1.0], [1.0, 2.0])

    def test_match_multisets_empty(self):
        assert match_multisets([], []) == 0.0

    @staticmethod
    def _assert_matches_loop(a, b):
        got = match_multisets(a, b)
        assert type(got) is float
        assert got == _loop_match_multisets(a, b)

    def test_match_multisets_matches_loop_on_verify_grid(self):
        for n in GRID_N:
            for mu in GRID_MU_TOPO + GRID_MU_TRIV:
                es = eig(build_ssh(n, mu, gamma_ep(mu, n)))
                values = es.eigenvalues
                # conjugate and negated spectra pair the PT and chiral
                # partners: exact ties on the real levels, near-ties elsewhere
                for other in (coalesced_eigenvalues(es), values.conj(), -values):
                    self._assert_matches_loop(values, other)
                    self._assert_matches_loop(other[::-1], values)

    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    def test_match_multisets_matches_loop_on_small_integer_multisets(self, jitter):
        rng = np.random.default_rng(7)
        for _ in range(400):
            size = int(rng.integers(1, 9))
            a = rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size)
            b = rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size)
            a = a + jitter * (rng.normal(size=size) + 1j * rng.normal(size=size))
            b = b + jitter * (rng.normal(size=size) + 1j * rng.normal(size=size))
            self._assert_matches_loop(a, b)
            self._assert_matches_loop(list(a), b[::-1])

    def test_default_tolerances(self):
        assert (RESIDUAL_TOLERANCE, CLASS_TOLERANCE, EP_TOLERANCE) == (1e-11, 1e-8, 1e-6)
