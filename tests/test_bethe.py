import cmath
import hashlib
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from majorana_pt import (
    BetheRoot,
    RootScanError,
    UniformChainError,
    apply_ssh,
    build_ssh,
    classify_modes,
    coalesced_eigenvalues,
    eig,
    gamma_ep,
    k_from_epsilon,
    match_multisets,
    match_spectrum_to_roots,
    normalized_residual,
    omega_constant,
    parity_matrix,
    quantization_residual,
    solve_evanescent_pair,
    solve_real_k,
    zero_mode,
    zero_mode_amplitudes,
    zero_mode_root,
)
from majorana_pt import bethe, verify
from majorana_pt.bethe import _real_line, _terms


def evanescent_residual(kappa, mu, gamma, n):
    """The quantization condition at ``k = i kappa``, divided by -2."""
    return _real_line(kappa, mu, gamma, n, np.sinh, np.cosh)


def _exponential_form(k, mu, gamma, n):
    """Reference: the three terms of the condition as exponential differences."""
    k = complex(k)
    e2 = 1 + mu * mu - mu * (cmath.exp(2j * k) + cmath.exp(-2j * k))
    return (
        (e2 - gamma * gamma - 1) * (cmath.exp(1j * (n - 2) * k) - cmath.exp(-1j * (n - 2) * k)),
        mu * (cmath.exp(1j * (n - 4) * k) - cmath.exp(-1j * (n - 4) * k)),
        mu * (gamma * gamma + e2) * (cmath.exp(1j * n * k) - cmath.exp(-1j * n * k)),
    )


@pytest.mark.parametrize("n,mu", [(6, 2.0), (14, 0.5), (22, 1.5), (30, 0.8)])
def test_every_evaluator_reads_the_one_condition(n, mu):
    gamma = gamma_ep(mu, n)
    for k in (0.37, 0.41j, 0.6 + 0.2j):
        reference = sum(_exponential_form(k, mu, gamma, n))
        assert abs(quantization_residual(k, mu, gamma, n) - reference) <= 1e-12 * abs(reference)
    for k in np.linspace(0.01, 3.13, 97):
        scalar = _real_line(float(k), mu, gamma, n, math.sin, math.cos)
        scale = max(map(abs, _terms(float(k), mu, gamma, n, math.sin, math.cos)))
        assert abs(scalar - _real_line(np.array([k]), mu, gamma, n)[0]) <= 1e-14 * scale
    for kappa in (0.3, 0.7, 1.2):
        scale = max(map(abs, _terms(kappa, mu, gamma, n, np.sinh, np.cosh)))
        with mpmath.workdps(60):
            exact = _real_line(mpmath.mpf(kappa), mpmath.mpf(mu), mpmath.mpf(gamma), n,
                               mpmath.sinh, mpmath.cosh)
        assert abs(float(exact) - evanescent_residual(kappa, mu, gamma, n)) <= 1e-12 * scale


class TestQuantizationResidual:
    def test_zero_mode_root_is_a_root(self):
        value = quantization_residual(0.5j * np.log(2.0), 2.0, 0.25, 6)
        assert abs(value) < 1e-13

    def test_scan_roots_are_roots(self):
        for root in solve_real_k(2.0, 0.25, 6):
            assert root.residual <= 1e-12

    def test_generic_point_is_not_a_root(self):
        value = quantization_residual(np.pi / 7, 1.5, 1.5**-2, 6)
        assert abs(value) > 1.0

    def test_purely_imaginary_along_real_k(self):
        value = quantization_residual(0.37, 1.5, 0.2, 10)
        assert abs(value.real) < 1e-14 * abs(value)


class TestEvanescentResidual:
    def test_universal_roots(self):
        assert abs(evanescent_residual(0.5 * np.log(2.0), 2.0, 0.25, 6)) < 1e-13
        assert abs(evanescent_residual(-0.5 * np.log(2.0), 2.0, 0.25, 6)) < 1e-13

    def test_kappa_zero_is_trivial(self):
        assert evanescent_residual(0.0, 0.7, 1.3, 10) == 0.0

    def test_asymptotic_root_consistency(self):
        # The asymptotic root solves the exponential-reduced equation to
        # leading order only: its normalized residual is O(1 - mu^2), while
        # the exact root sits exponentially close in kappa.
        mu, n = 0.4, 20
        gamma = gamma_ep(mu, n)
        kappa = (1 - n) / 2 * np.log(mu)
        raw = evanescent_residual(kappa, mu, gamma, n)
        scale = 2 * max(map(abs, _terms(kappa, mu, gamma, n, np.sinh, np.cosh)))
        assert abs(raw) < scale  # smaller than every retained term
        # dropping e^{-m kappa} against e^{+m kappa} is exact at this kappa
        x = np.exp(-2 * kappa)
        e2 = 1 + mu * mu - mu * (x + 1 / x)
        reduced = 0.5 * np.exp(n * kappa) * (
            mu * x * x + (e2 - gamma * gamma - 1) * x + mu * (gamma * gamma + e2)
        )
        # gamma^2 + eps^2 cancels through ~gamma^2; double precision keeps
        # the two evaluation routes together only to that rounding level
        assert abs(raw - reduced) < 1e-8 * scale
        # the exact root of the full equation is exponentially close
        exact = solve_evanescent_pair(mu, gamma, n)[0]
        assert abs(exact.k.imag - kappa) < 4 * mu ** (n - 2)

    def test_matches_quantization_residual_on_the_imaginary_line(self):
        # each exponential pair contracts to -2 sinh along k = i kappa
        kappa, mu, gamma, n = 0.83, 0.6, 1.1, 8
        via_k = quantization_residual(1j * kappa, mu, gamma, n)
        assert via_k.imag == pytest.approx(0.0, abs=1e-12 * abs(via_k))
        assert evanescent_residual(kappa, mu, gamma, n) == pytest.approx(
            -0.5 * via_k.real, rel=1e-12
        )


def _full_interval_scan(mu, gamma, n):
    """Reference: the former scan of (0, pi), every bracket polished with the
    numpy twin, trivial roots dropped and both k and pi - k deduplicated
    against every kept root; returns ``(k, e2)`` of each distinct root at
    the first grid that gives the locus count."""
    expected = (n - 2) // 2 if mu > 1 else (n - 4) // 2
    points = 20 * n
    for _ in range(4):
        ks = np.linspace(0.0, np.pi, points + 2)[1:-1]
        vals = _real_line(ks, mu, gamma, n)
        found = []
        for i in range(len(ks) - 1):
            if vals[i] == 0.0:
                found.append(float(ks[i]))
            elif vals[i] * vals[i + 1] < 0:
                found.append(brentq(_real_line, ks[i], ks[i + 1], args=(mu, gamma, n),
                                    xtol=1e-15, rtol=8.9e-16))
        distinct = []
        for k in sorted(k for k in found if abs(k - np.pi / 2) > 1e-9):
            e2 = 1 + mu * mu - 2 * mu * np.cos(2 * k)
            if not any(abs(e2 - other) < 1e-9 * max(1.0, abs(other)) for _, other in distinct):
                distinct.append((k, e2))
        if len(distinct) == expected:
            break
        points *= 3
    return distinct


class TestSolveRealK:
    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.1, 2.0])
    @pytest.mark.parametrize("n", [6, 14, 30, 66, 104, 192])
    def test_half_interval_scan_matches_full_scan(self, n, mu):
        gamma = gamma_ep(mu, n)
        try:
            roots = solve_real_k(mu, gamma, n)
        except RootScanError:
            roots = None  # the reference must then miss the count or the tolerance too
        reference = _full_interval_scan(mu, gamma, n)
        if roots is None:
            expected = (n - 2) // 2 if mu > 1 else (n - 4) // 2
            assert len(reference) != expected or max(
                normalized_residual(k, mu, gamma, n) for k, _ in reference) > 1e-12
            return
        assert [(r.k.real, r.epsilon) for r in roots[::2]] == [
            (k, float(np.sqrt(e2))) for k, e2 in reference]

    def test_six_site_topological(self):
        roots = solve_real_k(2.0, 0.25, 6)
        ks = sorted({r.k.real for r in roots})
        assert len(ks) == 2
        exact = [
            np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
            -np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
            np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
            -np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
        ]
        assert match_multisets([r.epsilon for r in roots], exact) < 1e-10

    def test_six_site_trivial(self):
        roots = solve_real_k(0.5, 4.0, 6)
        assert len({r.k.real for r in roots}) == 1
        exact = 0.5 * np.sqrt(2 * np.sqrt(238) - 25)
        assert match_multisets([r.epsilon for r in roots], [exact, -exact]) < 1e-10

    @pytest.mark.parametrize("n,mu", [(14, 1.5), (22, 2.0), (30, 0.5)])
    def test_matches_dense_solver(self, n, mu):
        gamma = gamma_ep(mu, n)
        roots = solve_real_k(mu, gamma, n)
        expected_count = (n - 2) // 2 if mu > 1 else (n - 4) // 2
        assert len({r.k.real for r in roots}) == expected_count
        es = eig(build_ssh(n, mu, gamma))
        real_values = [z for z in es.eigenvalues
                       if abs(z.imag) < 1e-6 * es.scale and abs(z) > 1e-6 * es.scale]
        assert match_multisets([r.epsilon for r in roots], real_values) < 1e-9

    def test_dispersion_identity_on_roots(self):
        for root in solve_real_k(1.5, gamma_ep(1.5, 10), 10):
            e2 = 1 + 1.5**2 - 1.5 * (
                cmath.exp(2j * root.k) + cmath.exp(-2j * root.k)
            )
            assert root.epsilon**2 == pytest.approx(e2, rel=1e-12)

    def test_scattering_band_bounds(self):
        for n, mu in [(10, 0.5), (14, 3.0)]:
            for root in solve_real_k(mu, gamma_ep(mu, n), n):
                assert abs(1 - mu) - 1e-10 <= abs(root.epsilon) <= 1 + mu + 1e-10

    def test_off_locus_warns(self):
        with pytest.warns(UserWarning, match="off the coalescence locus"):
            solve_real_k(1.5, 0.9, 10)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(bethe, "ROOT_TOLERANCE", 1e-30)
        with pytest.raises(RootScanError, match="> 1e-30"):
            solve_real_k(2.0, 0.25, 6)

    def test_uniform_chain_rejected(self):
        with pytest.raises(UniformChainError):
            solve_real_k(1.0, 1.0, 6)

    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.1, 1.5, 2.0])
    def test_residuals_are_normalized_residual_bit_for_bit(self, mu):
        # the roots are certified from one array evaluation of the terms
        for n in (6, 14, 30, 62, 90, 124, 156):
            gamma = gamma_ep(mu, n)
            for root in solve_real_k(mu, gamma, n):
                assert root.residual == normalized_residual(root.k, mu, gamma, n)
                assert root.epsilon == root.branch * math.sqrt(
                    1 + mu * mu - 2 * mu * np.cos(2 * root.k.real))


def _random_smooth(rng):
    """A seeded smooth function of one float: a sine sum, a polynomial or a
    tanh step on a slope."""
    kind = int(rng.integers(3))
    if kind == 0:
        c0 = float(rng.normal())
        terms = list(zip(rng.normal(size=3).tolist(), rng.uniform(0.2, 8.0, 3).tolist(),
                         rng.uniform(0.0, 2 * np.pi, 3).tolist()))
        return lambda x: c0 + sum(a * math.sin(w * x + p) for a, w, p in terms)
    if kind == 1:
        coefficients = rng.normal(size=int(rng.integers(2, 7))).tolist()

        def polynomial(x):
            value = 0.0
            for c in coefficients:
                value = value * x + c
            return value

        return polynomial
    a, b, c, d = rng.normal(size=4).tolist()
    return lambda x: a * math.tanh(10 * b * (x - c)) + 0.1 * d * x


class TestBrent:
    """The in-module polish against scipy.optimize.brentq, bit for bit."""

    @pytest.mark.parametrize("mu", [0.5, 0.8, 1.1, 1.5, 2.0, 0.3, 0.97, 0.999, 3.0])
    def test_every_scan_bracket_polishes_as_brentq(self, monkeypatch, mu):
        polished = []
        original = bethe._brent

        def recorded(f, a, b, args):
            root = original(f, a, b, args)
            polished.append((f, a, b, args, root))
            return root

        monkeypatch.setattr(bethe, "_brent", recorded)
        for n in range(6, 202, 2):
            try:
                solve_real_k(mu, gamma_ep(mu, n), n)
            except RootScanError:  # refused after its brackets were polished
                pass
        assert len(polished) > 1000
        differ = [(a, b, root) for f, a, b, args, root in polished
                  if root.hex() != brentq(f, a, b, args=args, xtol=1e-15, rtol=8.9e-16).hex()]
        assert differ == []

    def test_random_smooth_functions_polish_as_brentq(self):
        rng = np.random.default_rng(20261019)
        compared = 0
        while compared < 400:
            f = _random_smooth(rng)
            a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
            if f(a) * f(b) >= 0:
                continue
            root = bethe._brent(f, a, b)
            assert root.hex() == brentq(f, a, b, xtol=1e-15, rtol=8.9e-16).hex(), (a, b)
            compared += 1

    def test_steep_roots_polish_as_brentq(self):
        # sign(x - c) |x - c|^s with small s: interpolation overshoots, so
        # the step guards, not the interpolants, decide most steps
        rng = np.random.default_rng(20261020)
        for _ in range(600):
            c, s = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 1.0)
            a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
            if not a < c < b:
                continue

            def f(x):
                return math.copysign(abs(x - c) ** s, x - c)

            root = bethe._brent(f, a, b)
            assert root.hex() == brentq(f, a, b, xtol=1e-15, rtol=8.9e-16).hex(), (a, b, c, s)

    def test_a_nan_value_raises_value_error(self):
        def f(x):  # NaN around the root: the first secant step lands there
            return math.nan if 0.2 < x < 0.4 else x - 0.3

        with pytest.raises(ValueError, match="NaN") as ours:
            bethe._brent(f, 0.0, 1.0)
        with pytest.raises(ValueError) as theirs:
            brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert str(ours.value) == str(theirs.value)

    def test_a_bracket_that_cannot_converge_raises_runtime_error(self):
        def step(x):  # a jump at 1e-200, bracketed from 1e300: about 1000 halvings
            return -1.0 if x < 1e-200 else 1.0

        with pytest.raises(RuntimeError, match="^Failed to converge after 100 iterations.$"):
            bethe._brent(step, 0.0, 1e300)
        with pytest.raises(RuntimeError, match="^Failed to converge after 100 iterations.$"):
            brentq(step, 0.0, 1e300, xtol=1e-15, rtol=8.9e-16)

    def test_an_end_at_a_root_is_returned_as_is(self):
        assert bethe._brent(lambda x: x - 0.25, 0.25, 1.0) == 0.25
        assert bethe._brent(lambda x: x - 0.25, -1.0, 0.25) == 0.25
        root = bethe._brent(lambda x: x, -0.0, 1.0)
        assert root == 0.0 and math.copysign(1.0, root) == -1.0

    def test_ends_of_one_sign_raise_value_error(self):
        with pytest.raises(ValueError, match="^f\\(a\\) and f\\(b\\) must have different signs$"):
            bethe._brent(lambda x: x, 1.0, 2.0)


class TestSolveEvanescentPair:
    #: ``(kappa, |eps|, residual)`` of the pair, as first computed with one
    #: mpmath evaluation per hyperbolic term
    RECORDED = {
        (6, 0.5): (1.7071283311956245, 3.736793319180331, 1.960408418905049e-60),
        (14, 0.5): (4.505365090156951, 63.984372137754036, 4.750068014325438e-58),
        (30, 0.5): (10.050634116722224, 16383.999938964844, 1.4159976625246235e-52),
        (134, 0.5): (46.094287507236366, 7.378697629483821e+19, 1.0509738482431727e-44),
        (124, 0.8): (13.723328405823626, 815663.0584985868, 6.319123983198428e-50),
    }

    @pytest.mark.parametrize("n,mu", RECORDED)
    def test_fields_keep_their_recorded_bits(self, n, mu):
        kappa, eps, residual = self.RECORDED[n, mu]
        pair = solve_evanescent_pair(mu, gamma_ep(mu, n), n)
        assert [(r.k, r.branch, r.epsilon, r.residual, r.sector) for r in pair] == [
            (complex(0.0, kappa), +1, complex(0.0, eps), residual, "imaginary"),
            (complex(0.0, kappa), -1, complex(0.0, -eps), residual, "imaginary"),
        ]

    @pytest.mark.parametrize("n,mu", [(6, 0.5), (14, 0.5), (22, 0.8), (30, 0.5)])
    def test_matches_dense_solver(self, n, mu):
        gamma = gamma_ep(mu, n)
        pair = solve_evanescent_pair(mu, gamma, n)
        assert {r.branch for r in pair} == {+1, -1}
        assert all(r.sector == "imaginary" for r in pair)
        assert all(r.residual < 1e-30 for r in pair)
        es = eig(build_ssh(n, mu, gamma))
        imag_values = [z for z in es.eigenvalues
                       if abs(z.real) < 1e-8 * es.scale and abs(z.imag) > 1e-6 * es.scale]
        assert match_multisets([r.epsilon for r in pair], imag_values) < 1e-9

    def test_rejects_topological_side(self):
        with pytest.raises(ValueError):
            solve_evanescent_pair(1.5, gamma_ep(1.5, 10), 10)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite$"):
            solve_evanescent_pair(0.5, gamma, 14)

    @pytest.mark.parametrize("n,mu,seed", [(24, 0.97, 0.35028088607414826),
                                           (60, 0.99, 0.2964849076782925),
                                           (116, 0.999, 0.05752876918105317)])
    def test_an_unconverged_root_is_one_root_scan_error(self, n, mu, seed):
        # just past N*(mu) the asymptotic seed lies too far from the root
        with pytest.raises(RootScanError) as refused:
            solve_evanescent_pair(mu, gamma_ep(mu, n), n)
        assert str(refused.value) == (f"the evanescent root did not converge for n={n}, "
                                      f"mu={mu} from the seed kappa={seed!r}")
        assert refused.value.__cause__ is None and refused.value.__suppress_context__

    @pytest.mark.parametrize("n,mu,e2", [(20, 0.98503756, "5.9e-14"),
                                         (20, 0.98503383, "2.5e-14"),
                                         (40, 0.99625282, "2.6e-13")])
    def test_the_zero_mode_root_is_refused_as_the_pair(self, n, mu, e2):
        # findroot lands on kappa = ln(1/mu)/2, where eps^2 = 0; at (20, 0.98503756)
        # dense finds a real in-gap pair at +/-8.68e-3 and no imaginary one
        with pytest.raises(RootScanError) as refused:
            solve_evanescent_pair(mu, gamma_ep(mu, n), n)
        assert str(refused.value) == (f"the evanescent root for n={n}, mu={mu} is the "
                                      f"zero-mode root kappa = ln(1/mu)/2: |eps^2| = {e2} "
                                      f"<= {bethe.ZERO_ROOT_E2}")

    def test_a_root_with_a_real_eigenvalue_is_refused(self, monkeypatch):
        # kappa = 0.1 < ln(2)/2 at mu = 0.5 gives eps^2 = 0.23 > 0
        monkeypatch.setattr(bethe.mpmath, "findroot", lambda f, x0: mpmath.mpf("0.1"))
        with pytest.raises(RootScanError, match="^evanescent root has non-imaginary eigenvalue$"):
            solve_evanescent_pair(0.5, gamma_ep(0.5, 14), 14)


class TestRoots:
    @pytest.mark.parametrize("n,mu", [(6, 2.0), (14, 0.5), (30, 0.8), (22, 1.5)])
    def test_real_k_then_zero_mode_then_pair(self, n, mu):
        gamma = gamma_ep(mu, n)
        k = zero_mode_root(mu)
        zero = BetheRoot(k=k, branch=+1, epsilon=0.0, sector="imaginary",
                         residual=normalized_residual(k, mu, gamma, n))
        pair = solve_evanescent_pair(mu, gamma, n) if mu < 1 else []
        assert bethe.roots(mu, gamma, n) == [*solve_real_k(mu, gamma, n), zero, *pair]


class TestZeroMode:
    def test_six_site_mu2_vector(self):
        psi = zero_mode(6, 2.0).amplitudes
        target = np.array([4j, 1, -2j, -2, 1j, 4]) / np.sqrt(42.0)
        overlap = abs(np.vdot(target, psi))
        assert overlap > 1 - 1e-14

    def test_six_site_mu_half_vector(self):
        psi = zero_mode(6, 0.5).amplitudes
        target = np.array([1j, 4, -2j, -2, 4j, 1]) / np.sqrt(42.0)
        assert abs(np.vdot(target, psi)) > 1 - 1e-14

    @pytest.mark.parametrize("n,mu", [(6, 2.0), (10, 0.5), (30, 1.5), (30, 0.5)])
    def test_kernel_vectors(self, n, mu):
        gamma = gamma_ep(mu, n)
        h = build_ssh(n, mu, gamma)
        norm_inf = np.max(np.abs(h).sum(axis=1))
        psi = zero_mode(n, mu, "right").amplitudes
        eta = zero_mode(n, mu, "left").amplitudes
        assert np.max(np.abs(h @ psi)) <= 1e-12 * norm_inf
        assert np.max(np.abs(h.conj().T @ eta)) <= 1e-12 * norm_inf
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-13)
        assert abs(np.vdot(eta, psi)) < 1e-13
        assert np.max(np.abs(eta - psi.conj())) < 1e-15

    @pytest.mark.parametrize("n,sign", [(6, +1), (10, +1), (14, +1), (8, -1), (12, -1)])
    def test_parity_relation_sign(self, n, sign):
        # eta = +i P psi for n = 2 (mod 4); the staggered sign pattern of the
        # positive-coupling convention flips it to -i P psi for n = 0 (mod 4)
        psi = zero_mode(n, 1.7, "right").amplitudes
        eta = zero_mode(n, 1.7, "left").amplitudes
        p = parity_matrix(n)
        assert np.max(np.abs(eta - sign * 1j * (p @ psi))) < 1e-15

    def test_uniform_chain_rejected(self):
        with pytest.raises(UniformChainError):
            zero_mode(6, 1.0)

    @pytest.mark.parametrize("n,mu", [(1026, 2.0), (648, 3.0), (2048, 1.5)])
    def test_long_chains_above_the_uniform_coupling(self, n, mu):
        # mu**n overflows a float here; Omega is near its limit sqrt((mu^2-1)/2)/mu
        assert omega_constant(n, mu) == pytest.approx(np.sqrt((mu * mu - 1) / 2) / mu,
                                                      rel=1e-15)
        psi = zero_mode(n, mu).amplitudes
        assert np.all(np.isfinite(psi))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-13)
        h_psi = apply_ssh(n, mu, gamma_ep(mu, n), psi)
        assert np.max(np.abs(h_psi)) <= 1e-15 * (1 + mu)

    def test_amplitudes_extend_to_the_uniform_chain(self):
        assert np.array_equal(zero_mode_amplitudes(10, 2.0), zero_mode(10, 2.0).amplitudes)
        psi = zero_mode_amplitudes(10, 1.0)
        assert np.max(np.abs(build_ssh(10, 1.0, 1.0) @ psi)) <= 1e-15
        assert np.allclose(np.abs(psi), 1 / np.sqrt(10), rtol=0, atol=1e-16)
        with pytest.raises(ValueError):
            zero_mode_amplitudes(7, 1.0)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            zero_mode(6, 2.0, side="middle")

    def test_omega_constant_and_limit(self):
        assert omega_constant(6, 2.0) == pytest.approx(
            2.0**2 * np.sqrt((1 - 4.0) / (2 - 2 * 2.0**6)), rel=1e-15
        )
        # convergence |Omega_n - Omega_inf| <= C mu^-n, C fitted from n = 22, 30,
        # to the large-n limit Omega_inf = sqrt((mu^2 - 1) / 2) / mu
        C = 0.30
        limit = np.sqrt((1.5**2 - 1) / 2) / 1.5
        for n in range(6, 32, 2):
            gap = abs(omega_constant(n, 1.5) - limit)
            assert gap <= C * 1.5 ** (-n)


class TestRootMatching:
    def test_zero_mode_root_value(self):
        assert zero_mode_root(2.0) == 0.5j * np.log(2.0)

    def test_k_from_epsilon_inverts(self):
        mu = 1.5
        for eps in (2.2, 0.6, 1.3j, 0.0):
            k = k_from_epsilon(eps, mu)
            # dispersion eps^2 = 1 + mu^2 - mu (e^{2ik} + e^{-2ik})
            plus = cmath.sqrt(1 + mu * mu - mu * (cmath.exp(2j * k) + cmath.exp(-2j * k)))
            assert min(abs(plus - eps), abs(-plus - eps)) < 1e-12

    @pytest.mark.parametrize("n,mu", [(14, 0.5), (10, 2.0)])
    def test_every_level_maps_to_a_root(self, n, mu):
        gamma = gamma_ep(mu, n)
        es = eig(build_ssh(n, mu, gamma))
        pair = solve_evanescent_pair(mu, gamma, n) if mu < 1 else []
        residuals = match_spectrum_to_roots(classify_modes(es, mu, gamma), mu, gamma, n, pair)
        assert len(residuals) == n
        assert max(residuals) <= 1e-9

    #: sha256 of the float64 bytes of the residuals of each closed-form chain
    #: of ``verify`` (its grid chains, solved as there), recorded when the
    #: levels were matched from per-level records; they depend on the LAPACK
    #: eigenvalues, so as the spectrum digests of ``tests/test_cli.py`` they
    #: were recorded with numpy 2.4 on OpenBLAS; the mu = 1.5 and 2.0 rows
    #: were re-recorded when those chains took the sublattice product solve
    RESIDUAL_DIGESTS = {
        (6, 0.5): "bb29097505fcfbfe041ca4845ac5469725265bc3da5f76bea89d712efa616dd7",
        (6, 1.5): "d51ef03f5a29bf33a14595a23cad8cbf6690072bb56bab4a291a6825f3bc20d1",
        (6, 2.0): "ec222eb4bcd95c0f3a22db0e062b9fa114f94c7a4e2a1dae8cff04f41dcc4204",
        (10, 0.5): "64acf93c5a43e92acc971a3a887ba5ccfff6d2e07bb4f718dc89c2c6f7e1f5fd",
        (10, 1.5): "25a9f19c211f41661b2488a15ca844d8656f94ac00093a924fde32ec268598d6",
        (10, 2.0): "a88fa61846e2266aeaef2fdda59078b4e46e4745b08886da4af6d0f23538912a",
        (14, 0.5): "08b5c1aad7a3a6bdcc3b7e275f4580fccba237d3676d341c5b98d6106d14eedd",
        (14, 1.5): "52d7755791bd0fa26fe5fe7c52d0bbf016e43a74003dc56cd1fbc887d9a37522",
        (14, 2.0): "3e841c5c3fb94bfc9f16beb39becaec6dfc1bab4d4d240f1a634ab2e5f6c49be",
        (22, 0.5): "75403ad1430c31dec02df32ab642e3dfffcb025f786021182d4ab06d837d88a8",
        (22, 1.5): "896d38ed5f2d462c130c12fa717592c8ef57c577eb9f58f14ef27df4f0455a3b",
        (22, 2.0): "b7a4dc68f20b5611a311bb972c2d4fbd6fa21e977eba3df5273ce3f03f61554c",
        (30, 0.5): "b02f433dbf8aa2f377c38dc3e9ead3250d9e794e16ff575f94c50d89098db46a",
        (30, 1.5): "d7158a027bdb2c9741c8efe078dc402c82519d82aa4eca278ed4e026ac00cda8",
        (30, 2.0): "8aa38df4262b55da92a09a8d7f05621b4c230ae77267c2fa718ec36470c5302b",
    }

    def test_closed_form_chains_keep_their_recorded_residuals(self):
        assert sorted(self.RESIDUAL_DIGESTS) == [
            (n, mu) for n in verify.CLOSED_FORM_N for mu in verify.CLOSED_FORM_MU]
        solved = {}
        for (n, mu), digest in self.RESIDUAL_DIGESTS.items():
            gamma, modes = verify._grid_chain(n, mu, solved)
            pair = solve_evanescent_pair(mu, gamma, n) if mu < 1 else []
            residuals = match_spectrum_to_roots(modes, mu, gamma, n, pair)
            assert len(residuals) == n
            got = hashlib.sha256(np.array(residuals, dtype=float).tobytes()).hexdigest()
            assert got == digest, (n, mu)

    def test_levels_are_matched_by_class(self):
        # the pair's levels take the zero-mode root's residual, the imaginary
        # levels their evanescent root's, the others the inverted dispersion's
        n, mu = 14, 0.5
        gamma = gamma_ep(mu, n)
        modes = classify_modes(eig(build_ssh(n, mu, gamma)), mu, gamma)
        pair = solve_evanescent_pair(mu, gamma, n)
        residuals = match_spectrum_to_roots(modes, mu, gamma, n, pair)
        zero = normalized_residual(zero_mode_root(mu), mu, gamma, n)
        for i, (value, residual) in enumerate(zip(modes.coalesced.tolist(), residuals)):
            if i in modes.pair:
                assert residual == zero
            elif modes.imaginary[i]:
                assert residual == min(pair, key=lambda r: abs(r.epsilon - value)).residual
            else:
                k = k_from_epsilon(value, mu)
                assert k.imag == 0.0 or abs(k.imag) < 1e-9
                assert residual == normalized_residual(complex(k.real, 0.0), mu, gamma, n)

    def test_full_level_accounting(self):
        # scattering roots + zero-mode pair + imaginary pair exhaust n levels
        n, mu = 14, 0.5
        gamma = gamma_ep(mu, n)
        analytic = [r.epsilon for r in solve_real_k(mu, gamma, n)]
        analytic += [0.0, 0.0]
        analytic += [r.epsilon for r in solve_evanescent_pair(mu, gamma, n)]
        assert len(analytic) == n
        es = eig(build_ssh(n, mu, gamma))
        assert match_multisets(coalesced_eigenvalues(es), analytic) < 1e-9


class TestBetheRootValidation:
    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            BetheRoot(k=0.3, branch=2, epsilon=1.0, residual=0.0, sector="real")

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            BetheRoot(k=0.3, branch=1, epsilon=1.0, residual=0.0, sector="banana")
