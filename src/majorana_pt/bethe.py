"""Closed-form spectra of the SSH chain at the coalescence locus.

On the locus ``gamma = mu**(1 - n/2)`` the chain of :func:`~.model.build_ssh`
is solvable by a plane-wave ansatz

    f_l = A e^{ikl} + B e^{-ikl}   (odd sites l)
    f_l = C e^{ikl} + D e^{-ikl}   (even sites l)

with dispersion ``eps(k) = +/- sqrt(1 + mu^2 - mu (e^{2ik} + e^{-2ik}))`` and
a transcendental quantization condition on k (:func:`quantization_residual`).
The condition is written once, in ``_terms``; every evaluator (numpy, math,
cmath or mpmath, on real k or on ``k = i kappa``) passes its own ``sin`` and
``cos`` to it, and :func:`normalized_residual` measures its roots.
Three solution families exhaust the spectrum:

* real k in (0, pi): scattering levels with real eigenvalues
  (:func:`solve_real_k`), each bracket polished by an in-module Brent loop
  (:func:`_brent`) that returns ``scipy.optimize.brentq``'s root bit for
  bit, so the module needs no scipy,
* ``k = (i/2) ln mu``: the coalescing zero mode, in closed form
  (:func:`zero_mode`),
* ``k = i kappa`` with large real kappa, only for ``mu < 1``: a pair of
  end-localized levels with imaginary eigenvalues
  (:func:`solve_evanescent_pair`).

:func:`roots` lists the three families' roots in that order.

The sign convention matches :func:`~.model.build_ssh` (positive couplings);
closed-form amplitudes therefore carry the
:func:`~.model.staggered_signs` pattern.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np

from .model import on_locus, staggered_signs, _require_chain, _require_even_sites

__all__ = [
    "UniformChainError",
    "RootScanError",
    "BetheRoot",
    "ZeroModeWavefunction",
    "quantization_residual",
    "normalized_residual",
    "solve_real_k",
    "solve_evanescent_pair",
    "roots",
    "zero_mode",
    "zero_mode_amplitudes",
    "zero_mode_root",
    "omega_constant",
    "k_from_epsilon",
    "match_spectrum_to_roots",
]

#: Largest :func:`normalized_residual` :func:`solve_real_k` accepts at a root.
ROOT_TOLERANCE = 1e-12

#: Threefold grid refinements :func:`solve_real_k` makes before it gives up.
_MAX_REFINEMENTS = 3

#: Least working digits of the extended-precision evanescent root.
_EVANESCENT_DPS = 60

#: Largest ``|eps^2|`` at which :func:`solve_evanescent_pair` takes its converged
#: root for the zero-mode root ``kappa = ln(1/mu)/2``, where ``eps^2 = 0``.  Near
#: the onset of the imaginary pair, for N = 8 to 80, findroot's landings on that
#: root left ``|eps^2| <= 1.5e-12`` and the true pairs ``|eps^2| >= 4.8e-6``.
ZERO_ROOT_E2 = 1e-9


class UniformChainError(ValueError):
    """mu = 1 collapses the dimerization; the closed forms divide by 1 - mu^2."""


class RootScanError(RuntimeError):
    """The root scan did not reproduce the expected level count."""


def _require_mu(mu: float, *, forbid_uniform: bool = False) -> float:
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if forbid_uniform and mu == 1.0:
        raise UniformChainError(
            "mu = 1 is the uniform chain; the dimerized closed forms do not apply"
        )
    return mu


def _terms(k, mu, gamma, n: int, sin=np.sin, cos=np.cos):
    """The three terms of ``quantization_residual(k) / 2i``.  ``sin``/``cos``
    pick the evaluator: numpy for a real grid, ``math`` for a real scalar,
    ``cmath`` for complex k; ``sinh``/``cosh`` (numpy or mpmath) at real kappa
    give the terms at ``k = i kappa``, where the condition is -2 times their sum."""
    e2 = 1 + mu * mu - 2 * mu * cos(2 * k)
    return (
        (e2 - gamma * gamma - 1) * sin((n - 2) * k),
        mu * sin((n - 4) * k),
        mu * (gamma * gamma + e2) * sin(n * k),
    )


def _real_line(k, mu, gamma, n: int, sin=np.sin, cos=np.cos):
    """quantization_residual / 2i along real k: a real, sign-changing function,
    odd about pi/2 for even n.  With ``sinh``/``cosh`` it vanishes at kappa = 0
    and ``+/- (1/2) ln mu``; for even n ``k = pi + i kappa`` gives the same."""
    t1, t2, t3 = _terms(k, mu, gamma, n, sin, cos)
    return t1 + t2 + t3


def _normalized(terms) -> float:
    """``|t1 + t2 + t3| / max |t_i|``: the residual free of the terms' growth."""
    t1, t2, t3 = terms
    return float(abs(t1 + t2 + t3) / max(abs(t1), abs(t2), abs(t3), 1e-300))


def quantization_residual(k: complex, mu: float, gamma: float, n: int) -> complex:
    """Value of the wave-vector quantization condition at k.

    Evaluates

        (eps_k^2 - gamma^2 - 1) [e^{i(n-2)k} - e^{-i(n-2)k}]
        + mu [e^{i(n-4)k} - e^{-i(n-4)k}]
        + mu (gamma^2 + eps_k^2) [e^{ink} - e^{-ink}]

    which vanishes exactly on allowed wave vectors.  Along real k the value
    is 2i times a real function; along ``k = i kappa`` it is purely real.
    """
    _require_mu(mu)
    _require_even_sites(n)
    return 2j * _real_line(complex(k), mu, gamma, n, cmath.sin, cmath.cos)


def normalized_residual(k: complex, mu: float, gamma: float, n: int) -> float:
    """``|quantization_residual(k)|`` over its largest term's magnitude: free of
    the terms' exponential growth, the smallness measure of a root at any k."""
    return _normalized(_terms(complex(k), mu, gamma, n, cmath.sin, cmath.cos))


@dataclass(frozen=True)
class BetheRoot:
    """One solution of the quantization condition, per eigenvalue branch.

    ``residual`` is the :func:`normalized_residual` of k.  ``sector`` is
    "real" for scattering roots and "imaginary" for evanescent ones
    (``k = i kappa``; for even chains the ``pi + i kappa`` sector coincides).
    """

    k: complex
    branch: int
    epsilon: complex
    residual: float
    sector: str

    def __post_init__(self):
        if self.branch not in (+1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")
        if self.sector not in ("real", "imaginary"):
            raise ValueError(f"unknown sector {self.sector!r}")


def solve_real_k(mu: float, gamma: float, n: int) -> list[BetheRoot]:
    """All scattering roots: real k in (0, pi), both eigenvalue branches.

    Scans a uniform grid of 20n points on (0, pi) for sign changes of the
    real quantization function and polishes each bracket with Brent's
    method (:func:`_brent`, which returns ``scipy.optimize.brentq``'s root
    bit for bit, at ``xtol = 1e-15`` and ``rtol = 8.9e-16``, with both ends
    re-evaluated by the ``math`` twin of the grid's function).  For even n
    the function is odd about pi/2 and k, pi - k carry the same eigenvalue
    pair, so only the brackets below pi/2 are scanned; they exclude the
    trivial roots k = 0, pi/2, where every sine factor vanishes.  ``eps^2``
    grows with k there, so a root within 1e-9 of the previous one in
    ``eps^2`` is a duplicate.  On the coalescence locus the
    number of distinct roots must equal (n-2)/2 for mu > 1 and (n-4)/2 for
    mu < 1; the grid is refined threefold, up to three times, before giving
    up.  A root whose normalized residual exceeds ``ROOT_TOLERANCE`` raises
    :class:`RootScanError`.  A gamma that is not finite, or whose
    ``(1 + mu) gamma^2`` overflows a float, raises ``ValueError`` before the scan.

    Returns two :class:`BetheRoot` entries per distinct k, one per branch,
    ordered by ascending k then descending branch.
    """
    mu = _require_mu(mu, forbid_uniform=True)
    _require_chain(n, mu, gamma)
    if not math.isfinite((1 + mu) * gamma * gamma):
        # on the locus gamma^2 = mu^(2 - N): the largest even N it stays finite at
        largest = 2 + 2 * int((math.log(sys.float_info.max) - math.log1p(mu))
                              / (2 * abs(math.log(mu))))
        raise ValueError(f"gamma^2 = {gamma!r}**2 overflows the quantization terms at "
                         f"N={n}, mu={mu}" + (f"; the largest N for mu={mu} is {largest}"
                                              if mu < 1 else ""))
    expected = None
    if not on_locus(mu, n, gamma):
        warnings.warn(
            f"gamma={gamma!r} is off the coalescence locus mu**(1 - n/2); "
            "the root census is not enforced",
            stacklevel=2,
        )
    else:
        expected = (n - 2) // 2 if mu > 1 else (n - 4) // 2

    points = 20 * n
    for _ in range(_MAX_REFINEMENTS + 1):
        ks = np.linspace(0.0, np.pi, points + 2)[1:points // 2 + 1]  # below pi/2
        vals = _real_line(ks, mu, gamma, n)
        signs = np.sign(vals)  # a product of the values overflows once gamma^2 is large
        polished = np.array([
            ks[i] if vals[i] == 0.0 else _brent(
                _real_line, ks[i], ks[i + 1], (mu, gamma, n, math.sin, math.cos))
            for i in np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0))
        ], dtype=float)
        e2 = 1 + mu * mu - 2 * mu * np.cos(2 * polished)
        distinct, last = [], None  # the indices of the distinct roots
        for i, level in enumerate(e2.tolist()):
            if last is None or level - last >= 1e-9 * max(1.0, last):
                distinct.append(i)
                last = level
        if expected is None or len(distinct) == expected:
            break
        points *= 3
    if expected is not None and len(distinct) != expected:
        raise RootScanError(
            f"found {len(distinct)} distinct scattering roots for n={n}, "
            f"mu={mu}; census expects {expected}"
        )

    # normalized_residual of every root from one evaluation: along real k
    # the terms are real, and numpy's equal its complex ones bit for bit
    polished, e2 = polished[distinct], e2[distinct]
    terms = _terms(polished, mu, gamma, n)
    residuals = np.abs(sum(terms)) / np.abs(terms).max(axis=0, initial=1e-300)
    roots: list[BetheRoot] = []
    for k, eps, res in zip(polished.tolist(), np.sqrt(e2).tolist(), residuals.tolist()):
        if res > ROOT_TOLERANCE:
            raise RootScanError(
                f"polished root k={k} has normalized residual {res:.3e} > "
                f"{ROOT_TOLERANCE}"
            )
        for branch in (+1, -1):
            roots.append(
                BetheRoot(
                    k=complex(k), branch=branch, epsilon=branch * eps,
                    residual=res, sector="real",
                )
            )
    return roots


def _brent(f, a, b, args=()) -> float:
    """A root of ``f(x, *args)`` bracketed by ``[a, b]``, by Brent's method.

    Step for step the loop of ``scipy.optimize.brentq`` (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4) at ``xtol = 1e-15``
    and ``rtol = 8.9e-16``: secant or inverse quadratic steps inside the
    bracket, bisection when they would not shrink it fast enough, and steps
    of at least ``delta = (xtol + rtol |x|) / 2``; so it returns the same
    double.  An end where ``f`` is zero is returned
    as is.  A NaN value of ``f`` raises ``ValueError``, as do ends of one
    sign; no convergence within 100 steps raises ``RuntimeError``.
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre, *args))
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = float(f(xcur, *args))
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end as xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-15 + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator gives no step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denominator = dblk * dpre * (fblk - fpre)
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denominator
                        if denominator else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur, *args))
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _nan_value(x) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def _memoised(function):
    """``function`` of one mpmath number, evaluated once per argument and
    working precision: ``findroot`` works 20 bits above the caller."""
    values = {}

    def memoised(x):
        # the raw (sign, mantissa, exponent, bits) tuple keys the same value
        # as the mpf itself, without mpmath's slower mpf hash
        key = (x._mpf_, mpmath.mp.prec)
        if key not in values:
            values[key] = function(x)
        return values[key]

    return memoised


def solve_evanescent_pair(mu: float, gamma: float, n: int) -> list[BetheRoot]:
    """Exact imaginary-eigenvalue pair for mu < 1, by high-precision root finding.

    The quantization condition along ``k = i kappa``, rescaled by
    ``sinh(n kappa)`` to keep every term of order one, is solved with a
    Newton iteration seeded at the asymptotic root
    ``kappa = (n-1)/2 * ln(1/mu)``.  The individual hyperbolic terms reach
    ~ e^{n kappa} while the balanced combination ``gamma^2 + eps^2`` is of
    order one, so double precision cannot certify small residuals here;
    extended precision can, and the result rounds back to a float root.
    ``gamma^2 + eps^2`` cancels ``L = (n-2) log10(1/mu)`` digits and the
    iteration stops only when the squared residual is under the working
    epsilon, so it works with ``max(60, 2 ceil(L) + 4)`` digits.

    A converged root with ``|eps^2| <= ZERO_ROOT_E2`` is the zero-mode root,
    not the pair, and one with ``eps^2 > 0`` is no imaginary level; both
    raise :class:`RootScanError`.

    Returns the two branches (+i|eps|, -i|eps|) as :class:`BetheRoot` with
    sector "imaginary".
    """
    mu = _require_mu(mu, forbid_uniform=True)
    _require_chain(n, mu, gamma)
    if mu >= 1:
        raise ValueError("the imaginary pair exists only for mu < 1")
    cancelled = math.ceil((n - 2) * math.log10(1 / mu))
    with mpmath.workdps(max(_EVANESCENT_DPS, 2 * cancelled + 4)):
        mmu = mpmath.mpf(repr(mu))
        mgam = mpmath.mpf(repr(gamma))
        sinh, cosh = _memoised(mpmath.sinh), _memoised(mpmath.cosh)

        def rescaled(kappa):
            return _real_line(kappa, mmu, mgam, n, sinh, cosh) / sinh(n * kappa)

        seed = (mpmath.mpf(n) - 1) / 2 * mpmath.log(1 / mmu)
        try:
            kappa = mpmath.findroot(rescaled, seed)
        except ValueError:  # mpmath's own error spans two lines of 60-digit numbers
            raise RootScanError(f"the evanescent root did not converge for n={n}, mu={mu} "
                                f"from the seed kappa={float(seed)!r}") from None
        e2 = 1 + mmu * mmu - 2 * mmu * cosh(2 * kappa)
        if abs(e2) <= ZERO_ROOT_E2:
            raise RootScanError(f"the evanescent root for n={n}, mu={mu} is the zero-mode "
                                f"root kappa = ln(1/mu)/2: |eps^2| = {float(abs(e2)):.1e} "
                                f"<= {ZERO_ROOT_E2}")
        if e2 > 0:
            raise RootScanError("evanescent root has non-imaginary eigenvalue")
        # the sinh(n kappa) rescaling cancels in the normalized residual
        residual = _normalized(_terms(kappa, mmu, mgam, n, sinh, cosh))
        k_root = complex(0.0, float(kappa))
        eps = float(mpmath.sqrt(-e2))
    return [
        BetheRoot(k=k_root, branch=+1, epsilon=1j * eps, residual=residual, sector="imaginary"),
        BetheRoot(k=k_root, branch=-1, epsilon=-1j * eps, residual=residual, sector="imaginary"),
    ]


def roots(mu: float, gamma: float, n: int) -> list[BetheRoot]:
    """Every root of the chain on the locus, in one list: :func:`solve_real_k`'s
    roots, then the zero-mode root (:func:`zero_mode_root`, branch +,
    ``eps = 0``), then for mu < 1 the :func:`solve_evanescent_pair`."""
    found = solve_real_k(mu, gamma, n)
    k = zero_mode_root(mu)
    found.append(BetheRoot(k=k, branch=+1, epsilon=0.0, sector="imaginary",
                           residual=normalized_residual(k, mu, gamma, n)))
    if mu < 1:
        found.extend(solve_evanescent_pair(mu, gamma, n))
    return found


def zero_mode_root(mu: float) -> complex:
    """Wave vector ``(i/2) ln mu`` of the coalescing zero mode."""
    _require_mu(mu, forbid_uniform=True)
    return 0.5j * np.log(mu)


def omega_constant(n: int, mu: float) -> float:
    """Dirac normalization ``mu^{n/2-1} sqrt((1 - mu^2) / (2 - 2 mu^n))``.

    Where ``mu^n`` overflows a float (mu > 1 only, from n = 1024 at mu = 2)
    it returns the equal ``sqrt((mu^2 - 1) / (2 - 2 mu^-n)) / mu``.
    """
    _require_even_sites(n)
    mu = _require_mu(mu, forbid_uniform=True)
    try:
        return mu ** (n // 2 - 1) * np.sqrt((1 - mu * mu) / (2 - 2.0 * mu ** n))
    except OverflowError:
        return np.sqrt((mu * mu - 1) / (2 - 2.0 * mu ** -n)) / mu


@dataclass(frozen=True)
class ZeroModeWavefunction:
    """Closed-form coalescing zero mode (right) or its left partner.

    Odd-site amplitudes are ``s_l Omega mu^{1-j}`` and even-site ones
    ``-/+ i s_l Omega mu^{j - n/2}`` (minus for the right vector, plus for
    the left), ``j = 1..n/2``, where ``s_l`` is the staggered sign pattern
    of the positive-coupling convention.  The vector is Dirac-normalized;
    the left/right pair is biorthogonal with zero overlap, which is the
    coalescence signature.
    """

    n: int
    mu: float
    side: str
    omega: float
    amplitudes: np.ndarray


def zero_mode(n: int, mu: float, side: str = "right") -> ZeroModeWavefunction:
    """Coalescing zero mode of the chain at ``gamma = gamma_ep(mu, n)``.

    The right vector is annihilated by ``build_ssh(n, mu, gamma_ep(mu, n))``
    and the left one by its conjugate transpose.  ``mu = 1`` is rejected:
    the normalization degenerates to 0/0 on the uniform chain.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    _require_even_sites(n)
    mu = _require_mu(mu, forbid_uniform=True)
    omega = omega_constant(n, mu)
    decay = mu ** (1.0 - np.arange(1, n // 2 + 1))  # mu^(1-j); reversed, mu^(j - n/2)
    amps = np.empty(n, dtype=complex)
    amps[0::2] = omega * decay
    sign = -1j if side == "right" else +1j
    amps[1::2] = sign * omega * decay[::-1]
    amps *= staggered_signs(n)
    return ZeroModeWavefunction(n=n, mu=mu, side=side, omega=float(omega), amplitudes=amps)


def zero_mode_amplitudes(n: int, mu: float) -> np.ndarray:
    """Right amplitudes of :func:`zero_mode`, extended to the uniform chain.

    At ``mu = 1`` they are zero_mode's limit, ``|psi_j| = 1/sqrt(n)`` with
    the phases ``1, -i`` on odd and even sites times the staggered signs.
    """
    if mu == 1.0:
        _require_even_sites(n)
        return np.tile([1, -1j], n // 2) * staggered_signs(n) / np.sqrt(n)
    return zero_mode(n, mu).amplitudes


def k_from_epsilon(epsilon: complex, mu: float) -> complex:
    """Invert the dispersion: a wave vector with the given eigenvalue.

    Solves ``cos 2k = (1 + mu^2 - eps^2) / (2 mu)`` with the principal
    branch.  Real eigenvalues inside the scattering band give real k;
    eigenvalue zero gives the zero-mode root; imaginary eigenvalues give
    ``k = i kappa``.
    """
    mu = _require_mu(mu)
    z = (1 + mu * mu - complex(epsilon) ** 2) / (2 * mu)
    return 0.5 * cmath.acos(z)


def match_spectrum_to_roots(
    modes,
    mu: float,
    gamma: float,
    n: int,
    imag_pair: list[BetheRoot],
) -> list[float]:
    """Normalized quantization residual of every level of a classified chain.

    ``modes`` is the chain's :class:`~.spectral.Classification`.  Real
    scattering levels are inverted through the dispersion, and the
    coalescing pair is the zero-mode root; the imaginary levels are matched
    against ``imag_pair``, the caller's :func:`solve_evanescent_pair` roots
    (``[]`` for mu > 1), whose residual certificate survives the hyperbolic
    term growth.  Returns the residuals in level order.
    """
    mu = _require_mu(mu, forbid_uniform=True)
    imaginary = modes.imaginary.tolist()
    residuals = []
    for i, value in enumerate(modes.coalesced.tolist()):
        if imaginary[i]:
            res = min(imag_pair, key=lambda r: abs(r.epsilon - value)).residual
        else:
            if i in modes.pair:
                k = zero_mode_root(mu)
            else:
                k = k_from_epsilon(value, mu)
                k = complex(k.real, 0.0) if abs(k.imag) < 1e-9 else k
            res = normalized_residual(k, mu, gamma, n)
        residuals.append(res)
    return residuals
