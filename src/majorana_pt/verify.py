"""Verification suite: the checks that pin the library to its exact results.

Each criterion is a function of ``solved``, the run's cache of grid
chains (see :func:`_grid_chain`), returning its checks, a list of
``(passed, detail)`` pairs.  :func:`run_criteria` executes a filtered
subset, makes each one's :class:`CriterionResult` from its checks (its id
from :data:`CRITERIA`, its time from one timer) and shares one cache among
them, so a run solves and analyses each grid chain once; only the six-site
criteria, whose budget times a real solve, and the rings are solved outside
it.  A ring's levels come from ``np.linalg.eigvals`` of the ring itself, an
oracle apart from the chain solve that :func:`~.spectral.eig` lifts a ring
from.  The numerical bounds are the fixed constants of :mod:`.spectral`.
The six-site chains have fully explicit spectra and eigenvectors, the
censuses and closed forms are checked across the desk-scale grid
(n up to 30, matrices up to 60 x 60), and dense eigensolves serve as the
independent oracle for everything the closed forms claim.  The grid is
filled one chain length at a time: the six couplings of a length are
solved in one stacked real solve per route (the three with mu > 1 from
their sublattice products, :func:`~.spectral.chain_eigensystems`),
then classified together, each chain exactly as if alone.  The grid
criteria read each chain's :class:`~.spectral.Classification`: its mode
codes, pair indices and coalesced spectrum.

The census classifies eigenvalues alone and takes its coalescing pair from
the spectral gap and the closed-form zero mode; ``mode-census`` also
requires the pair's two right eigenvectors, and no other, to be parallel
to the closed-form zero mode, and no two others to each other, so the
eigenvalue and eigenvector routes check each other.  The pair is checked
against the closed form, not against each other, since on the product
route both its columns hold one solver vector.

Numerically split coalescing pairs are compared through their centroid: a
defective pair computed in double precision splits by the square root of
the backward error, and the centroid cancels that split's leading term.
The grid chains read it from their classification, the six-site chains
from :func:`~.spectral.coalesced_eigenvalues`, and the rings take it over
their four levels of least modulus, the two split pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analysis, bethe, model, spectral

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]

GRID_N = list(range(6, 32, 2))
GRID_MU_TOPO = [1.5, 2.0, 3.0]     # mu > 1: census (0, 1, n-2)
GRID_MU_TRIV = [0.3, 0.5, 0.8]     # mu < 1: census (2, 1, n-4)
CLOSED_FORM_N = [6, 10, 14, 22, 30]
CLOSED_FORM_MU = [0.5, 1.5, 2.0]


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    passed: bool
    detail: str
    elapsed: float


def _six_site_case(mu, gamma, exact_values, target_vector, time_budget=None):
    h = model.build_ssh(6, mu, gamma)
    np.linalg.eig(np.eye(2, dtype=complex))  # warm the solver path before timing
    t0 = time.thread_time()  # CPU time: a preempted thread is not charged
    es = spectral.eig(h)
    clusters = spectral.detect_coalescence(es)
    elapsed_core = time.thread_time() - t0

    checks = []
    values = spectral.coalesced_eigenvalues(es)
    err = spectral.match_multisets(values, exact_values)
    checks.append((err <= 1e-10, f"eigenvalue error {err:.2e} <= 1e-10"))

    if len(clusters) == 1 and len(clusters[0].indices) == 2:
        cluster = clusters[0]
        target = target_vector / np.linalg.norm(target_vector)
        overlaps = [
            abs(np.vdot(target, es.right[:, i])) for i in cluster.indices
        ]
        overlaps.append(abs(np.vdot(target, cluster.right_vector)))
        worst = min(overlaps)
        checks.append(
            (worst >= 1 - 1e-10, f"zero-vector overlap {worst:.12f} >= 1 - 1e-10")
        )
        biorth = abs(cluster.biorth_norm)
        checks.append((biorth <= 1e-10, f"coalesced biorth norm {biorth:.2e} <= 1e-10"))
    else:
        checks.append((False, f"expected one two-fold cluster, got {clusters}"))

    if time_budget is not None:
        checks.append(
            (elapsed_core < time_budget,
             f"runtime {elapsed_core * 1e3:.2f} ms < {time_budget * 1e3:.0f} ms")
        )
    return checks


def six_site_mu2(solved):
    exact = [
        0.0, 0.0,
        np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
        -np.sqrt(350 + 2 * np.sqrt(3553)) / 8,
        np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
        -np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
    ]
    target = np.array([4j, 1, -2j, -2, 1j, 4], dtype=complex)
    return _six_site_case(2.0, 0.25, exact, target, time_budget=0.010)


def six_site_mu_half(solved):
    exact = [
        0.0, 0.0,
        0.5j * np.sqrt(2 * np.sqrt(238) + 25),
        -0.5j * np.sqrt(2 * np.sqrt(238) + 25),
        0.5 * np.sqrt(2 * np.sqrt(238) - 25),
        -0.5 * np.sqrt(2 * np.sqrt(238) - 25),
    ]
    target = np.array([1j, 4, -2j, -2, 4j, 1], dtype=complex)
    return _six_site_case(0.5, 4.0, exact, target)


def mode_census(solved):
    started = time.perf_counter()
    failures = []
    mus = GRID_MU_TOPO + GRID_MU_TRIV
    for n in GRID_N:
        modes = [_grid_chain(n, mu, solved)[1] for mu in mus]
        # the eigenvector route: the pair's unit right vectors, and no other,
        # must be parallel to the unit closed-form zero mode that certified
        # the pair, and no two others to each other; one Gram stack for the
        # six chains.  At +gamma_ep right = Q V, with V the real-form vectors
        # and Q unitary, so the overlaps and the Gram moduli are read from V
        # and the zero mode in the real form, Q^dag psi = (psi - i P psi) / sqrt(2)
        vectors = np.array([classified.es.vectors for classified in modes])
        paired = np.zeros((len(mus), n), dtype=bool)
        for row, classified in zip(paired, modes):
            row[classified.pair] = True
        psi = spectral._real_form(np.array([classified.psi for classified in modes]))
        along = np.abs(np.einsum("si,sij->sj", psi.conj(), vectors)) >= 1.0 - spectral.EP_TOLERANCE
        gram = np.abs(vectors.conj().transpose(0, 2, 1) @ vectors)
        gram[:, np.arange(n), np.arange(n)] = 0.0
        parallel = (gram >= 1.0 - spectral.EP_TOLERANCE) & ~paired[:, :, None] & ~paired[:, None, :]
        strays, merges = (along != paired).any(axis=1).tolist(), parallel.any(axis=(1, 2)).tolist()
        for i, (mu, classified) in enumerate(zip(mus, modes)):
            expected = (0, 1, n - 2) if mu > 1 else (2, 1, n - 4)
            census = classified.census
            got = (census.n_I, census.n_EP, census.n_S)
            if got != expected:
                failures.append(f"(n={n}, mu={mu}): {got} != {expected}")
            if strays[i]:
                failures.append(f"(n={n}, mu={mu}): eigenvectors along the closed-form "
                                f"zero mode at levels {np.flatnonzero(along[i]).tolist()}, "
                                f"not the pair {classified.pair}")
            if merges[i]:
                failures.append(f"(n={n}, mu={mu}): levels "
                                f"{sorted(np.argwhere(parallel[i])[0].tolist())} "
                                f"outside the pair have parallel eigenvectors")
    elapsed = time.perf_counter() - started
    return [
        (not failures, f"{len(GRID_N) * 6} grid points match the expected censuses, "
         "each pair confirmed by its eigenvectors"
         + ("" if not failures else f"; failures: {failures[:4]}")),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s"),
    ]


def zero_mode_closed_form(solved):
    worst_res = worst_biorth = worst_parity = worst_conj = 0.0
    for n in CLOSED_FORM_N:
        p = model.parity_matrix(n)
        for mu in CLOSED_FORM_MU:
            gamma = model.gamma_ep(mu, n)
            h = model.build_ssh(n, mu, gamma)
            norm_inf = np.max(np.abs(h).sum(axis=1))
            psi = bethe.zero_mode(n, mu, "right").amplitudes
            eta = bethe.zero_mode(n, mu, "left").amplitudes
            worst_res = max(
                worst_res,
                np.max(np.abs(h @ psi)) / norm_inf,
                np.max(np.abs(h.conj().T @ eta)) / norm_inf,
            )
            worst_biorth = max(worst_biorth, abs(np.vdot(eta, psi)))
            # the closed-form grid has n = 2 (mod 4), where eta = +i P psi
            worst_parity = max(worst_parity, np.max(np.abs(eta - 1j * (p @ psi))))
            worst_conj = max(worst_conj, np.max(np.abs(eta - np.conj(psi))))
    return [
        (worst_res <= 1e-12, f"residual/||h|| {worst_res:.2e} <= 1e-12"),
        (worst_biorth <= 1e-12, f"<eta|psi> {worst_biorth:.2e} <= 1e-12"),
        (worst_parity <= 1e-14, f"eta = i P psi to {worst_parity:.2e} <= 1e-14"),
        (worst_conj <= 1e-14, f"eta = conj(psi) to {worst_conj:.2e} <= 1e-14"),
    ]


def bethe_spectrum_equivalence(solved):
    worst_match = worst_root_res = 0.0
    for n in CLOSED_FORM_N:
        for mu in CLOSED_FORM_MU:
            gamma, modes = _grid_chain(n, mu, solved)
            roots = bethe.roots(mu, gamma, n)
            pair = roots[-2:] if mu < 1 else []
            analytic = [r.epsilon for r in roots]
            analytic.insert(analytic.index(0.0), 0.0)  # the coalescing pair's two levels
            worst_match = max(worst_match, spectral.match_multisets(modes.coalesced, analytic))
            residuals = bethe.match_spectrum_to_roots(modes, mu, gamma, n, pair)
            worst_root_res = max(worst_root_res, max(residuals))
    return [
        (worst_match <= 1e-9, f"spectrum match {worst_match:.2e} <= 1e-9"),
        (worst_root_res <= 1e-9,
         f"per-level quantization residual {worst_root_res:.2e} <= 1e-9"),
    ]


def evanescent_asymptotics(solved):
    mu = 0.5
    ratios = []
    for n in GRID_N:
        gamma, modes = _grid_chain(n, mu, solved)
        imag = modes.es.eigenvalues[modes.imaginary]
        # |eps| by hypot, bit for bit Python's abs(complex)
        ratios.append(max(np.hypot(imag.real, imag.imag).tolist()) / gamma)
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    err6 = abs(1 - ratios[0])
    exact6 = 0.5 * np.sqrt(2 * np.sqrt(238) + 25)
    cross = abs(ratios[0] - exact6 / 4.0)
    errs_large = [abs(1 - r) for n, r in zip(GRID_N, ratios) if n >= 14]
    return [
        (monotone, "|eps_IM|/gamma increases monotonically toward 1"),
        (err6 <= 0.10, f"relative error {err6:.4f} <= 10% at n=6"),
        (cross <= 1e-10, f"n=6 ratio agrees with the explicit radical ({cross:.2e})"),
        (max(errs_large) <= 0.01,
         f"relative error {max(errs_large):.2e} <= 1% for n >= 14"),
    ]


def block_decomposition(solved):
    worst_leak = worst_spec = 0.0
    scales = []
    for n in (6, 10, 14):
        for mu in (0.5, 2.0):
            gamma = model.gamma_ep(mu, n)
            params = model.ModelParams(n=n, mu=mu, gamma=gamma)
            ring = model.build_majorana_ring(params)
            blocks = model.decompose_blocks(ring, n)
            ring_norm = np.max(np.abs(ring).sum(axis=1))
            worst_leak = max(worst_leak, blocks.leakage / ring_norm)
            s = model.fit_block_scale(blocks.h_plus, mu, gamma)
            scales.append(s)
            # an oracle apart from the chain: the ring's own dense levels,
            # its two split EP pairs (the four least |eps|) at their centroid
            ring_values = np.linalg.eigvals(ring)
            ep = np.argsort(np.abs(ring_values))[:4]
            ring_values[ep] = np.mean(ring_values[ep])
            ring_values /= s
            ssh_values = _grid_chain(n, mu, solved)[1].coalesced
            union = np.concatenate([ssh_values, ssh_values.conj()])
            worst_spec = max(worst_spec, spectral.match_multisets(ring_values, union))
    scale_dev = max(abs(s - 0.5) for s in scales)
    return [
        (worst_leak <= 1e-13, f"leakage {worst_leak:.2e} <= 1e-13 * ||h||"),
        (worst_spec <= 1e-10, f"spectrum(h)/s vs SSH union: {worst_spec:.2e} <= 1e-10"),
        (scale_dev <= 1e-12, f"fitted scale s = 1/2 to {scale_dev:.2e}"),
    ]


def common_part(solved):
    mu = 1.5
    worst_ratio = 0.0
    for n in (14, 22, 30):
        profile = analysis.dirac_distribution(bethe.zero_mode(n, mu))
        j = np.arange(1, n // 2 + 1)
        expected = mu ** (1.0 - j)
        worst_ratio = max(worst_ratio, np.max(np.abs(profile[0::2] / profile[0] - expected)))
    dev_a = analysis.common_part_compare(14, 22, mu)
    dev_b = analysis.common_part_compare(22, 30, mu)
    return [
        (worst_ratio <= 1e-14, f"odd-site ratio identity to {worst_ratio:.2e} <= 1e-14"),
        (dev_a <= 5e-3, f"deviation(14, 22) = {dev_a:.2e} <= 5e-3"),
        (dev_b < dev_a, f"deviation(22, 30) = {dev_b:.2e} < deviation(14, 22)"),
    ]


def _grid_chain(n, mu, solved):
    """``(gamma, modes)`` of the grid point ``(n, mu)``: ``gamma_ep`` and the
    chain's :class:`~.spectral.Classification`, whose ``es`` is its
    eigensystem.  ``solved`` is the run's cache, keyed on ``(n, mu)``.

    A miss solves and classifies the chains of length ``n`` at the six grid
    couplings, in order, in one stacked pass at ``gamma_ep``:
    :func:`~.spectral.chain_eigensystems`, then
    :func:`~.spectral.classify_stack`, and caches each chain's ``(gamma,
    row)``.  A row that the pass refused is the error, from the solve or
    the classification, that is raised on each read, so it fails each
    criterion that reads that chain, and only those; the other chains of the
    pass are served.
    """
    if (n, mu) not in solved:
        mus = GRID_MU_TOPO + GRID_MU_TRIV
        gammas = [model.gamma_ep(m, n) for m in mus]
        rows = spectral.classify_stack(spectral.chain_eigensystems(n, mus, gammas), mus, gammas)
        for m, gamma, row in zip(mus, gammas, rows):
            solved[n, m] = gamma, row
    gamma, row = solved[n, mu]
    return gamma, spectral._served(row)


def scattering_gap_bound(solved):
    failures = []
    for n in GRID_N:
        for mu in GRID_MU_TOPO + GRID_MU_TRIV:
            if not analysis.gap_bound_check(_grid_chain(n, mu, solved)[1], mu):
                failures.append((n, mu))
    detail = (f"all scattering levels inside |1-mu| <= |eps| <= 1+mu over "
              f"{len(GRID_N) * 6} grid points")
    if failures:
        detail = f"band violations at {failures[:5]}"
    return [(not failures, detail)]


def pseudo_hermiticity_pt(solved):
    worst_pt = 0.0
    unmatched_points = []
    for n in GRID_N:
        for mu in GRID_MU_TOPO + GRID_MU_TRIV:
            gamma, modes = _grid_chain(n, mu, solved)
            worst_pt = max(worst_pt, model.pt_deviation(model.build_ssh(n, mu, gamma)))
            ok, unmatched = spectral.pseudo_hermiticity_check(
                modes.coalesced, spectral.CLASS_TOLERANCE * modes.es.scale)
            if not ok:
                unmatched_points.append((n, mu, unmatched))
    return [
        (not unmatched_points,
         "every spectrum is conjugation-symmetric"
         + ("" if not unmatched_points else f"; failures {unmatched_points[:3]}")),
        (worst_pt <= 1e-15, f"P conj(h) P = h to {worst_pt:.2e} <= 1e-15"),
    ]


CRITERIA = [
    ("six-site-mu2", six_site_mu2),
    ("six-site-mu-half", six_site_mu_half),
    ("mode-census", mode_census),
    ("zero-mode-closed-form", zero_mode_closed_form),
    ("bethe-spectrum-equivalence", bethe_spectrum_equivalence),
    ("evanescent-asymptotics", evanescent_asymptotics),
    ("block-decomposition", block_decomposition),
    ("common-part", common_part),
    ("scattering-gap-bound", scattering_gap_bound),
    ("pseudo-hermiticity-pt", pseudo_hermiticity_pt),
]


def _evaluate(criterion_id: str, solved: dict) -> CriterionResult:
    """The :class:`CriterionResult` of the criterion ``criterion_id`` of
    :data:`CRITERIA`, run on the grid cache ``solved``.

    It passes when all its checks pass, its detail joins theirs, and its
    time is the whole call's.  A criterion that raises fails with one check,
    the exception text, so a bound of :mod:`.spectral` that a computed
    eigensystem misses surfaces as an ordinary failure.
    """
    started = time.perf_counter()
    try:
        checks = dict(CRITERIA)[criterion_id](solved)
    except Exception as exc:
        checks = [(False, f"raised {type(exc).__name__}: {exc}")]
    return CriterionResult(criterion_id, all(ok for ok, _ in checks),
                           "; ".join(msg for _, msg in checks), time.perf_counter() - started)


def run_criteria(only: str | None = None) -> list[CriterionResult]:
    """Run all criteria whose id contains ``only`` (all of them by default),
    sharing one grid cache (:func:`_evaluate`)."""
    selected = [cid for cid, _ in CRITERIA if not only or only in cid]
    if only and not selected:
        raise ValueError(f"no criterion id contains {only!r}")
    solved = {}
    return [_evaluate(cid, solved) for cid in selected]
