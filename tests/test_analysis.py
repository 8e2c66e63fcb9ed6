import inspect

import numpy as np
import pytest

from majorana_pt import (
    ClassificationError,
    build_ssh,
    census_sweep,
    chain_eigensystem,
    classify_modes,
    common_part_compare,
    dirac_distribution,
    edge_mode_count,
    eig,
    gamma_ep,
    gap_bound_check,
    omega_constant,
    zero_mode,
)
from majorana_pt.analysis import GAP_TOLERANCE


class TestDiracDistribution:
    def test_six_site_profile(self):
        # norm^2 of (4i, 1, -2i, -2, i, 4) is 16+1+4+4+1+16 = 42
        profile = dirac_distribution(zero_mode(6, 2.0))
        expected = np.array([4, 1, 2, 2, 1, 4]) / np.sqrt(42.0)
        assert np.allclose(profile, expected, atol=1e-15)

    def test_basis_state(self):
        profile = dirac_distribution(np.eye(5)[0])
        assert np.array_equal(profile, [1, 0, 0, 0, 0])

    def test_squared_profile_sums_to_one(self):
        profile = dirac_distribution(zero_mode(30, 1.5))
        assert np.sum(profile**2) == pytest.approx(1.0, abs=1e-13)

    def test_odd_sites_follow_closed_form(self):
        n, mu = 30, 1.5
        profile = dirac_distribution(zero_mode(n, mu))
        j = np.arange(1, n // 2 + 1)
        assert np.allclose(profile[0::2], omega_constant(n, mu) * mu ** (1.0 - j),
                           atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            dirac_distribution(np.array([1.0, 1.0]))


class TestCommonPartCompare:
    def test_nested_profiles(self):
        dev_a = common_part_compare(14, 22, 1.5)
        dev_b = common_part_compare(22, 30, 1.5)
        assert dev_a <= 5e-3
        assert dev_b < dev_a

    def test_deviation_is_normalization_gap(self):
        # the amplitude pattern is size-independent; only Omega differs
        dev = common_part_compare(14, 22, 1.5)
        omega_gap = abs(omega_constant(14, 1.5) - omega_constant(22, 1.5))
        assert dev == pytest.approx(omega_gap, rel=1e-12)

    def test_decay_bound(self):
        # C fitted from the (22, 30) pair and frozen
        C = 0.30
        for n_small, n_large in [(14, 22), (22, 30), (14, 30)]:
            dev = common_part_compare(n_small, n_large, 1.5)
            assert dev <= C * 1.5 ** (-n_small)

    def test_equal_sizes_give_zero(self):
        assert common_part_compare(14, 14, 1.5) == 0.0

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            common_part_compare(22, 14, 1.5)
        with pytest.raises(ValueError):
            common_part_compare(14, 22, 0.5)


class TestGapBound:
    def test_six_site_respects_band(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        modes = classify_modes(es, 2.0, 0.25)
        assert gap_bound_check(modes, 2.0)
        smallest = min(abs(z) for z in es.eigenvalues[modes.real].tolist())
        assert smallest == pytest.approx(np.sqrt(350 - 2 * np.sqrt(3553)) / 8,
                                         abs=1e-12)
        assert smallest >= abs(1 - 2.0)

    def test_uniform_bound_is_trivial(self):
        es = eig(build_ssh(8, 1.0, 1.0))
        assert gap_bound_check(classify_modes(es, 1.0, 1.0), 1.0)

    def test_synthetic_violation_detected(self):
        # at n = 14 the mu = 2.0 chain's scattering levels have |eps| in
        # [1.23, 2.94], over mu = 0.5's band [0.5, 1.5]; the mu = 0.5 chain's,
        # in [0.65, 1.46], fall under mu = 2.0's band [1, 3]
        n = 14
        topological, trivial = (
            classify_modes(eig(build_ssh(n, mu, gamma_ep(mu, n))), mu, gamma_ep(mu, n))
            for mu in (2.0, 0.5))
        assert gap_bound_check(topological, 2.0) and gap_bound_check(trivial, 0.5)
        assert not gap_bound_check(topological, 0.5)
        assert not gap_bound_check(trivial, 2.0)

    @pytest.mark.parametrize("n,mu", [(30, 0.5), (30, 3.0)])
    def test_large_chains(self, n, mu):
        es = eig(build_ssh(n, mu, gamma_ep(mu, n)))
        assert gap_bound_check(classify_modes(es, mu, gamma_ep(mu, n)), mu)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_each_band_edge_keeps_its_tolerance(self, edge):
        # a band whose edge lies just past the chain's smallest (largest)
        # scattering |eps|: inside within GAP_TOLERANCE, outside beyond it
        n = 14
        modes = classify_modes(chain_eigensystem(n, 2.0, gamma_ep(2.0, n)), 2.0,
                               gamma_ep(2.0, n))
        moduli = np.abs(modes.es.eigenvalues[modes.real])
        for slack, inside in [(0.5 * GAP_TOLERANCE, True), (2 * GAP_TOLERANCE, False)]:
            # |1 - mu| = min |eps| + slack, or 1 + mu = max |eps| - slack
            mu = 1 + moduli.min() + slack if edge == "lower" else moduli.max() - slack - 1
            assert gap_bound_check(modes, mu) is inside, slack


class TestCensusSweep:
    def test_topological_rows(self):
        for p in census_sweep([6, 14, 22, 30], [1.5, 2.0]):
            assert (p.census.n_I, p.census.n_EP, p.census.n_S) == (0, 1, p.n - 2)
            assert p.edge_modes == 2
            assert p.gamma == gamma_ep(p.mu, p.n)

    def test_trivial_rows(self):
        for p in census_sweep([6, 14, 30], [0.3, 0.5, 0.8]):
            assert (p.census.n_I, p.census.n_EP, p.census.n_S) == (2, 1, p.n - 4)
            assert p.edge_modes == 4

    def test_single_point_matches_classify(self):
        point = census_sweep([6], [2.0])[0]
        es = eig(build_ssh(6, 2.0, gamma_ep(2.0, 6)))
        census = classify_modes(es, 2.0, gamma_ep(2.0, 6)).census
        assert (point.census.n_I, point.census.n_EP, point.census.n_S) == (
            census.n_I, census.n_EP, census.n_S,
        )

    def test_phase_boundary_in_edge_count(self):
        counts = {p.mu: p.edge_modes for p in census_sweep([10], [0.8, 1.5])}
        assert counts[0.8] == 4 and counts[1.5] == 2

    def test_has_no_worker_parameter(self):
        assert "max_workers" not in inspect.signature(census_sweep).parameters

    def test_failure_names_the_grid_point_and_keeps_its_type(self):
        # (6, mu) has an isolated pair; at (78, mu) the third |eps| is 410 times the second
        with pytest.raises(ClassificationError, match=r"^sweep failed at \(n=78, "
                           r"mu=0\.99901401\): no isolated zero pair"):
            census_sweep([6, 78], [0.99901401])

    def test_rejects_uniform_mu(self):
        with pytest.raises(ValueError):
            census_sweep([6], [1.0])

    @pytest.mark.parametrize("n", [6.9, 6.0])
    def test_rejects_a_non_integer_site_count(self, n):
        # 6.9 must not be truncated to a 6-site row
        with pytest.raises(TypeError, match="site count must be an integer"):
            census_sweep([n], [2.0])

    def test_numpy_site_counts_give_plain_ints(self):
        points = census_sweep(np.array([6, 8]), [np.float64(2.0)])
        assert [p.n for p in points] == [6, 8]
        assert all(type(p.n) is int for p in points)

    def test_grid_order_is_row_major(self):
        points = census_sweep([6, 8], [0.5, 2.0])
        assert [(p.n, p.mu) for p in points] == [
            (6, 0.5), (6, 2.0), (8, 0.5), (8, 2.0),
        ]


class TestEdgeModeCount:
    def test_conventions(self):
        from majorana_pt import ModeCensus

        assert edge_mode_count(ModeCensus(0, 1, 8, 10), 2.0) == 2
        assert edge_mode_count(ModeCensus(2, 1, 6, 10), 0.5) == 4
