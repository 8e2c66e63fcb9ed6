import numpy as np
import pytest

from majorana_pt import (
    BLOCK_GRAM,
    ModelParams,
    apply_ssh,
    build_majorana_ring,
    build_ssh,
    build_ssh_real,
    decompose_blocks,
    fit_block_scale,
    gamma_ep,
    on_locus,
    parity_matrix,
    pt_deviation,
    staggered_signs,
)
from majorana_pt.model import _block_transform_entries

# Explicit six-site chains with fully worked spectra.
M1 = np.array(
    [
        [0.25j, 1, 0, 0, 0, 0],
        [1, 0, 2, 0, 0, 0],
        [0, 2, 0, 1, 0, 0],
        [0, 0, 1, 0, 2, 0],
        [0, 0, 0, 2, 0, 1],
        [0, 0, 0, 0, 1, -0.25j],
    ],
    dtype=complex,
)
M2 = np.array(
    [
        [4j, 1, 0, 0, 0, 0],
        [1, 0, 0.5, 0, 0, 0],
        [0, 0.5, 0, 1, 0, 0],
        [0, 0, 1, 0, 0.5, 0],
        [0, 0, 0, 0.5, 0, 1],
        [0, 0, 0, 0, 1, -4j],
    ],
    dtype=complex,
)


class TestGammaEp:
    def test_mu_2_n_6(self):
        assert gamma_ep(2.0, 6) == 0.25

    def test_mu_half_n_6(self):
        assert gamma_ep(0.5, 6) == 4.0

    def test_uniform_chain(self):
        assert gamma_ep(1.0, 8) == 1.0

    @pytest.mark.parametrize("mu", [0.0, -1.0, float("nan")])
    def test_rejects_bad_mu(self, mu):
        with pytest.raises(ValueError):
            gamma_ep(mu, 6)

    @pytest.mark.parametrize("n", [5, 7, 2, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            gamma_ep(2.0, n)

    def test_largest_representable_chain(self):
        # (N/2 - 1) ln(1/mu) <= ln(float max) holds at N = 1180 for mu = 0.3
        assert gamma_ep(0.3, 1180) == 0.3 ** -589
        assert on_locus(0.3, 1180, 0.3 ** -589)

    def test_overflow_names_the_largest_chain(self):
        with pytest.raises(ValueError, match="the largest N for mu=0.3 is 1180"):
            gamma_ep(0.3, 1182)
        assert not on_locus(0.3, 1182, 1e308)

    @pytest.mark.parametrize("mu,largest", [(3.0, 1358), (2.1, 2010), (10.0, 648),
                                            (4.0, 1076)])
    def test_underflow_names_the_largest_chain(self, mu, largest):
        # mu**(1 - N/2) rounds to 0 once it is at most 2**-1075: 4**-538 is 2**-1076
        assert gamma_ep(mu, largest) > 0
        assert on_locus(mu, largest, gamma_ep(mu, largest))
        with pytest.raises(ValueError, match=f"underflows to 0; the largest N for "
                                             f"mu={mu} is {largest}$"):
            gamma_ep(mu, largest + 2)
        assert not on_locus(mu, largest + 2, 0.0)

    @pytest.mark.parametrize("gamma,expected", [
        (0.25, True), (0.25 * (1 + 5e-10), True), (0.25 * (1 + 2e-9), False), (0.0, False),
    ])
    def test_on_locus_relative_tolerance(self, gamma, expected):
        assert on_locus(2.0, 6, gamma) is expected


class TestBuildSsh:
    def test_matches_six_site_mu2(self):
        assert np.array_equal(build_ssh(6, 2.0, 0.25), M1)

    def test_matches_six_site_mu_half(self):
        assert np.array_equal(build_ssh(6, 0.5, 4.0), M2)

    def test_hermitian_limit(self):
        h = build_ssh(4, 1.0, 0.0)
        assert np.array_equal(h, h.conj().T)
        assert h[0, 0] == 0
        values = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(values, -values[::-1], atol=1e-14)

    @pytest.mark.parametrize("n,mu,gamma", [(6, 2.0, 0.25), (12, 0.7, 0.9), (30, 3.0, 0.0)])
    def test_sparsity(self, n, mu, gamma):
        h = build_ssh(n, mu, gamma)
        off = h - np.diag(np.diag(h))
        assert np.count_nonzero(off) == 2 * (n - 1)
        assert np.count_nonzero(np.diag(h)) <= 2

    @pytest.mark.parametrize("n", range(6, 32, 2))
    @pytest.mark.parametrize("mu", [0.3, 0.8, 1.5, 3.0])
    def test_pt_covariance_is_exact(self, n, mu):
        h = build_ssh(n, mu, gamma_ep(mu, n))
        assert pt_deviation(h) == 0.0

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_ssh(5, 2.0, 0.1)
        with pytest.raises(ValueError):
            build_ssh(6, -2.0, 0.1)
        with pytest.raises(ValueError):
            build_ssh(6, 2.0, float("inf"))


class TestBuildSshReal:
    @pytest.mark.parametrize("n,mu,gamma", [
        (6, 2.0, 0.25), (14, 0.5, gamma_ep(0.5, 14)), (30, 1.5, gamma_ep(1.5, 30)),
        (6, 2.0, 0.0), (6, 0.5, 0.55), (12, 0.8, -3.0),
    ])
    def test_is_the_pt_rotation_of_the_chain(self, n, mu, gamma):
        # Q = (I + iP)/sqrt(2) is unitary and Q^dag h Q is real, on and off the locus
        q = (np.eye(n) + 1j * parity_matrix(n)) / np.sqrt(2)
        assert np.allclose(q.conj().T @ q, np.eye(n), atol=1e-15)
        m = build_ssh_real(n, mu, gamma)
        assert m.dtype == np.float64
        scale = 1 + max(mu, abs(gamma))
        assert np.max(np.abs(q.conj().T @ build_ssh(n, mu, gamma) @ q - m)) <= 1e-14 * scale

    def test_bonds_and_corners(self):
        expected = np.diag([1.0, 2, 1, 2, 1], 1) + np.diag([1.0, 2, 1, 2, 1], -1)
        expected[0, 5], expected[5, 0] = -0.25, 0.25
        assert np.array_equal(build_ssh_real(6, 2.0, 0.25), expected)

    def test_rejects_invalid_parameters(self):
        for args in [(5, 2.0, 0.1), (6, -2.0, 0.1), (6, 2.0, float("inf"))]:
            with pytest.raises(ValueError):
                build_ssh_real(*args)


class TestApplySsh:
    @pytest.mark.parametrize("n,mu,gamma", [(6, 2.0, 0.25), (14, 0.5, 64.0), (8, 1.0, 0.0)])
    def test_is_the_matrix_product(self, n, mu, gamma):
        v = np.array([1, 1j]) @ np.random.default_rng(n).normal(size=(2, n))
        assert np.allclose(apply_ssh(n, mu, gamma, v), build_ssh(n, mu, gamma) @ v,
                           rtol=0, atol=1e-14)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            apply_ssh(5, 2.0, 0.1, np.ones(5))
        with pytest.raises(ValueError, match="^mu must be positive, got -1.0$"):
            apply_ssh(6, np.array([2.0, -1.0]), np.array([0.1, 0.1]), np.ones((6, 2)))
        with pytest.raises(ValueError, match="^mu must be positive, got nan$"):
            apply_ssh(6, np.array([[2.0], [np.nan]]), np.zeros((2, 1)), np.ones((6, 2, 3)))
        with pytest.raises(ValueError, match="^gamma must be finite$"):
            apply_ssh(6, np.array([2.0, 0.5]), np.array([0.1, np.inf]), np.ones((6, 2)))

    def test_each_column_takes_its_own_chain(self):
        n, mus, gammas = 8, np.array([2.0, 0.5, 1.0]), np.array([0.125, 8.0, 0.0])
        v = np.random.default_rng(1).normal(size=(n, 3, 4)) * (1 + 1j)
        stacked = apply_ssh(n, mus[:, None], gammas[:, None], v)
        for i, (mu, gamma) in enumerate(zip(mus, gammas)):
            assert np.array_equal(stacked[:, i], apply_ssh(n, mu, gamma, v[:, i]))


class TestModelParams:
    def test_pt_defaults(self):
        # the impurity dimers -i pot/2 at pot = +i gamma (site 1), -i gamma (site n/2+1)
        h = build_majorana_ring(ModelParams(n=6, mu=2.0, gamma=0.25))
        assert (h[0, 1], h[1, 0]) == (0.125, -0.125)
        assert (h[6, 7], h[7, 6]) == (-0.125, 0.125)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=5, mu=1.0),
            dict(n=2, mu=1.0),
            dict(n=6, mu=0.0),
            dict(n=6, mu=-1.0),
            dict(n=6, mu=1.0, gamma=-0.5),
            dict(n=6, mu=1.0, gamma=float("nan")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("field", ["t", "delta", "mu_left", "mu_right"])
    def test_has_no_general_ring_fields(self, field):
        with pytest.raises(TypeError):
            ModelParams(n=6, mu=1.0, gamma=0.0, **{field: 1.0})


def _loop_ring(n, mu, gamma):
    """Reference: the ring filled bond by bond in loops, at t = delta = 1."""
    t = delta = 1.0
    dim = 2 * n
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(1, n + 1):
        b_l = 2 * l - 1
        a_next = (2 * l) % dim
        h[b_l, a_next] += -0.25j * (t + delta)
        h[a_next, b_l] += +0.25j * (t + delta)
        b_next = (2 * l + 1) % dim
        a_l = 2 * l - 2
        h[b_next, a_l] += -0.25j * (t - delta)
        h[a_l, b_next] += +0.25j * (t - delta)
    for l in range(1, n + 1):
        if l == 1:
            pot = complex(1j * gamma)
        elif l == n // 2 + 1:
            pot = complex(-1j * gamma)
        else:
            pot = mu
        h[2 * l - 2, 2 * l - 1] += -0.5j * pot
        h[2 * l - 1, 2 * l - 2] += +0.5j * pot
    return h


class TestMajoranaRing:
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.8, 1.0, 1.1, 1.5, 2.0, 3.0])
    def test_bytes_match_loop_reference(self, mu):
        for n in range(4, 201, 2):
            for gamma in (0.0, 0.37, gamma_ep(mu, n)):
                ring = build_majorana_ring(ModelParams(n=n, mu=mu, gamma=gamma))
                assert ring.tobytes() == _loop_ring(n, mu, gamma).tobytes(), (n, gamma)

    def test_hermitian_limit_real_spectrum(self):
        p = ModelParams(n=4, mu=1.0, gamma=0.0)
        h = build_majorana_ring(p)
        assert h.shape == (8, 8)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-14

    def test_spectrum_is_scaled_union_of_ssh_pair(self):
        # cross-check against the dense solve of the six-site chain
        p = ModelParams(n=6, mu=2.0, gamma=0.25)
        ring_values = np.linalg.eigvals(build_majorana_ring(p))
        ssh_values = np.linalg.eigvals(M1)
        union = 0.5 * np.concatenate([ssh_values, ssh_values.conj()])
        for z in union:
            assert np.min(np.abs(ring_values - z)) < 1e-7  # EP pairs split at sqrt(eps)


def _loop_block_transform(n):
    """Reference: the transform filled column by column from its definition."""
    dim = 2 * n
    v = np.zeros((dim, dim), dtype=complex)
    a = np.exp(-1j * np.pi / 4) / 2
    b = np.exp(+1j * np.pi / 4) / 2
    for block, sigma in enumerate((1, -1)):
        offset = block * n
        for l in range(1, n // 2 + 1):
            col = offset + 2 * l - 2
            v[(2 * l - 1) % dim, col] += a
            v[(2 * n + 3 - 2 * l - 1) % dim, col] += 1j * sigma * a
            col = offset + 2 * l - 1
            v[(2 * l + 1 - 1) % dim, col] += b
            v[(2 * n + 2 - 2 * l - 1) % dim, col] += -1j * sigma * b
    return v


def _block_transform(n):
    """The change of basis V, filled from its two nonzeros per column."""
    rows, coefficients = _block_transform_entries(n)
    v = np.zeros((2 * n, 2 * n), dtype=complex)
    v[rows, np.arange(2 * n)] = coefficients
    return v


class TestBlockTransform:
    @pytest.mark.parametrize("n", [4, 6, 10, 58])
    def test_matches_definition(self, n):
        assert np.array_equal(_block_transform(n), _loop_block_transform(n))

    def test_first_plus_column_support(self):
        v = _block_transform(6)
        col = v[:, 0]
        nonzero = np.nonzero(np.abs(col) > 0)[0]
        assert set(nonzero) == {0, 1}  # sites 2 and 2n+3-2 == 1, 0-based rows 1 and 0

    @pytest.mark.parametrize("n", [4, 6, 10, 14])
    def test_gram_constant(self, n):
        v = _block_transform(n)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - BLOCK_GRAM * np.eye(2 * n))) < 1e-15

    def test_explicit_inverse_matches_gram_scaling(self):
        v = _block_transform(8)
        assert np.allclose(np.linalg.inv(v), v.conj().T / BLOCK_GRAM, atol=1e-13)


class TestDecomposeBlocks:
    @pytest.mark.parametrize("n,mu", [(6, 2.0), (6, 0.5), (10, 1.5), (14, 0.5)])
    def test_blocks_are_conjugate_ssh_pair(self, n, mu):
        gamma = gamma_ep(mu, n)
        p = ModelParams(n=n, mu=mu, gamma=gamma)
        ring = build_majorana_ring(p)
        blocks = decompose_blocks(ring, n)
        assert blocks.leakage < 1e-14 * np.max(np.abs(ring))
        # entrywise: h_plus is half the staggered-sign conjugation of build_ssh
        s = staggered_signs(n)
        reference = 0.5 * (s[:, None] * build_ssh(n, mu, gamma) * s[None, :])
        assert np.max(np.abs(blocks.h_plus - reference)) < 1e-14
        assert np.max(np.abs(blocks.h_minus - blocks.h_plus.conj().T)) < 1e-14

    @pytest.mark.parametrize("n,mu", [(4, 2.0), (6, 0.5), (14, 1.1), (30, 0.8), (58, 2.0)])
    def test_gathers_match_dense_products(self, n, mu):
        ring = build_majorana_ring(ModelParams(n=n, mu=mu, gamma=gamma_ep(mu, n)))
        v = _loop_block_transform(n)
        ht = (v.conj().T / BLOCK_GRAM) @ ring @ v
        first, second = ht[:n, :n], ht[n:, n:]
        h_plus = second if first[0, 0].imag < second[0, 0].imag else first
        blocks = decompose_blocks(ring, n)
        norm = np.max(np.abs(ring).sum(axis=1))
        assert np.max(np.abs(blocks.h_plus - h_plus)) <= 1e-15 * norm
        assert np.max(np.abs(blocks.h_minus - blocks.h_plus.conj().T)) <= 1e-15 * norm
        assert blocks.leakage <= 1e-15 * norm

    def test_six_site_block_matches_explicit_matrix(self):
        p = ModelParams(n=6, mu=2.0, gamma=0.25)
        blocks = decompose_blocks(build_majorana_ring(p), 6)
        s = staggered_signs(6)
        assert np.max(np.abs(blocks.h_plus - 0.5 * (s[:, None] * M1 * s[None, :]))) < 1e-15

    def test_fit_rejects_a_non_square_block(self):
        with pytest.raises(ValueError, match="square block"):
            fit_block_scale(np.zeros((6, 8)), 2.0, 0.25)

    def test_fitted_scale_is_half(self):
        p = ModelParams(n=10, mu=0.5, gamma=gamma_ep(0.5, 10))
        blocks = decompose_blocks(build_majorana_ring(p), 10)
        scale = fit_block_scale(blocks.h_plus, 0.5, gamma_ep(0.5, 10))
        assert abs(scale - 0.5) < 1e-12

    def test_hermitian_blocks_at_gamma_zero(self):
        p = ModelParams(n=6, mu=2.0, gamma=0.0)
        blocks = decompose_blocks(build_majorana_ring(p), 6)
        assert np.max(np.abs(blocks.h_plus - blocks.h_plus.conj().T)) < 1e-15

    def test_rejects_non_ring_input(self):
        rng = np.random.default_rng(7)
        noise = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        with pytest.raises(ValueError):
            decompose_blocks(noise, 6)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            decompose_blocks(np.eye(10), 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
    def test_rejects_non_finite_entries(self, bad):
        ring = build_majorana_ring(ModelParams(n=6, mu=2.0, gamma=0.25))
        ring[3, 4] = bad
        with pytest.raises(ValueError, match="must be finite"):
            decompose_blocks(ring, 6)


class TestHelpers:
    def test_parity_matrix_reverses(self):
        p = parity_matrix(4)
        assert np.array_equal(p @ np.array([1, 2, 3, 4.0]), [4, 3, 2, 1])

    def test_staggered_signs_pattern(self):
        assert np.array_equal(staggered_signs(8), [1, 1, -1, -1, 1, 1, -1, -1])

    def test_staggered_conjugation_flips_even_bonds(self):
        n, mu, gamma = 8, 1.7, 0.3
        s = staggered_signs(n)
        flipped = s[:, None] * build_ssh(n, mu, gamma) * s[None, :]
        assert flipped[1, 2] == -mu and flipped[0, 1] == 1.0
        assert flipped[0, 0] == 1j * gamma

    def test_pt_deviation_is_the_dense_parity_product(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        p = parity_matrix(9)
        dense = float(np.max(np.abs(p @ h.conj() @ p - h)))
        assert dense > 0
        assert pt_deviation(h) == dense
