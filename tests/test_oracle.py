"""Dense-matrix oracle: states, supports, angles, spectra, POVM assembly."""

import dataclasses
import math
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from sympy.utilities.iterables import multiset_permutations

from dense_route import (SUPPORT_TOL, components, lambda_spectra, principal_angles,
                         tiled_cosines)
from qudisc import discrimination, oracle, verify
from qudisc.discrimination import total_failure
from qudisc.errors import OracleError, PreconditionError
from qudisc.spectrum import ProblemConfig, canonicalize, jordan_spectrum

ALL_ONES = ProblemConfig(2, 1, 1, 1, 0.5)
DEFAULT_GRID = list(verify.certification_grid(1024))
# the canonical configs whose Gram counts ``verify`` checks against the site strings
COUNTED_GRID = [cfg for cfg in DEFAULT_GRID
                if cfg.is_canonical and cfg.n ** cfg.total_copies <= verify._COUNTED_DIM]


def _config_id(cfg):
    return f"{cfg.n}-{cfg.n_a}{cfg.n_b}{cfg.n_c}"


def _support(rho):
    """Orthonormal columns spanning the support of one whole matrix, from
    numpy's eigensolver."""
    values, vectors = np.linalg.eigh(rho)
    return vectors[:, values > SUPPORT_TOL]


def _full_angles(rho1, rho2):
    """Principal-angle cosines of the two whole supports, one SVD."""
    b1, b2 = _support(rho1), _support(rho2)
    return np.clip(np.linalg.svd(b1.conj().T @ b2, compute_uv=False), 0.0, 1.0)


def _with_kernel(values, cfg):
    """A joint-span Lambda spectrum completed to the whole n^N-dimensional
    space by the kernel's zeros, ascending."""
    zeros = np.zeros(cfg.n ** cfg.total_copies - len(values))
    return np.sort(np.concatenate([values, zeros]))


def _assert_same_angles(observed, cosines):
    expected = -np.sort(-cosines)
    assert observed.shape == expected.shape
    assert np.abs(observed - expected).max(initial=0.0) <= 1e-12


def _expanded(groups):
    """``jordan_angles``' per-block cosines, each repeated d^k times."""
    return np.repeat([c for c, _ in groups], [m for _, m in groups])


def _gram_blocks(cfg):
    """One ``(size, g)`` per orbit of label weights: the orbit's number of
    weights and ``oracle._gram_block`` of its descending weight."""
    return [(size, oracle._gram_block(weight, cfg.n_a, cfg.n_c))
            for weight, size in oracle._orbits(cfg.n, cfg.total_copies)]


class TestSymmetrizer:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 4)])
    def test_projector_properties(self, m, n):
        s = oracle.symmetrizer(m, n)
        assert np.allclose(s, s.conj().T)
        assert np.allclose(s @ s, s, atol=1e-12)
        assert s.trace().real == pytest.approx(math.comb(n + m - 1, m), abs=1e-10)

    def test_single_copy_is_identity(self):
        assert np.allclose(oracle.symmetrizer(1, 3), np.eye(3))

    def test_two_qubit_matrix(self):
        swap = np.zeros((4, 4))
        for i, j in np.ndindex(2, 2):
            swap[i * 2 + j, j * 2 + i] = 1.0
        assert np.allclose(oracle.symmetrizer(2, 2), (np.eye(4) + swap) / 2)

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(OracleError):  # 2^13 over the default cap
            oracle.symmetrizer(13, 2)
        monkeypatch.setattr(oracle, "DEFAULT_DIM_CAP", 1000)  # read at each call
        with pytest.raises(OracleError, match="dense dimension 1024 exceeds cap 1000"):
            oracle.symmetrizer(5, 4)


def _sym_basis_by_permutations(m, n):
    """The construction the vectorized basis replaced: one column per
    multiset, spread evenly over the multiset's distinct permutations."""
    weights = n ** np.arange(m - 1, -1, -1)
    columns = []
    for multiset in combinations_with_replacement(range(n), m):
        indices = sorted(int(np.dot(p, weights)) for p in multiset_permutations(list(multiset)))
        v = np.zeros(n**m)
        v[indices] = 1.0 / math.sqrt(len(indices))
        columns.append(v)
    return np.array(columns).T


class TestSymBasis:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_equals_permutation_construction(self, m):
        # every n >= 2 with n^m <= 1024, except single copies above n = 32,
        # which test_single_copy_is_identity covers
        for n in range(2, 33):
            if n**m > 1024:
                break
            assert np.array_equal(oracle._sym_basis(m, n), _sym_basis_by_permutations(m, n))

    def test_single_copy_is_identity(self):
        assert np.array_equal(oracle._sym_basis(1, 1024), np.eye(1024))

    def test_twelve_qubit_copies_are_fast(self):
        start = time.perf_counter()
        basis = oracle._sym_basis(12, 2)
        elapsed = time.perf_counter() - start
        assert basis.shape == (4096, 13)
        assert np.abs(basis.T @ basis - np.eye(13)).max() < 1e-12
        assert elapsed < 1.0


class TestMeanStates:
    def test_ranks_and_positivity(self):
        rho1, rho2 = oracle.mean_states(ProblemConfig(2, 2, 1, 1, 0.5))
        for rho, rank in ((rho1, 8), (rho2, 9)):
            values = np.linalg.eigvalsh(rho)
            assert values.min() >= -1e-12
            assert int((values > 1e-9).sum()) == rank
            assert rho.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_flat_spectrum(self):
        for rho in oracle.mean_states(ALL_ONES):
            values = np.linalg.eigvalsh(rho)
            assert int(np.sum(np.abs(values - 1 / 6) < 1e-12)) == 6


def _kron_average(cases, samples, seed, whole_norm=False):
    """Reference for ``haar_average``: the same stream of draws in C^N, N
    the largest n, each case's draws cut to their first n coordinates and
    renormalized, and every case's tensor power built in the full n^m
    space by repeated Kronecker products along the draws.  ``whole_norm``
    divides every cut by the draw's full norm instead: a wrong sampler."""
    size = max(n for _, n in cases)
    rng = np.random.Generator(np.random.SFC64((seed, size)))
    accs = [np.zeros((n**m, n**m), dtype=complex) for m, n in cases]
    for start in range(0, samples, oracle._HAAR_CHUNK):
        count = min(oracle._HAAR_CHUNK, samples - start)
        draws = rng.standard_normal((count, 2 * size)).view(complex)
        for acc, (m, n) in zip(accs, cases):
            norm = np.linalg.norm(draws[:, : size if whole_norm else n], axis=1)
            psi = (draws[:, :n] / norm[:, None]).T.copy()
            cols = psi
            for _ in range(m - 1):
                cols = (cols[:, None, :] * psi[None, :, :]).reshape(-1, count)
            acc += cols @ cols.conj().T
    return [acc / samples for acc in accs]


class TestHaarAverage:
    def test_deterministic(self):
        a = oracle.haar_average(((2, 2),), 500, seed=7)
        b = oracle.haar_average(((2, 2),), 500, seed=7)
        assert np.array_equal(a[0], b[0])
        c = oracle.haar_average(((2, 2),), 500, seed=8)
        assert not np.array_equal(a[0], c[0])

    def test_single_sample_is_pure_power(self):
        # one draw of every case from the shared norm pass: each mean is a
        # rank-one projector, so every dimension read its own norm
        for (m, n), avg in zip(verify.HAAR_CASES, oracle.haar_average(verify.HAAR_CASES, 1, 1)):
            values = np.linalg.eigvalsh(avg)
            assert values[-1] == pytest.approx(1.0, abs=1e-12), (m, n)
            assert np.abs(values[:-1]).max() < 1e-12, (m, n)
            assert np.trace(avg).real == pytest.approx(1.0, abs=1e-12), (m, n)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            oracle.haar_average(((2, 2),), 0, seed=1)

    def test_order_over_cap_raises_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before the cap check")

        monkeypatch.setattr(np.random, "SFC64", no_draws)
        monkeypatch.setattr(oracle, "DEFAULT_DIM_CAP", 4)
        with pytest.raises(OracleError, match="exceeds cap 4"):
            oracle.haar_average(((1, 2), (2, 2), (3, 2)), 100, seed=1)

    @pytest.mark.parametrize("m,n", verify.HAAR_CASES)
    def test_matches_full_space_reference(self, m, n):
        # several chunks and a partial one
        samples = 2 * oracle._HAAR_CHUNK + 123
        got = oracle.haar_average(verify.HAAR_CASES, samples, seed=11)
        expected = _kron_average(verify.HAAR_CASES, samples, seed=11)
        i = verify.HAAR_CASES.index((m, n))
        assert got[i].shape == (n**m, n**m)
        assert np.abs(got[i] - expected[i]).max() <= 1e-15

    def test_order_mean_independent_of_companions(self):
        # a lower order is a partial trace of its dimension's top order,
        # which equals the direct mean up to rounding
        qubits = ((1, 2), (2, 2), (3, 2))
        together = oracle.haar_average(qubits, 5000, seed=3)
        for case, mean in zip(qubits, together):
            assert np.abs(mean - oracle.haar_average((case,), 5000, seed=3)[0]).max() <= 1e-15
        # the qutrit case sets the stream; the qubit orders stay within rounding
        shared = oracle.haar_average(verify.HAAR_CASES, 5000, seed=3)
        for case in qubits:
            alone = oracle.haar_average((case, (2, 3)), 5000, seed=3)[0]
            assert np.abs(shared[verify.HAAR_CASES.index(case)] - alone).max() <= 1e-15

    def test_mean_independent_of_chunk_size(self, monkeypatch):
        samples = 3 * 4096 + 5
        small = oracle.haar_average(verify.HAAR_CASES, samples, seed=5)
        monkeypatch.setattr(oracle, "_HAAR_CHUNK", 4096)
        large = oracle.haar_average(verify.HAAR_CASES, samples, seed=5)
        for a, b in zip(small, large):
            assert np.abs(a - b).max() <= 1e-15


def _real_average(cases, samples, seed):
    """A wrong sampler for the Haar check: real instead of complex Gaussian
    states, cut from one stream like the honest sampler's.  Its mean is
    right at m = 1 and wrong from m = 2 on."""
    rng = np.random.Generator(np.random.SFC64((seed, max(n for _, n in cases))))
    draws = rng.standard_normal((samples, max(n for _, n in cases)))
    means = []
    for m, n in cases:
        psi = draws[:, :n] / np.linalg.norm(draws[:, :n], axis=1, keepdims=True)
        rows = psi
        for _ in range(m - 1):
            rows = (rows[:, :, None] * psi[:, None, :]).reshape(samples, -1)
        means.append(rows.T @ rows / samples)
    return means


class TestHaarGate:
    @pytest.mark.parametrize("m,n", verify.HAAR_CASES)
    def test_moments_match_dense_symmetrizers(self, m, n):
        # E[X_ij conj(X_kl)] is an entry of S_2m / D_2m, so the covariance of
        # vec(X) comes from the order-2m lemma; its trace is each draw's
        # squared distance from the mean and its squared Frobenius norm the
        # variance of the cross terms <X - mean, X' - mean>
        dim = n**m
        s_2m = oracle.symmetrizer(2 * m, n)
        moment = (s_2m / s_2m.trace()).reshape((dim,) * 4).transpose(0, 2, 3, 1)
        s_m = oracle.symmetrizer(m, n)
        mean = (s_m / s_m.trace()).reshape(-1)
        cov = moment.reshape(dim * dim, dim * dim) - np.outer(mean, mean)
        spread, c = verify.haar_moments(m, n)
        assert np.trace(cov) == pytest.approx(spread, abs=1e-12)
        assert np.sum(cov**2) == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("samples", [verify.HAAR_MIN_SAMPLES, 2000, 100_000])
    def test_real_states_fail(self, monkeypatch, samples):
        monkeypatch.setattr(oracle, "haar_average", _real_average)
        result = verify.check_haar(samples, seed=20260826)
        assert not result.passed
        m = int(re.search(r"m=(\d+)", result.detail).group(1))
        assert m >= 2

    def test_duplicated_draws_fail_variance_law(self, monkeypatch):
        # each draw counted twice: the right mean, twice the variance
        honest = oracle.haar_average
        monkeypatch.setattr(
            oracle, "haar_average",
            lambda cases, samples, seed: honest(cases, samples // 2, seed),
        )
        result = verify.check_haar(4000, seed=20260826)
        assert not result.passed
        assert result.detail.startswith("variance law")

    @pytest.mark.parametrize("samples", [verify.HAAR_MIN_SAMPLES, 4000, 100_000])
    def test_slices_need_their_own_norm(self, monkeypatch, samples):
        # the qubit cut of a qutrit draw divided by the whole draw's norm
        # is too short: a biased mean from m = 1 on
        monkeypatch.setattr(
            oracle, "haar_average",
            lambda cases, samples, seed: _kron_average(cases, samples, seed, True),
        )
        result = verify.check_haar(samples, seed=20260826)
        assert not result.passed
        assert result.detail.startswith("bias at m=1, n=2")

    def test_one_call_per_stream(self, monkeypatch):
        honest = oracle.haar_average
        generator = np.random.Generator
        calls, drawn = [], []

        def counting(cases, samples, seed):
            calls.append((tuple(cases), samples))
            return honest(cases, samples, seed)

        class CountingGenerator:
            # the stream's normals, counted; any other draw has no method
            def __init__(self, bits):
                self.rng = generator(bits)
                drawn.append(0)

            def standard_normal(self, *args, **kwargs):
                normals = self.rng.standard_normal(*args, **kwargs)
                drawn[-1] += normals.size
                return normals

        monkeypatch.setattr(oracle, "haar_average", counting)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        assert verify.check_haar(1000, seed=20260826).passed
        assert calls == [(verify.HAAR_CASES, 1000)] * verify.HAAR_STREAMS
        size = max(n for _, n in verify.HAAR_CASES)
        assert drawn == [1000 * 2 * size] * verify.HAAR_STREAMS

    def test_honest_sampler_passes(self):
        result = verify.check_haar(4000, seed=20260826)
        assert result.passed
        assert result.detail.startswith("4 cases, 4000 samples, pooled T ")


class TestRealOracle:
    CONFIGS = [
        ProblemConfig(2, 2, 1, 1, 0.3),
        ProblemConfig(3, 1, 2, 1, 0.7),
        ProblemConfig(2, 1, 2, 3, 0.5),  # certified in the swapped orientation
    ]

    @staticmethod
    def _dense_numbers(cfg):
        oracle._jordan_geometry.cache_clear()
        canonical, _ = canonicalize(cfg)
        geometry = oracle._jordan_geometry(
            canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, None
        )
        return (
            geometry.blocks[0].r1.dtype,
            lambda_spectra([cfg])[0],
            oracle.certify_povm(cfg).min_eigenvalue,
        )

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_agrees_with_complex_arithmetic(self, cfg, monkeypatch):
        rho1, rho2 = oracle.mean_states(cfg)
        assert rho1.dtype == rho2.dtype == np.float64
        real_angles = principal_angles(rho1, rho2)
        complex_angles = principal_angles(rho1.astype(complex), rho2.astype(complex))
        _assert_same_angles(real_angles, complex_angles)

        real_dtype, real_spectrum, real_min = self._dense_numbers(cfg)
        real_block = oracle._gram_block
        monkeypatch.setattr(oracle, "_gram_block", lambda *args: real_block(*args).astype(complex))
        try:
            complex_dtype, complex_spectrum, complex_min = self._dense_numbers(cfg)
        finally:
            oracle._jordan_geometry.cache_clear()
        assert (real_dtype, complex_dtype) == (np.float64, np.complex128)
        assert np.abs(real_spectrum - complex_spectrum).max() <= 1e-12
        assert abs(real_min - complex_min) <= 1e-12


class TestCanonicalGeometry:
    SWAPPED = ProblemConfig(2, 1, 2, 3, 0.3)
    MIRROR = ProblemConfig(2, 3, 2, 1, 0.7)

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        oracle._jordan_geometry.cache_clear()
        yield
        oracle._jordan_geometry.cache_clear()

    def _touch_all(self):
        for cfg in (self.SWAPPED, self.MIRROR):
            oracle.jordan_angles(cfg)
            oracle.helstrom_probability(cfg)
            assert oracle.certify_povm(cfg).passed()

    def test_one_geometry_per_mirrored_pair(self):
        self._touch_all()
        assert oracle._jordan_geometry.cache_info().misses == 1

    def test_geometry_builds_no_dense_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("geometry built a dense mean state")

        monkeypatch.setattr(oracle, "mean_states", refuse)
        self._touch_all()

    def test_non_canonical_config_rejected(self):
        with pytest.raises(PreconditionError):
            oracle._jordan_geometry(2, 1, 2, 3, None)

    def test_swapped_lambda_spectrum_in_caller_labeling(self):
        cfg = self.SWAPPED
        rho1, rho2 = oracle.mean_states(cfg)
        expected = np.sort(np.linalg.eigvalsh(cfg.eta2 * rho2 - cfg.eta1 * rho1))
        observed = lambda_spectra([cfg])[0]
        assert observed.shape == (oracle._jordan_geometry(2, 3, 2, 1, None).span_rank,)
        assert np.abs(_with_kernel(observed, cfg) - expected).max() <= 1e-12

    @staticmethod
    def _nudged(monkeypatch, nudge):
        """Patch ``_gram_block`` to apply ``nudge(parts, g)`` to every
        orbit block it forms, ``parts`` its weight's nonzero counts."""
        honest = oracle._gram_block

        def nudged(parts, n_a, n_c):
            g = honest(parts, n_a, n_c)
            nudge(parts, g)
            return g

        monkeypatch.setattr(oracle, "_gram_block", nudged)

    @classmethod
    def _nudged_entry(cls, monkeypatch, delta, block=0, entry=(0, 0)):
        """Move one entry of the all-ones config's orbit block ``block`` by
        delta."""
        weight, _ = list(oracle._orbits(ALL_ONES.n, ALL_ONES.total_copies))[block]

        def nudge(parts, g):
            if parts == weight:
                g[entry] += delta

        cls._nudged(monkeypatch, nudge)

    def test_indefinite_gram_rejected(self, monkeypatch):
        # an entry above 1 is no inner product of unit vectors: K has a
        # negative eigenvalue, which no frame C^T C reproduces
        first = _gram_blocks(canonicalize(ALL_ONES)[0])[0][1][0, 0]
        assert first == pytest.approx(1.0, abs=1e-15)
        self._nudged_entry(monkeypatch, 0.5)
        with pytest.raises(OracleError, match="misses the support Gram matrix"):
            oracle._jordan_geometry(2, 1, 1, 1, None)

    @pytest.mark.parametrize("block,entry,message", [
        (0, (0, 0), "spans 2 directions, expected 1"),  # the 1x1 degenerate block
        (1, (0, 0), "spans 4 directions, expected 3"),  # the zero entry of the 2x2 block
    ], ids=["degenerate-block", "live-block"])
    def test_nudged_entry_breaks_the_symmetric_vector(self, monkeypatch, block, entry, message):
        # every entry of a block meets its symmetric vector, so moving any
        # one of them splits the shared direction: K gains a rank
        g = _gram_blocks(canonicalize(ALL_ONES)[0])[block][1]
        assert g.shape == (block + 1, block + 1) and g[entry] == (0.0 if block else 1.0)
        self._nudged_entry(monkeypatch, -1e-6, block, entry)
        with pytest.raises(OracleError, match="weight block " + message):
            oracle._jordan_geometry(2, 1, 1, 1, None)

    def test_patched_block_meets_no_stale_reduction(self, monkeypatch):
        # the honest reductions stay cached; a replaced _gram_block keys its own
        oracle._jordan_geometry(2, 1, 1, 1, None)
        self._nudged_entry(monkeypatch, 0.5)
        oracle._jordan_geometry.cache_clear()
        with pytest.raises(OracleError, match="misses the support Gram matrix"):
            oracle._jordan_geometry(2, 1, 1, 1, None)

    def test_nudged_entry_fails_principal_angles(self, monkeypatch):
        # move the entries of every block with a live pair along its first
        # live pair only: the symmetric vector stays shared, one cosine of
        # the block is off by 1e-6
        def nudge(parts, g):
            if min(g.shape) > 1:
                u, _, vh = np.linalg.svd(g)
                g -= 1e-6 * np.outer(u[:, 1], vh[1])

        self._nudged(monkeypatch, nudge)
        result = verify.check_principal_angles(64)
        assert not result.passed
        assert result.line().startswith("FAIL principal angles")

    @pytest.mark.parametrize("cfg", list(verify.certification_grid(256)), ids=_config_id)
    def test_blocked_lambda_matches_dense_route(self, cfg):
        rho1, rho2 = oracle.mean_states(cfg)
        priors = [ProblemConfig(cfg.n, cfg.n_a, cfg.n_b, cfg.n_c, eta1)
                  for eta1 in verify.GRID_PRIORS]
        batched = lambda_spectra(priors)
        canonical, _ = canonicalize(cfg)
        geometry = oracle._jordan_geometry(
            canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, None
        )
        assert [row.shape for row in batched] == [(geometry.span_rank,)] * len(priors)
        for prior, row in zip(priors, batched):
            expected = np.linalg.eigvalsh(prior.eta2 * rho2 - prior.eta1 * rho1)
            for observed in (lambda_spectra([prior])[0], row):
                assert np.abs(_with_kernel(observed, cfg) - expected).max() <= 1e-12


class TestDenseFamiliesAtCap:
    @pytest.mark.parametrize("check,detail", [
        (verify.check_principal_angles, "67 configs"),
        (verify.check_min_error, "201 cases"),
        (verify.check_povm, "335 cases"),
    ], ids=["principal-angles", "min-error", "povm"])
    def test_passes_at_default_cap(self, check, detail):
        result = check(oracle.DEFAULT_DIM_CAP)
        assert result.passed
        assert result.detail == detail

    @pytest.mark.parametrize("check,detail", [
        (verify.check_principal_angles, "81 configs"),
        (verify.check_min_error, "243 cases"),
        (verify.check_povm, "405 cases"),
    ], ids=["principal-angles", "min-error", "povm"])
    def test_passes_at_four_to_the_ninth(self, check, detail):
        # the whole grid, up to (4; 3,3,3) with 4^9 = 262 144 dimensions
        oracle._jordan_geometry.cache_clear()
        try:
            result = check(4**9)
        finally:
            oracle._jordan_geometry.cache_clear()
        assert result.passed
        assert result.detail == detail


class TestNanResiduals:
    # negative controls: a NaN residual is greater than no bound, so each
    # dense family must fold and gate its residuals to fail on one
    def test_min_error_fails_on_nan(self, monkeypatch):
        monkeypatch.setattr(oracle, "helstrom_probabilities",
                            lambda cfgs, cap=None: [math.nan] * len(cfgs))
        result = verify.check_min_error(1024)
        assert not result.passed
        assert result.line() == "FAIL min-error trace norm: max residual nan (162 cases)"

    def test_principal_angles_fail_on_nan(self, monkeypatch):
        honest = oracle.jordan_angles

        def poisoned(cfg, cap=None):
            return [(math.nan, m) for _, m in honest(cfg, cap)]

        monkeypatch.setattr(oracle, "jordan_angles", poisoned)
        result = verify.check_principal_angles(64)
        assert result.line() == "FAIL principal angles: max residual nan (19 configs)"

    def test_povm_fails_on_nan(self, monkeypatch):
        honest = oracle.certify_povms

        def poisoned(cfgs, cap=None, **kwargs):
            return [dataclasses.replace(r, error_rho1_pi2=math.nan)
                    for r in honest(cfgs, cap, **kwargs)]

        monkeypatch.setattr(oracle, "certify_povms", poisoned)
        result = verify.check_povm(1024)
        assert result.line() == ("FAIL POVM certification: max residual nan "
                                 "(failed at n=2 copies=(1,1,1) eta1=0.1)")

    def test_nan_cosine_gets_no_label(self):
        spectrum = jordan_spectrum(ALL_ONES)
        with pytest.raises(OracleError, match="cosine residual nan"):
            oracle.block_labels(np.array([1.0, math.nan]), spectrum)


class TestGramBlocks:
    @pytest.mark.parametrize("cfg", DEFAULT_GRID, ids=_config_id)
    def test_equals_register_route(self, cfg):
        # one block per orbit of label weights, in the order of the orbits'
        # first weights: the rows and columns of b1^T b2 of the orbit's
        # descending weight, ascending by their M_C and M_A count rows;
        # every weight of the orbit has the same singular values
        canonical, _ = canonicalize(cfg)
        n, total = canonical.n, canonical.total_copies
        b1, b2, _, key1, key2 = _register_route(canonical)
        full = b1.T @ b2
        weights, c, a, bc = (_count_rows(m, n) for m in (total, canonical.n_c,
                                                          canonical.n_a, canonical.n2))
        m_c = np.tile(c, (b1.shape[1] // len(c), 1))  # of each b1 column, in _kron order
        m_a = np.repeat(a, len(bc), axis=0)  # of each b2 column
        orbits = {}
        for key, weight in enumerate(weights.tolist()):
            orbits.setdefault(tuple(sorted(weight, reverse=True)), []).append(key)
        blocks = _gram_blocks(canonical)
        assert [size for size, _ in blocks] == [len(keys) for keys in orbits.values()]
        assert sum(size for size, _ in blocks) == math.comb(total + n - 1, n - 1)
        for (_, g), (descending, keys) in zip(blocks, orbits.items()):
            key = next(k for k in keys if tuple(weights[k]) == descending)
            rows, cols = np.flatnonzero(key1 == key), np.flatnonzero(key2 == key)
            rows = rows[np.lexsort(m_c[rows].T[::-1])]
            cols = cols[np.lexsort(m_a[cols].T[::-1])]
            assert np.abs(g - full[np.ix_(rows, cols)]).max() <= 1e-15
            sigma = np.linalg.svd(g, compute_uv=False)
            for key in keys:
                block = full[np.ix_(key1 == key, key2 == key)]
                assert block.shape == g.shape
                assert np.abs(np.linalg.svd(block, compute_uv=False) - sigma).max() <= 1e-14

    @pytest.mark.parametrize("n", range(2, 7))
    def test_orbits_match_the_weight_count(self, n):
        # the orbits, their sizes and their order (that of their first
        # weights) as counted over every weight of up to 12 sites
        for total in range(1, 13):
            counted = Counter(tuple(sorted(row.tolist(), reverse=True))
                              for row in _count_rows(total, n))
            assert list(oracle._orbits(n, total)) == [(tuple(p for p in w if p), size)
                                                      for w, size in counted.items()]

    def test_scale_without_register_bases(self, monkeypatch):
        # (4; 3,3,3) has n^N = 262 144 site strings; its register route
        # would need ~3.5 GB, the counted blocks need no n^N-row array
        def refuse(*args):
            raise AssertionError("geometry built a register basis")

        monkeypatch.setattr(oracle, "_sym_basis", refuse)
        monkeypatch.setattr(oracle, "_kron", refuse)
        oracle._jordan_geometry.cache_clear()
        try:
            geometry = oracle._jordan_geometry(4, 3, 3, 3, 4**9)
        finally:
            oracle._jordan_geometry.cache_clear()
        blocks = jordan_spectrum(ProblemConfig(4, 3, 3, 3)).blocks
        expected = np.sort(np.concatenate([np.full(b.multiplicity, b.overlap) for b in blocks]))
        cosines = tiled_cosines(geometry)
        assert cosines.shape == expected.shape == (1680,)
        assert np.abs(np.sort(cosines) - expected).max() <= 1e-12


@pytest.fixture
def fresh_oracle_caches():
    """Empty the orbit reductions and the geometries before and after a
    test whose patch reaches below ``_gram_block``, the function that keys
    the orbit reductions."""
    for cache in (oracle._orbit_block, oracle._jordan_geometry):
        cache.cache_clear()
    yield
    for cache in (oracle._orbit_block, oracle._jordan_geometry):
        cache.cache_clear()


class TestGramCounts:
    @pytest.mark.parametrize("cfg", DEFAULT_GRID, ids=_config_id)
    def test_counts_match_the_site_strings(self, cfg):
        # both orientations: the geometry uses the canonical one
        for oriented in (cfg, canonicalize(cfg)[0]):
            oracle.check_gram_counts(oriented)

    def test_every_weight_is_counted(self, monkeypatch):
        # the counts are those of one block per orbit, the zero-dropped
        # parts the geometry rounds, each asked for once; a count moved in
        # the orbit of (2, 1, 1) fails at the first of its three weights,
        # and each of the C(N + n - 1, n - 1) weights' strings is counted
        cfg = ProblemConfig(3, 2, 1, 1)
        honest, asked = oracle._block_counts, []

        def recording(parts, n_a, n_c):
            asked.append(parts)
            return honest(parts, n_a, n_c)

        monkeypatch.setattr(oracle, "_block_counts", recording)
        oracle.check_gram_counts(cfg)
        orbits = list(oracle._orbits(cfg.n, cfg.total_copies))
        assert asked == sorted(w for w, _ in orbits)
        assert len(asked) == 4
        assert sum(size for _, size in orbits) == math.comb(4 + 2, 2)

        def moved(parts, n_a, n_c):
            counts = list(recording(parts, n_a, n_c))
            if parts == (2, 1, 1):
                counts[6] = counts[6].copy()
                counts[6].flat[0] += 1
            return tuple(counts)

        monkeypatch.setattr(oracle, "_block_counts", moved)
        with pytest.raises(OracleError,
                           match=r"^cell .* of weight \(1, 1, 2\) \(parts \(2, 1, 1\)\)"):
            oracle.check_gram_counts(cfg)

    @pytest.mark.parametrize("index,name", [(6, "cell"), (3, "B1 column"), (5, "B2 column")],
                             ids=["m_b", "m_ab", "m_bc"])
    def test_count_moved_by_one_string_fails(self, monkeypatch, fresh_oracle_caches,
                                             index, name):
        # negative control: one integer count of the orbit block of the
        # weights (1, 2) and (2, 1) of (2; 1,1,1) moves by one string, |M_B|
        # of a Gram entry or one factor of a squared norm; the first weight
        # of the orbit reports it
        monkeypatch.setattr(oracle, "_block_counts", _moved_count(index, (2, 1)))
        with pytest.raises(OracleError, match=f"^{name} string counts .* of weight \\(1, 2\\)"):
            oracle.check_gram_counts(ALL_ONES)
        result = verify.check_principal_angles(64)
        assert not result.passed
        assert result.line().startswith("FAIL principal angles: max residual 1.000e+00 "
                                        f"(n=2 copies=(1,1,1): {name} string counts")

    def test_stray_strings_fail(self, monkeypatch):
        # a block that leaves out its first row, with its column norms cut
        # to match, leaves that row's strings in no block
        honest = oracle._block_counts

        def short(parts, n_a, n_c):
            m_c, m_a, s_c, s_ab, s_a, s_bc, s_b = honest(parts, n_a, n_c)
            return m_c[1:], m_a, s_c[1:], s_ab[1:], s_a, s_bc - s_b[0] * s_c[0], s_b[1:]

        # the orbit (3,) loses its one row, "000" and "111"; the orbit
        # (2, 1) its row M_C = (0, 1), C on the minority label: "001", "110"
        monkeypatch.setattr(oracle, "_block_counts", short)
        with pytest.raises(OracleError, match="^4 site strings lie outside every Gram block$"):
            oracle.check_gram_counts(ALL_ONES)

    def test_cap_enforced(self):
        # 2^13 site strings, over the default cap: refused before any count
        with pytest.raises(OracleError, match="dense dimension 8192 exceeds cap 4096"):
            oracle.check_gram_counts(ProblemConfig(2, 5, 4, 4))

    @pytest.mark.parametrize("cfg", COUNTED_GRID, ids=_config_id)
    def test_orbit_counts_match_the_site_strings(self, cfg):
        _check_orbit_counts(cfg)

    @pytest.mark.parametrize("index,name", [(6, "cell"), (3, "B1 column"), (5, "B2 column")],
                             ids=["m_b", "m_ab", "m_bc"])
    def test_orbit_count_moved_by_one_string_fails(self, monkeypatch, fresh_oracle_caches,
                                                   index, name):
        # negative control: a count moves only in the zero-dropped parts
        # (3,) the geometry passes for the weights (0, 3) and (3, 0), never
        # in a full n-label weight; both the check and the reference fail
        monkeypatch.setattr(oracle, "_block_counts", _moved_count(index, (3,)))
        with pytest.raises(OracleError, match=f"^{name} string counts .* of weight "
                                              r"\(0, 3\) \(parts \(3,\)\)"):
            oracle.check_gram_counts(ALL_ONES)
        with pytest.raises(AssertionError, match=r"parts \(3,\)"):
            _check_orbit_counts(ALL_ONES)

    def test_one_count_per_distinct_orbit_block(self):
        # a default verify evaluates _block_counts once per distinct
        # (parts, n_a, n_c), for the geometry and the exact check alike:
        # the 96 distinct orbit blocks of the 36 canonical configs
        canonical = {canonicalize(cfg)[0] for cfg in DEFAULT_GRID}
        keys = {(parts, c.n_a, c.n_c)
                for c in canonical for parts, _ in oracle._orbits(c.n, c.total_copies)}
        caches = (oracle._block_counts, oracle._orbit_block, oracle._jordan_geometry)
        for cache in caches:
            cache.cache_clear()
        try:
            assert [r.passed for r in verify.run_all(max_total_dim=1024, samples=1000,
                                                     seed=1)] == [True] * 7
            info = oracle._block_counts.cache_info()
        finally:
            for cache in caches:
                cache.cache_clear()
        assert len(keys) == 96
        assert info.misses == info.currsize == len(keys) < info.maxsize


def _moved_count(index, moved_parts):
    """A ``_block_counts`` whose count array ``index`` of the block of
    ``moved_parts`` has its first entry moved by one string, in a copy:
    the honest arrays are cached and read-only."""
    honest = oracle._block_counts

    def moved(parts, n_a, n_c):
        counts = list(honest(parts, n_a, n_c))
        if parts == moved_parts:
            counts[index] = counts[index].copy()
            counts[index].flat[0] += 1
        return tuple(counts)

    return moved


def _check_orbit_counts(cfg):
    """The counts ``_jordan_geometry`` reads, each orbit's
    ``_block_counts(parts)`` with the zero counts of its descending weight
    dropped, against the n^N site strings of every weight of the orbit: a
    weight's labels sorted by descending count map each of its (M_C, M_A)
    cells to the representative's, which must hold |M_A| |M_B| |M_C|
    strings, and its rows and columns the squared norms."""
    n, total = cfg.n, cfg.total_copies
    sites = np.indices((n,) * total).reshape(total, -1)  # a row per site, A first
    a, b, c = ((register[:, :, None] == np.arange(n)).sum(axis=0)
               for register in np.split(sites, [cfg.n_a, cfg.n_a + cfg.n_b]))
    cells = Counter(zip(*(map(tuple, rows.tolist()) for rows in (a + b + c, c, a))))
    for w in sorted({w for w, _, _ in cells}):
        order = sorted(range(n), key=lambda label: -w[label])[:sum(map(bool, w))]
        parts = tuple(w[label] for label in order)
        m_c, m_a, s_c, s_ab, s_a, s_bc, s_b = oracle._block_counts(parts, cfg.n_a, cfg.n_c)

        def unsorted(row):
            full = [0] * n
            for label, count in zip(order, row):
                full[label] = count
            return tuple(full)

        strings = np.array([[cells.pop((w, unsorted(row), unsorted(col)), 0)
                             for col in m_a.tolist()] for row in m_c.tolist()]).reshape(s_b.shape)
        for name, counted, enumerated in (("cell", s_a * s_b * s_c[:, None], strings),
                                          ("B1 column", s_ab * s_c, strings.sum(axis=1)),
                                          ("B2 column", s_a * s_bc, strings.sum(axis=0))):
            assert counted.tolist() == enumerated.tolist(), (
                f"{name} counts of parts {parts} miss weight {w}'s site strings")
    assert not cells, f"{sum(cells.values())} site strings lie outside every orbit block"


def _count_rows(m, n):
    """The label-count row of every multiset of m labels out of n, in
    ``combinations_with_replacement`` order."""
    return np.array([np.bincount(labels, minlength=n)
                     for labels in combinations_with_replacement(range(n), m)])


def _register_route(cfg):
    """The two canonical support bases as n^N-row products of symmetric
    register bases, the label weight of each site string, and the weight
    of each basis column."""
    ab, c, a, bc = (oracle._sym_basis(m, cfg.n) for m in (cfg.n1, cfg.n_c, cfg.n_a, cfg.n2))
    b1, b2 = oracle._kron(ab, c), oracle._kron(a, bc)
    _, weight = np.unique(oracle._multiset_keys(cfg.total_copies, cfg.n), return_inverse=True)
    key1, key2 = (weight[np.abs(b).argmax(axis=0)] for b in (b1, b2))
    return b1, b2, weight, key1, key2


def _reference_blocks(cfg):
    """The per-weight-block geometry of the register route: each label
    weight's rows and columns of the two n^N-row support bases, reduced on
    their own in the frame of a span SVD.  Returns every block's rho1 and rho2 in its span frame and
    its paired singular values."""
    canonical, _ = canonicalize(cfg)
    b1, b2, weight, key1, key2 = _register_route(canonical)
    blocks = []
    for key in range(weight.max() + 1):
        rows = weight == key
        w1, w2 = b1[np.ix_(rows, key1 == key)], b2[np.ix_(rows, key2 == key)]
        u_span, stacked_sv, _ = np.linalg.svd(np.hstack([w1, w2]), full_matrices=False)
        w = u_span[:, stacked_sv > 1e-6]
        r1, r2 = ((w.T @ b) @ (w.T @ b).T / rank
                  for b, rank in ((w1, canonical.d1), (w2, canonical.d2)))
        sigma = np.clip(np.linalg.svd(w1.T @ w2)[1], 0.0, 1.0)
        blocks.append((r1, r2, sigma))
    return blocks


class TestStackedGeometry:
    @pytest.mark.parametrize("cfg", DEFAULT_GRID, ids=_config_id)
    def test_matches_per_block_reference(self, cfg):
        blocks = _reference_blocks(cfg)
        canonical, swapped = canonicalize(cfg)
        geometry = oracle._jordan_geometry(
            canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, None
        )
        assert geometry.span_rank == sum(len(r1) for r1, _, _ in blocks)
        cosines = -np.sort(-np.concatenate([sigma for *_, sigma in blocks]))
        tiled = tiled_cosines(geometry)
        assert tiled.shape == cosines.shape
        assert np.abs(tiled - cosines).max() <= 1e-15

        priors = [ProblemConfig(cfg.n, cfg.n_a, cfg.n_b, cfg.n_c, eta1)
                  for eta1 in verify.GRID_PRIORS]
        for prior, observed in zip(priors, lambda_spectra(priors)):
            flipped, _ = canonicalize(prior)
            values = np.concatenate([
                np.linalg.eigh(flipped.eta2 * r2 - flipped.eta1 * r1)[0] for r1, r2, _ in blocks
            ])
            expected = np.sort(-values if swapped else values)
            assert observed.shape == expected.shape
            assert np.abs(observed - expected).max() <= 1e-15

    def test_block_must_hold_its_symmetric_vector(self):
        # a 1x1 block of G: the degenerate pair spans one direction, a live
        # pair at cosine 1/sqrt(2) would span two; no weight block lacks
        # its symmetric vector
        with pytest.raises(OracleError, match="weight block spans 2 directions, expected 1"):
            oracle._weight_block(np.array([[1 / math.sqrt(2)]]))
        block = oracle._weight_block(np.array([[1.0]]))
        assert block.size == 1  # one weight; _jordan_geometry sets the orbit's size
        assert block.cosines.shape == (1,) and abs(block.cosines[0] - 1.0) <= 1e-15
        assert block.sp1.shape == block.sp2.shape == (1, 0)
        assert np.abs(block.identity - 1.0).max() <= 1e-15

    def test_one_block_per_orbit(self):
        # every block spans d1_w + d2_w - 1 directions and carries the
        # d1_w - 1 live pairs, never more pairs than supp(rho2) directions
        for cfg in DEFAULT_GRID:
            canonical, _ = canonicalize(cfg)
            geometry = oracle._jordan_geometry(
                canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, None
            )
            orbits = _gram_blocks(canonical)
            assert len(geometry.blocks) == len(orbits)
            for block, (size, g) in zip(geometry.blocks, orbits):
                size1, size2 = g.shape
                assert block.size == size and size1 <= size2
                assert block.r1.shape == (size1 + size2 - 1, size1 + size2 - 1)
                assert block.sp1.shape == block.sp2.shape == (size1 + size2 - 1, size1 - 1)
                assert block.cosines.shape == (size1,)
                assert np.all(block.cosines[1:] < 1.0 - 1e-7)
            span = sum(size * (sum(g.shape) - 1) for size, g in orbits)
            assert geometry.span_rank == span

    def test_mixed_configs_match_per_config_calls(self):
        # one call over every config and prior of the whole 4^9 grid,
        # mirrored pairs included, gives bit for bit what each config's
        # own call gives
        cap = 4**9
        cfgs = [ProblemConfig(base.n, base.n_a, base.n_b, base.n_c, eta1)
                for base in verify.certification_grid(cap)
                for eta1 in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0)]
        assert len(cfgs) == 81 * 6
        oracle._jordan_geometry.cache_clear()
        try:
            spectra = lambda_spectra(cfgs, cap)
            helstrom = oracle.helstrom_probabilities(cfgs, cap)
            reports = oracle.certify_povms(cfgs, cap)
            for cfg, values, dense, report in zip(cfgs, spectra, helstrom, reports):
                assert values.tobytes() == lambda_spectra([cfg], cap)[0].tobytes()
                # the size-weighted trace norm is that of the tiled spectrum
                assert abs(dense - 0.5 * (1.0 - np.abs(values).sum())) <= 1e-15
                assert dense.hex() == oracle.helstrom_probability(cfg, cap).hex()
                assert report == oracle.certify_povm(cfg, cap)
        finally:
            oracle._jordan_geometry.cache_clear()


class TestBatchedPriors:
    @staticmethod
    def _blocks(cap):
        total = 0
        for cfg in verify.certification_grid(cap):
            c, _ = canonicalize(cfg)
            total += len(oracle._jordan_geometry(c.n, c.n_a, c.n_b, c.n_c, cap).blocks)
        return total

    def test_one_eigh_per_block_and_one_spectrum_per_config(self, monkeypatch):
        # one eigensolve per distinct orbit block of the grid, 96 of its
        # 249 (config, block) pairs, each stacking every prior of every
        # config that shares the block; one spectrum per canonical config
        cap = 1024
        blocks = self._blocks(cap)
        canonical = len({canonicalize(cfg)[0] for cfg in DEFAULT_GRID})
        eighs, spectra = [], []
        honest_eig, honest_spectrum = oracle.hermitian_eig, oracle.jordan_spectrum

        def counting_eig(m):
            eighs.append(m.shape[0])
            return honest_eig(m)

        monkeypatch.setattr(oracle, "hermitian_eig", counting_eig)
        for module in (oracle, verify, discrimination):
            def counting_spectrum(cfg, name=module.__name__):
                spectra.append(name)
                return honest_spectrum(cfg)

            monkeypatch.setattr(module, "jordan_spectrum", counting_spectrum)

        for check, priors in ((verify.check_min_error, verify.GRID_PRIORS),
                              (verify.check_povm, verify.POVM_PRIORS)):
            eighs.clear()
            spectra.clear()
            assert check(cap).passed
            assert (blocks, len(eighs)) == (249, 96)
            assert sum(eighs) == blocks * len(priors)
            assert {size % len(priors) for size in eighs} == {0}
            # one spectrum per canonical config: the min-error family's closed
            # forms, the POVM family's oracle call
            assert len(spectra) == canonical == 36
        assert set(spectra) == {"qudisc.oracle"}

    def test_first_failing_case_in_grid_order(self):
        # the first (config, prior) whose one-prior certification fails
        first = next(
            (cfg, eta1)
            for cfg in verify.certification_grid(1024)
            for eta1 in verify.POVM_PRIORS
            if not oracle.certify_povm(
                ProblemConfig(cfg.n, cfg.n_a, cfg.n_b, cfg.n_c, eta1), 1024,
                printed_high_branch=True,
            ).passed()
        )
        cfg, eta1 = first
        result = verify.check_povm(1024, inject_q_fault=True)
        assert not result.passed
        assert result.detail == (
            f"failed at n={cfg.n} copies=({cfg.n_a},{cfg.n_b},{cfg.n_c}) eta1={eta1}"
        )

    @pytest.mark.parametrize("check,name", [(verify.check_min_error, "min-error trace norm"),
                                            (verify.check_povm, "POVM certification")],
                             ids=["min-error", "povm"])
    def test_batched_failure_names_the_first_failing_config(self, monkeypatch,
                                                            fresh_oracle_caches, check, name):
        # a broken orbit block first met at n = 3: the one batched call
        # raises, and the family names the config a walk over the grid
        # meets first, the mirrored (3; 1,1,2) of (3; 2,1,1)
        honest = oracle._gram_block

        def nudged(parts, n_a, n_c):
            g = honest(parts, n_a, n_c)
            if (parts, n_a, n_c) == ((2, 1, 1), 2, 1):
                g = g.copy()
                g[0, 0] -= 1e-6
            return g

        monkeypatch.setattr(oracle, "_gram_block", nudged)
        result = check(1024)
        assert result.line().startswith(f"FAIL {name}: max residual 1.000e+00 "
                                        "(n=3 copies=(1,1,2): weight block spans")

    def test_default_grid_reduces_each_distinct_orbit_block_once(self):
        # the 36 canonical configs of the default grid have 163 orbit
        # blocks, 96 of them distinct: a block depends only on its weight's
        # nonzero counts and on (n_a, n_c)
        canonical = {canonicalize(cfg)[0] for cfg in DEFAULT_GRID}
        orbits = sum(len(list(oracle._orbits(c.n, c.total_copies))) for c in canonical)
        for cache in (oracle._orbit_block, oracle._jordan_geometry):
            cache.cache_clear()
        try:
            for check in (verify.check_principal_angles, verify.check_min_error,
                          verify.check_povm):
                assert check(1024).passed
            info = oracle._orbit_block.cache_info()
        finally:
            oracle._jordan_geometry.cache_clear()
        assert (len(canonical), orbits) == (36, 163)
        assert info.misses == info.currsize == 96
        assert info.hits == orbits - 96

    def test_shared_orbit_block_is_read_only(self):
        # the configs (3; 2,1,1) and (4; 2,1,1) share every array of the
        # block of the counts (2, 1, 1), with no copy per config: an in-place
        # edit through one must not reach the other
        unit = oracle._orbit_block(oracle._gram_block, (2, 1, 1), 2, 1)
        arrays = ("r1", "r2", "identity", "unpaired", "sp1", "sp2", "cosines")
        for n, orbit in ((3, 3), (4, 3)):  # the orbits of weight (2, 1, 1[, 0])
            block = oracle._jordan_geometry(n, 2, 1, 1, None).blocks[orbit]
            assert all(getattr(block, name) is getattr(unit, name) for name in arrays)
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(unit, name)[...] = 0.0

    def test_dense_families_build_each_geometry_once(self):
        cap = oracle.DEFAULT_DIM_CAP
        oracle._jordan_geometry.cache_clear()
        try:
            for check in (verify.check_principal_angles, verify.check_min_error,
                          verify.check_povm):
                assert check(cap).passed
            canonical = {canonicalize(cfg)[0] for cfg in verify.certification_grid(cap)}
            info = oracle._jordan_geometry.cache_info()
        finally:
            oracle._jordan_geometry.cache_clear()
        assert info.maxsize == 64
        assert info.misses == info.currsize == len(canonical) <= info.maxsize


class TestBatchedEigvalues:
    def test_interleaved_keys_come_back_in_input_order(self, monkeypatch):
        # five stacks of three keys, each key's own matrix size, interleaved:
        # one hermitian_eig call per key, and every stack's eigenvalues
        # bitwise those of its own call
        rng = np.random.default_rng(7)

        def stack(count, size):
            m = rng.standard_normal((count, size, size))
            return m + m.swapaxes(-1, -2)

        stacks = [("a", stack(2, 3)), ("b", stack(1, 5)), ("a", stack(3, 3)),
                  ("c", stack(2, 1)), ("b", stack(4, 5))]
        calls = []
        honest = oracle.hermitian_eig

        def counting(m):
            calls.append(m.shape)
            return honest(m)

        monkeypatch.setattr(oracle, "hermitian_eig", counting)
        values = oracle._batched_eigvalues(stacks)
        assert calls == [(5, 3, 3), (5, 5, 5), (2, 1, 1)]
        assert len(values) == len(stacks)
        for (_, m), observed in zip(stacks, values):
            assert observed.tobytes() == honest(m)[0].tobytes()


class TestEigensolver:
    def test_diagonal(self):
        values, vectors = oracle.hermitian_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(values, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x(self):
        values, _ = oracle.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(values, [-1.0, 1.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(42)
        raw = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        m = (raw + raw.conj().T) / 2
        values, vectors = oracle.hermitian_eig(m)
        recon = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(recon - m) <= 1e-9 * np.linalg.norm(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(OracleError):
            oracle.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @staticmethod
    def _stack():
        raw = np.random.default_rng(7).standard_normal((4, 6, 6))
        return raw + raw.swapaxes(-1, -2)

    def test_stack_matches_single_matrices(self):
        stack = self._stack()
        values, vectors = oracle.hermitian_eig(stack)
        assert values.shape == (4, 6) and vectors.shape == (4, 6, 6)
        for member, member_values in zip(stack, values):
            assert np.abs(member_values - oracle.hermitian_eig(member)[0]).max() <= 1e-12

    def test_stack_rejects_one_non_hermitian_member(self):
        stack = self._stack()
        stack[2, 0, 1] += 1e-6
        with pytest.raises(OracleError, match="not Hermitian"):
            oracle.hermitian_eig(stack)

    @pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_input(self, entry):
        # negative control: each gate compared against a NaN would pass it
        with pytest.raises(OracleError, match="non-finite entry"):
            oracle.hermitian_eig(np.array([[1.0, entry], [entry, 1.0]]))

    def test_rejects_non_finite_output(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def poisoned(m):
            values, vectors = real_eigh(m)
            values[1, 0] = math.nan  # one eigenvalue of one member
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        with pytest.raises(OracleError, match="residual nan"):
            oracle.hermitian_eig(self._stack())

    def test_stack_rejects_one_corrupted_decomposition(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def corrupted(m):
            values, vectors = real_eigh(m)
            values[1, 0] += 1e-6  # one eigenvalue of one member
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(OracleError, match="residual"):
            oracle.hermitian_eig(self._stack())


class TestPrincipalAngles:
    def test_all_ones(self):
        angles = principal_angles(*oracle.mean_states(ALL_ONES))
        _assert_same_angles(angles, np.repeat([1.0, 0.5], [4, 2]))

    def test_2211(self):
        angles = principal_angles(*oracle.mean_states(ProblemConfig(2, 2, 1, 1, 0.5)))
        _assert_same_angles(angles, np.repeat([1.0, 1 / math.sqrt(3)], [5, 3]))

    def test_fast_route_agrees_with_dense_route(self):
        for cfg in (ALL_ONES, ProblemConfig(2, 2, 1, 1, 0.5), ProblemConfig(3, 1, 2, 1, 0.5)):
            dense = principal_angles(*oracle.mean_states(cfg))
            _assert_same_angles(dense, _expanded(oracle.jordan_angles(cfg)))

    def test_fast_route_handles_swapped_orientation(self):
        mirrored = oracle.jordan_angles(ProblemConfig(2, 1, 1, 2, 0.5))
        forward = oracle.jordan_angles(ProblemConfig(2, 2, 1, 1, 0.5))
        assert len(mirrored) == len(forward)
        for (cm, mm), (cf, mf) in zip(mirrored, forward):
            assert mm == mf
            assert cm == pytest.approx(cf, abs=1e-12)


class TestGroupByBlocks:
    # (2; 3,1,3): overlaps 1, 3/4, 1/2, 1/4 with multiplicities 8, 6, 4, 2,
    # all exact in binary, and so is half the smallest gap, 1/8
    SPECTRUM = jordan_spectrum(ProblemConfig(2, 3, 1, 3, 0.5))
    HALF_GAP = 0.125

    @classmethod
    def _cosines(cls, counts=(8, 6, 4, 2)):
        return np.repeat([b.overlap for b in cls.SPECTRUM.blocks], counts)

    def test_exact_cosines_give_the_closed_form(self):
        groups = oracle.group_by_blocks(self._cosines(), self.SPECTRUM)
        assert groups == [(1.0, 8), (0.75, 6), (0.5, 4), (0.25, 2)]

    def test_reports_each_blocks_farthest_cosine(self):
        cosines = self._cosines()
        cosines[8] += 0.5 * self.HALF_GAP  # block 1, first place
        cosines[13] -= 0.9 * self.HALF_GAP  # block 1, last place
        groups = oracle.group_by_blocks(cosines, self.SPECTRUM)
        assert groups[1] == (0.75 - 0.9 * self.HALF_GAP, 6)
        assert groups[::2] == [(1.0, 8), (0.5, 4)]

    @pytest.mark.parametrize("index,shift", [(7, -1), (8, 1), (13, -1), (19, -1)],
                             ids=["block-0-down", "block-1-up", "block-1-down", "block-3-down"])
    def test_cosine_moved_by_half_the_gap(self, index, shift):
        cosines = self._cosines()
        cosines[index] += shift * self.HALF_GAP
        with pytest.raises(OracleError, match="reaches half the smallest gap 1.2e-01"):
            oracle.group_by_blocks(cosines, self.SPECTRUM)

    def test_cosine_moved_to_the_next_block(self):
        # one cosine of block 1 sits at O_2, so it is labelled 2:
        # multiplicities 8, 5, 5, 2
        with pytest.raises(OracleError, match=r"block 1 holds 5 cosines, expected d\^k = 6"):
            oracle.group_by_blocks(self._cosines((8, 5, 5, 2)), self.SPECTRUM)

    @pytest.mark.parametrize("counts", [(8, 6, 4, 1), (8, 6, 4, 3)], ids=["short", "long"])
    def test_wrong_length(self, counts):
        with pytest.raises(OracleError,
                           match=rf"block 3 holds {counts[3]} cosines, expected d\^k = 2"):
            oracle.group_by_blocks(self._cosines(counts), self.SPECTRUM)

    def test_weights_count_each_cosine(self):
        # one cosine per block, counted d^k times, is the whole spectrum
        overlaps = self._cosines((1, 1, 1, 1))
        groups = oracle.group_by_blocks(overlaps, self.SPECTRUM, np.array([8, 6, 4, 2]))
        assert groups == [(1.0, 8), (0.75, 6), (0.5, 4), (0.25, 2)]
        with pytest.raises(OracleError, match=r"block 2 holds 3 cosines, expected d\^k = 4"):
            oracle.group_by_blocks(overlaps, self.SPECTRUM, np.array([8, 6, 3, 2]))

    @pytest.mark.parametrize("cfg", [*DEFAULT_GRID, ProblemConfig(2, 20, 20, 20)],
                             ids=_config_id)
    def test_labels_match_the_position_split(self, cfg):
        # the d1 descending cosines, labelled one by one, fall into the
        # blocks by position: the first d^0 into block 0, the next d^1
        # into block 1, and so on
        canonical, _ = canonicalize(cfg)
        geometry = oracle._jordan_geometry(
            canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, 2**61
        )
        spectrum = jordan_spectrum(canonical)
        position = np.repeat([b.k for b in spectrum.blocks],
                             [b.multiplicity for b in spectrum.blocks])
        assert np.array_equal(oracle.block_labels(tiled_cosines(geometry), spectrum), position)

    @staticmethod
    def _with_moved_cosine(monkeypatch, cfg, pick):
        """Serve ``cfg``'s geometry with the first live cosine of its first
        orbit block of size > 1 replaced by ``pick(its label, spectrum)``;
        returns that label and the orbit's size."""
        canonical, _ = canonicalize(cfg)
        spectrum = jordan_spectrum(canonical)
        geometry = oracle._jordan_geometry(
            canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, None
        )
        index, block = next((i, b) for i, b in enumerate(geometry.blocks)
                            if b.size > 1 and len(b.cosines) > 1)
        label = int(oracle.block_labels(block.cosines, spectrum)[1])
        cosines = block.cosines.copy()
        cosines[1] = pick(label, spectrum)
        blocks = list(geometry.blocks)
        blocks[index] = dataclasses.replace(block, cosines=cosines)
        moved = dataclasses.replace(geometry, blocks=tuple(blocks))
        monkeypatch.setattr(oracle, "_jordan_geometry", lambda *args: moved)
        return label, block.size

    def test_orbit_cosine_moved_to_the_next_block(self, monkeypatch):
        # negative control: one cosine of an orbit block moves onto the
        # next O_k, so its block loses the orbit's size in its count
        cfg = ProblemConfig(3, 2, 1, 2, 0.5)
        spectrum = jordan_spectrum(cfg)
        label, size = self._with_moved_cosine(
            monkeypatch, cfg, lambda k, spectrum: spectrum.blocks[k + 1].overlap)
        assert size > 1 and label < spectrum.k_max
        d_k = spectrum.blocks[label].multiplicity
        with pytest.raises(OracleError, match=rf"block {label} holds {d_k - size} cosines, "
                                              rf"expected d\^k = {d_k}"):
            oracle.jordan_angles(cfg)

    def test_live_pair_labelled_degenerate_raises(self, monkeypatch):
        # a live pair's cosine moved onto O_0 = 1 carries no unambiguous
        # information: the POVM cannot weigh it
        cfg = ProblemConfig(3, 2, 1, 2, 0.5)
        self._with_moved_cosine(monkeypatch, cfg, lambda k, spectrum: 1.0)
        with pytest.raises(OracleError, match="labelled with the degenerate block 0"):
            oracle.certify_povm(cfg)

    def test_geometry_holds_no_array_of_d1_entries(self):
        # (10; 3,3,3) has d1 = 1 101 100 Jordan directions in 26 orbit
        # blocks; none of the geometry's arrays grows with d1
        cfg = ProblemConfig(10, 3, 3, 3)
        oracle._jordan_geometry.cache_clear()
        try:
            geometry = oracle._jordan_geometry(10, 3, 3, 3, 10**9)
            groups = oracle.jordan_angles(cfg, 10**9)
        finally:
            oracle._jordan_geometry.cache_clear()
        assert [m for _, m in groups] == [b.multiplicity for b in jordan_spectrum(cfg).blocks]
        arrays = [value for b in geometry.blocks for value in vars(b).values()
                  if isinstance(value, np.ndarray)]
        assert not any(isinstance(value, np.ndarray) for value in vars(geometry).values())
        assert max(a.size for a in arrays) < cfg.d1


class TestComponentSplit:
    @pytest.mark.parametrize("cfg", list(verify.certification_grid(256)), ids=_config_id)
    def test_matches_full_eigh_route(self, cfg):
        rho1, rho2 = oracle.mean_states(cfg)
        _assert_same_angles(principal_angles(rho1, rho2), _full_angles(rho1, rho2))

    @staticmethod
    def _psd(rng, size, rank):
        raw = rng.standard_normal((size, rank))
        return raw @ raw.T

    def test_permuted_block_diagonal_pair(self):
        # (size, rank of rho1's block, rank of rho2's block): some blocks
        # belong to one state only, so min(d1, d2) exceeds the sum of the
        # blocks' pair counts and the split must add zero cosines
        plan = [(1, 1, 0), (3, 2, 3), (3, 3, 1), (4, 2, 2), (2, 0, 2), (5, 3, 4)]
        rng = np.random.default_rng(20261019)
        dim = sum(size for size, *_ in plan)
        rho1, rho2 = np.zeros((dim, dim)), np.zeros((dim, dim))
        planted = np.repeat(np.arange(len(plan)), [size for size, *_ in plan])
        start = 0
        for size, rank1, rank2 in plan:
            block = slice(start, start + size)
            rho1[block, block] = self._psd(rng, size, rank1)
            rho2[block, block] = self._psd(rng, size, rank2)
            start += size
        perm = rng.permutation(dim)
        rho1, rho2, planted = rho1[np.ix_(perm, perm)], rho2[np.ix_(perm, perm)], planted[perm]

        labels = components((rho1 != 0) | (rho2 != 0))
        assert np.array_equal(labels[:, None] == labels, planted[:, None] == planted)
        cosines = _full_angles(rho1, rho2)
        assert len(cosines) == 11 and np.sum(cosines < 1e-12) == 3
        _assert_same_angles(principal_angles(rho1, rho2), cosines)

    def test_dense_pair_is_one_component(self, monkeypatch):
        rng = np.random.default_rng(7)
        rho1, rho2 = self._psd(rng, 12, 5), self._psd(rng, 12, 7)
        assert np.all(rho1 != 0) and np.all(rho2 != 0)
        assert not components((rho1 != 0) | (rho2 != 0)).any()
        calls = []
        honest = oracle.hermitian_eig

        def counting(m):
            calls.append(m.shape)
            return honest(m)

        monkeypatch.setattr(oracle, "hermitian_eig", counting)
        _assert_same_angles(principal_angles(rho1, rho2), _full_angles(rho1, rho2))
        assert calls == [(2, 1, 12, 12)]


class TestLambdaSpectrum:
    @staticmethod
    def _span_rank(cfg):
        # d1 + d2 minus the shared totally symmetric subspace of N copies
        return cfg.d1 + cfg.d2 - math.comb(cfg.n + cfg.total_copies - 1, cfg.total_copies)

    def test_all_ones_nonzero_values(self):
        values = lambda_spectra([ALL_ONES])[0]
        target = math.sqrt(3) / 24
        assert int(np.sum(np.abs(values - target) < 1e-12)) == 2
        assert int(np.sum(np.abs(values + target) < 1e-12)) == 2
        assert len(values) == self._span_rank(ALL_ONES) == 8

    def test_residual_direction_eigenvalue(self):
        cfg = ProblemConfig(2, 2, 1, 1, 0.5)
        values = lambda_spectra([cfg])[0]
        assert int(np.sum(np.abs(values - 1 / 18) < 1e-12)) == 1
        assert len(values) == self._span_rank(cfg) == 12  # of 16 dimensions

    def test_certain_prior_has_no_error(self):
        # eta1 = 0: Lambda = rho2 >= 0, so the trace norm is 1 exactly
        assert oracle.helstrom_probability(ProblemConfig(2, 1, 1, 1, 0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_helstrom_known_value(self):
        assert oracle.helstrom_probability(ALL_ONES) == pytest.approx(
            0.5 - math.sqrt(3) / 12, abs=1e-12
        )


class TestCertifyPovm:
    def test_all_ones_report(self):
        report = oracle.certify_povm(ALL_ONES)
        assert report.passed()
        assert report.failure_probability == pytest.approx(5 / 6, abs=1e-9)
        assert report.unpaired_rank == 0

    def test_2211_report(self):
        report = oracle.certify_povm(ProblemConfig(2, 2, 1, 1, 0.5))
        assert report.passed()
        assert report.unpaired_rank == 1
        assert report.failure_probability == pytest.approx(
            85 / 144 + 0.5 / math.sqrt(6), abs=1e-9
        )

    def test_swapped_input_certifies(self):
        report = oracle.certify_povm(ProblemConfig(2, 1, 1, 2, 0.3))
        assert report.passed()

    def test_certain_prior(self):
        report = oracle.certify_povm(ProblemConfig(2, 2, 1, 1, 1.0))
        assert report.passed()
        assert report.error_rho1_pi2 <= 1e-12

    def test_negative_control_fails(self):
        report = oracle.certify_povm(ProblemConfig(2, 2, 1, 1, 0.9), printed_high_branch=True)
        assert not report.passed()
        assert report.failure_residual > 1e-3
        # the healthy report on the same config does pass
        assert oracle.certify_povm(ProblemConfig(2, 2, 1, 1, 0.9)).passed()

    @pytest.mark.parametrize("inject,solves", [(False, 1), (True, 2)])
    def test_one_solve_unless_injecting(self, monkeypatch, inject, solves):
        calls, honest = [], oracle._solve_blocks

        def counting(canonical, spectrum, printed_high_branch=False):
            calls.append(printed_high_branch)
            return honest(canonical, spectrum, printed_high_branch)

        monkeypatch.setattr(oracle, "_solve_blocks", counting)
        report = oracle.certify_povm(ProblemConfig(2, 2, 1, 1, 0.9), printed_high_branch=inject)
        assert len(calls) == solves
        assert report.passed() != inject
        # the expected failure always comes from an honest solve
        assert report.expected_failure == total_failure(ProblemConfig(2, 2, 1, 1, 0.9)).q_total

    def test_cap_exceeded(self):
        # the orbit blocks of (2; 3,3,3) span 23 directions
        with pytest.raises(OracleError, match="exceeds cap 22"):
            oracle.certify_povm(ProblemConfig(2, 3, 3, 3, 0.5), cap=22)
        assert oracle.certify_povm(ProblemConfig(2, 3, 3, 3, 0.5), cap=23).passed()

    def test_ambiguous_pair_label_raises(self):
        # at (2; 40,40,40) the smallest gap between the O_k is 3.7e-22, far
        # below float resolution: float noise would pick each pair's block
        with pytest.raises(OracleError, match="reaches half the smallest gap"):
            oracle.certify_povm(ProblemConfig(2, 40, 40, 40, 0.3), 2**121)

    def test_lowrank_assembly_matches_dense_operators(self):
        # rebuild the three POVM elements densely from public pieces and
        # compare every certified quantity against the frame computation
        cfg = ProblemConfig(2, 2, 1, 1, 0.4)
        from qudisc.discrimination import total_failure
        from qudisc.spectrum import jordan_spectrum

        rho1, rho2 = oracle.mean_states(cfg)
        b1, b2 = _support(rho1), _support(rho2)
        u, sigma, vh = np.linalg.svd(b1.conj().T @ b2)
        f, g = b1 @ u, b2 @ vh.conj().T
        spectrum = jordan_spectrum(cfg)
        q_by_k = {b.k: (b.q1, b.q2) for b in total_failure(cfg).blocks}
        dim = rho1.shape[0]
        pi1 = np.zeros((dim, dim), dtype=complex)
        pi2 = g[:, len(sigma):] @ g[:, len(sigma):].conj().T
        identity_t = pi2.copy()
        for i, s in enumerate(sigma):
            fi, gi = f[:, i], g[:, i]
            if 1.0 - s <= 1e-7:  # the degenerate pairs, cosine 1
                identity_t += np.outer(fi, fi.conj())
                continue
            block = min(spectrum.blocks, key=lambda b: abs(b.overlap - s))
            o2 = float(Fraction(*block.overlap_sq_ratio))
            q1, q2 = q_by_k[block.k]
            norm = math.sqrt(1.0 - s * s)
            perp2 = (fi - s * gi) / norm
            perp1 = (gi - s * fi) / norm
            pi1 += ((1 - q1) / (1 - o2)) * np.outer(perp2, perp2.conj())
            pi2 += ((1 - q2) / (1 - o2)) * np.outer(perp1, perp1.conj())
            identity_t += np.outer(fi, fi.conj()) + np.outer(perp1, perp1.conj())
        pi0 = identity_t - pi1 - pi2

        report = oracle.certify_povm(cfg)
        dense_min = min(np.linalg.eigvalsh(op).min() for op in (pi0, pi1, pi2))
        assert report.min_eigenvalue == pytest.approx(float(dense_min), abs=1e-10)
        assert report.error_rho1_pi2 == pytest.approx(
            float(np.trace(rho1 @ pi2).real), abs=1e-12
        )
        assert report.error_rho2_pi1 == pytest.approx(
            float(np.trace(rho2 @ pi1).real), abs=1e-12
        )
        dense_failure = float(
            (cfg.eta1 * np.trace(rho1 @ pi0) + cfg.eta2 * np.trace(rho2 @ pi0)).real
        )
        assert report.failure_probability == pytest.approx(dense_failure, abs=1e-12)


class TestTwentyQubitCopies:
    # (2; 20,20,20): n^N = 2^60, and 21 Jordan blocks whose closed-form
    # overlaps lie as close as 1.5e-10
    CAP = 2**61

    def test_every_block_certified(self):
        cfg = ProblemConfig(2, 20, 20, 20, 0.5)
        groups = oracle.jordan_angles(cfg, self.CAP)
        blocks = jordan_spectrum(cfg).blocks
        assert len(groups) == len(blocks) == 21
        assert [m for _, m in groups] == [b.multiplicity for b in blocks]
        # each block's farthest cosine bounds every cosine of the block
        assert max(abs(c - b.overlap) for (c, _), b in zip(groups, blocks)) <= 1e-9

    def test_forty_copies_are_below_float_resolution(self):
        # (2; 40,40,40): the overlaps' smallest gap, 3.7e-22, is far below
        # the cosines' float error, so no cosine's label can be certified
        with pytest.raises(OracleError, match="reaches half the smallest gap 1.9e-22"):
            oracle.jordan_angles(ProblemConfig(2, 40, 40, 40, 0.5), 2**121)

    @pytest.mark.parametrize("eta1", [0.1, 0.5, 0.9])
    def test_povm_certifies(self, eta1):
        report = oracle.certify_povm(ProblemConfig(2, 20, 20, 20, eta1), self.CAP)
        assert report.passed()

    @pytest.mark.parametrize("eta1", [0.1, 0.5, 0.9])
    def test_helstrom_matches_closed_form(self, eta1):
        cfg = ProblemConfig(2, 20, 20, 20, eta1)
        dense = oracle.helstrom_probability(cfg, self.CAP)
        assert dense == pytest.approx(discrimination.minerror_probability(cfg).p_me, abs=1e-12)


class TestSixQuditCopies:
    # (6; 3,3,3): n^N = 6^9 ~ 1.0e7 and 2 002 label weights in 26 orbits
    CAP = 6**9
    CFG = ProblemConfig(6, 3, 3, 3, 0.3)

    def test_one_block_per_orbit(self):
        orbits = _gram_blocks(self.CFG)
        assert len(orbits) == 26
        assert sum(size for size, _ in orbits) == math.comb(9 + 5, 5) == 2002

    def test_helstrom_matches_closed_form(self):
        dense = oracle.helstrom_probability(self.CFG, self.CAP)
        closed = discrimination.minerror_probability(self.CFG).p_me
        assert dense == pytest.approx(closed, abs=1e-12)

    def test_povm_certifies(self):
        assert oracle.certify_povm(self.CFG, self.CAP).passed()


class TestEveryN:
    # the geometry depends on n only through its orbit sizes, so the
    # default cap admits these copies at every n; the multiplicity count is
    # a polynomial identity in n of degree at most N, which n = 2 ... N + 2
    # cover. Every copy triple with copies <= 2, and (3, 3, 3).
    COPIES = [*product((1, 2), repeat=3), (3, 3, 3)]

    @staticmethod
    def _assert_angles(cfg):
        blocks = jordan_spectrum(canonicalize(cfg)[0]).blocks
        groups = oracle.jordan_angles(cfg)
        assert [m for _, m in groups] == [b.multiplicity for b in blocks]
        assert max(abs(c - b.overlap) for (c, _), b in zip(groups, blocks)) <= 1e-9

    @pytest.mark.parametrize("copies", COPIES, ids=lambda c: "".join(map(str, c)))
    def test_multiplicities_at_every_n(self, copies):
        for n in range(2, sum(copies) + 3):
            self._assert_angles(ProblemConfig(n, *copies))

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_large_n_matches_the_closed_forms(self, n):
        for copies in self.COPIES:
            self._assert_angles(ProblemConfig(n, *copies))
            for eta1 in (0.1, 0.5, 0.9):
                cfg = ProblemConfig(n, *copies, eta1)
                dense = oracle.helstrom_probability(cfg)
                assert abs(dense - discrimination.minerror_probability(cfg).p_me) <= 1e-9
                report = oracle.certify_povm(cfg)
                assert report.passed()
                assert abs(report.failure_probability - total_failure(cfg).q_total) <= 1e-9

    def test_orbit_size_off_by_one_fails_at_its_n(self, monkeypatch, fresh_oracle_caches):
        # negative control: one orbit's size moves by one at n = 5 only
        honest = oracle._orbits

        def off(n, total):
            for i, (parts, size) in enumerate(honest(n, total)):
                yield parts, size + (n == 5 and i == 2)

        monkeypatch.setattr(oracle, "_orbits", off)
        for n in range(2, 8):
            cfg = ProblemConfig(n, 2, 1, 2)
            if n == 5:
                with pytest.raises(OracleError, match="support bases have"):
                    oracle.jordan_angles(cfg)
            else:
                oracle.jordan_angles(cfg)

    @pytest.mark.parametrize("copies", [(8, 4, 4, 4), (30, 10, 10, 10), (10**6, 60, 60, 60)],
                             ids=["8-444", "30-101010", "1e6-606060"])
    def test_over_cap_refused_before_any_block(self, monkeypatch, fresh_oracle_caches, copies):
        # the running span passes the cap after a few orbits, before any
        # count array or block is formed: (30; 10,10,10)'s last orbit alone
        # would make np.indices form 2^30 rows
        def refuse(*args):
            raise AssertionError("a block was built past the cap")

        monkeypatch.setattr(oracle, "_block_counts", refuse)
        monkeypatch.setattr(oracle, "_weight_block", refuse)
        start = time.perf_counter()
        with pytest.raises(OracleError, match="exceeds cap 4096"):
            oracle.jordan_angles(ProblemConfig(*copies))
        assert time.perf_counter() - start < 1.0

    def test_cap_counts_the_spans_built(self):
        # the counted spans, sum d1_w + d2_w - 1 over the distinct blocks,
        # are those the blocks span: each canonical config of the 4^9 grid
        # passes at its own sum and is refused one below, and the sum never
        # passes span_rank or n^N, so the grid is admitted at every
        # --max-total-dim
        sums = {}
        for cfg in verify.certification_grid(4**9):
            c, _ = canonicalize(cfg)
            geometry = oracle._jordan_geometry(c.n, c.n_a, c.n_b, c.n_c, None)
            spans = sum(len(b.identity) for b in geometry.blocks)
            assert spans <= geometry.span_rank <= c.n ** c.total_copies
            assert oracle._jordan_geometry(c.n, c.n_a, c.n_b, c.n_c, spans).blocks
            with pytest.raises(OracleError, match=f"exceeds cap {spans - 1}$"):
                oracle._jordan_geometry(c.n, c.n_a, c.n_b, c.n_c, spans - 1)
            sums[cfg] = spans
        assert max(sums[cfg] for cfg in DEFAULT_GRID) == 44
        assert sums[ProblemConfig(4, 3, 3, 3)] == 266
        for n in (9, 10**6):  # every n >= N has the same 30 blocks
            blocks = oracle._jordan_geometry(n, 3, 3, 3, None).blocks
            assert (len(blocks), sum(len(b.identity) for b in blocks)) == (30, 1116)
