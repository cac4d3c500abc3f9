import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.optimize import brentq

from tlstrack.dynamics import DecayRates, PopulationTrace, closed_form_trace
from tlstrack.errors import InvalidParameterError, MitigationUnstableError, TlstrackError
from tlstrack.readout import (
    ConfusionMatrix,
    IqBlobModel,
    equilateral_blobs,
    mitigate_trace,
    simulate_confusion_matrix,
    _classify_frame,
)
from tlstrack.synth import bundled_scenario

ISO = np.repeat(np.eye(2)[None, :, :], 3, axis=0)


def iso_blobs(means):
    return IqBlobModel(np.asarray(means, dtype=float), ISO.copy())


CORRELATED = IqBlobModel(
    np.array([[0.0, 1.6], [-1.4, -0.8], [1.4, -0.8]]),
    np.array([
        [[1.0, 0.6], [0.6, 0.8]],
        [[0.5, -0.3], [-0.3, 1.4]],
        [[2.0, 0.9], [0.9, 0.7]],
    ]),
)


def einsum_log_likelihoods(blobs, points):
    """Log-likelihoods the way the classifier first computed them: a fresh
    inverse and determinant per blob and a three-index einsum."""
    out = np.empty((points.shape[0], 3))
    for k in range(3):
        cov = blobs.covariances[k]
        d = points - blobs.means[k]
        quad = np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov), d)
        out[:, k] = -0.5 * quad - 0.5 * math.log(float(np.linalg.det(cov)))
    return out


def shot_points(blobs, state, z):
    """The IQ points of state ``state``'s shots drawn from the normals ``z``:
    point = mean + L·z one scalar at a time, with L the blob's lower
    Cholesky factor."""
    (l00, _), (l10, l11) = np.linalg.cholesky(blobs.covariances[state]).tolist()
    mx, my = blobs.means[state].tolist()
    z = np.asarray(z, dtype=float).reshape(-1, 2)
    points = [[mx + l00 * a, my + (l10 * a + l11 * b)] for a, b in z.tolist()]
    return np.array(points).reshape(-1, 2)


def frame_labels(blobs, state, z):
    """``_classify_frame``'s labels of state ``state``'s shots from the normals ``z``."""
    z = np.asarray(z, dtype=float).reshape(-1, 2)
    return _classify_frame(blobs, state, z, np.empty(z.shape[0], dtype=np.intp))


def reference_labels(blobs, state, z):
    """The argmax of the einsum log-likelihoods of the same shots' points."""
    return np.argmax(einsum_log_likelihoods(blobs, shot_points(blobs, state, z)), axis=1)


def gauss_elim_solve(a, b):
    """Independent 3x3 solver: Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = 3
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row] -= f * a[col]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


class TestClassify:
    def test_point_at_mean(self):
        blobs = iso_blobs([[0, 0], [10, 0], [0, 10]])
        # zero normals put a shot at its blob's mean
        for state in range(3):
            assert frame_labels(blobs, state, [0.0, 0.0]).tolist() == [state]

    def test_tie_breaks_to_lower_index(self):
        # (1, 0) is as likely under blob 0 as under blob 1, from either frame
        blobs = iso_blobs([[0, 0], [2, 0], [10, 10]])
        assert frame_labels(blobs, 0, [1.0, 0.0]).tolist() == [0]
        assert frame_labels(blobs, 1, [-1.0, 0.0]).tolist() == [0]
        # (1, 0) and (1, 5) tie blobs 1 and 2 of the relabeled set
        relabeled = iso_blobs([[10, 10], [2, 0], [0, 0]])
        z = [[1.0, 0.0], [1.0, 5.0]]
        assert np.array_equal(frame_labels(relabeled, 2, z), [1, 1])
        assert np.array_equal(reference_labels(relabeled, 2, z), [1, 1])

    def test_likelihood_comparison(self):
        # nearest mean wins for equal isotropic covariances
        blobs = iso_blobs([[0, 0], [10, 0], [0, 10]])
        point = shot_points(blobs, 1, [-4.0, 1.0])[0]
        d2 = [np.sum((point - m) ** 2) for m in blobs.means]
        assert frame_labels(blobs, 1, [-4.0, 1.0]).tolist() == [int(np.argmin(d2))] == [1]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        blobs = iso_blobs([[0, 0], [4, 0], [0, 4]])
        perm = [2, 0, 1]
        permuted = iso_blobs(blobs.means[perm])
        lookup = {orig: new for new, orig in enumerate(perm)}
        for state in range(3):
            # blob ``state`` is blob lookup[state] of the permuted set
            z = rng.standard_normal((200, 2))
            base = frame_labels(blobs, state, z)
            relabeled = frame_labels(permuted, lookup[state], z)
            assert np.array_equal(relabeled, np.array([lookup[s] for s in base]))

    def test_anisotropic_covariance(self):
        covs = ISO.copy()
        covs[0] = [[9.0, 0.0], [0.0, 0.25]]
        blobs = IqBlobModel(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), covs)
        # x=4 is 1.33 sigma from blob 0 along its wide axis, 1 sigma from blob 1:
        # a state-1 shot there, and a state-0 shot there (L_0 = diag(3, 0.5))
        assert frame_labels(blobs, 1, [-1.0, 0.0]).tolist() == [1]
        assert frame_labels(blobs, 0, [4.0 / 3.0, 0.0]).tolist() == [1]
        assert reference_labels(blobs, 0, [4.0 / 3.0, 0.0]).tolist() == [1]

    def test_closed_form_matches_einsum_arithmetic(self):
        z = np.random.default_rng(17).standard_normal((100_000, 2))
        found = set()
        for state in range(3):
            expected = reference_labels(CORRELATED, state, z)
            assert np.array_equal(frame_labels(CORRELATED, state, z), expected)
            found.update(np.unique(expected).tolist())
        assert found == {0, 1, 2}

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_identical_blobs_take_lower_label(self, pair):
        means = np.array([[0.0, 1.6], [-1.4, -0.8], [1.4, -0.8]])
        covs = CORRELATED.covariances.copy()
        means[pair[1]], covs[pair[1]] = means[pair[0]], covs[pair[0]]
        blobs = IqBlobModel(means, covs)
        z = np.random.default_rng(5).standard_normal((5000, 2))
        labels = np.concatenate([frame_labels(blobs, state, z) for state in range(3)])
        assert pair[1] not in labels and pair[0] in labels
        for state in range(3):
            assert np.array_equal(frame_labels(blobs, state, z), reference_labels(blobs, state, z))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_argmax_of_log_likelihoods(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 2, 2))
        covs = a @ a.transpose(0, 2, 1) + 0.1 * ISO
        blobs = IqBlobModel(rng.normal(scale=2.0, size=(3, 2)), covs)
        for state in range(3):
            z = rng.standard_normal((20_000, 2))
            expected = reference_labels(blobs, state, z)
            got = frame_labels(blobs, state, z)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            # one shot at a time gives the labels of the whole batch
            assert [int(frame_labels(blobs, state, row)[0]) for row in z[:50]] == \
                expected[:50].tolist()

    def test_model_arrays_read_only(self):
        means = np.array(CORRELATED.means)
        blobs = IqBlobModel(means, CORRELATED.covariances)
        with pytest.raises(ValueError):
            blobs.covariances[0, 0, 0] = 4.0
        with pytest.raises(ValueError):
            blobs.means[1] = 0.0
        means[0] = 9.0  # the caller's array is copied, not frozen or shared
        assert blobs.means[0, 0] == 0.0
        copy = pickle.loads(pickle.dumps(blobs))
        assert not copy.covariances.flags.writeable
        assert not copy._discriminants.flags.writeable
        z = np.random.default_rng(3).standard_normal((100, 2))
        for state in range(3):
            assert np.array_equal(frame_labels(copy, state, z), frame_labels(blobs, state, z))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_numerically_singular_covariance_rejected(self, scale):
        # positive eigenvalues, but the determinant under- or overflows
        covs = ISO.copy()
        covs[2] *= scale
        with pytest.raises(InvalidParameterError, match="blob 2 is numerically singular"):
            IqBlobModel(np.zeros((3, 2)), covs)

    def test_invalid_covariance(self):
        with pytest.raises(InvalidParameterError):
            IqBlobModel(np.zeros((3, 2)), np.zeros((3, 2, 2)))
        bad = ISO.copy()
        bad[1] = [[1.0, 2.0], [0.5, 1.0]]
        with pytest.raises(InvalidParameterError):
            IqBlobModel(np.zeros((3, 2)), bad)


class TestNormalsFrameProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        blob_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        state=st.integers(0, 2),
        duplicate=st.sampled_from([None, (0, 1), (0, 2), (1, 2)]),
        n=st.sampled_from([1, 2, 7, 300, 20_000]),
    )
    def test_matches_classify_points_of_sampled_points(self, blob_seed, seed, state, duplicate, n):
        # the frame's labels are those of the shots' points, classified by the
        # einsum reference; random SPD blobs, with blob j a copy of blob i < j
        # for a duplicate (i, j); 20,000 rows cross a block boundary
        rng = np.random.default_rng(blob_seed)
        a = rng.normal(size=(3, 2, 2))
        means, covs = rng.normal(scale=2.0, size=(3, 2)), a @ a.transpose(0, 2, 1) + 0.05 * ISO
        if duplicate is not None:
            low, high = duplicate
            means[high], covs[high] = means[low], covs[low]
        blobs = IqBlobModel(means, covs)
        z = np.random.default_rng(seed).standard_normal((n, 2))
        got = frame_labels(blobs, state, z)
        assert np.array_equal(got, reference_labels(blobs, state, z))
        if duplicate is not None:
            assert duplicate[1] not in got


def assert_frames_match_reference(blobs, seed, n):
    """In every frame k, ``_classify_frame`` of n standard-normal rows gives
    the argmax of the einsum log-likelihoods of blob k's shots they form."""
    z = np.random.default_rng(seed).standard_normal((n, 2))
    for state in range(3):
        assert np.array_equal(frame_labels(blobs, state, z), reference_labels(blobs, state, z))


# means on an axis, symmetric about one or of equal norm, so that under an
# isotropic covariance some linear coefficients or constants are exactly 0
# (all of them -0.0 as the model computes them)
ZERO_COEFFICIENT_MEANS = [
    [[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]],
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [0.0, -1.0], [2.0, 0.0]],
    [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]],
]


class TestLinearPath:
    @settings(max_examples=60, deadline=None)
    @given(
        blob_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        hand=st.sampled_from([None, *range(len(ZERO_COEFFICIENT_MEANS))]),
        n=st.sampled_from([1, 7, 300, 20_000]),
    )
    def test_equal_covariances_match_reference(self, blob_seed, seed, hand, n):
        # one shared covariance: random SPD with random means, or isotropic
        # with hand-picked means; 20,000 rows cross a block boundary
        rng = np.random.default_rng(blob_seed)
        if hand is None:
            a = rng.normal(size=(2, 2))
            means, cov = rng.normal(scale=2.0, size=(3, 2)), a @ a.T + 0.05 * np.eye(2)
        else:
            means, cov = np.array(ZERO_COEFFICIENT_MEANS[hand]), rng.uniform(0.3, 2.0) * np.eye(2)
        blobs = IqBlobModel(means, np.repeat(cov[None], 3, axis=0))
        assert not blobs._discriminants[..., :3].any()
        if hand is not None:
            assert (blobs._discriminants[..., 3:] == 0.0).any()
        assert_frames_match_reference(blobs, seed, n)

    @pytest.mark.parametrize("name", ["device_A", "device_B"])
    def test_bundled_blobs_are_linear_in_every_frame(self, name):
        blobs = bundled_scenario(name).blobs
        assert blobs._discriminants.shape == (3, 2, 6)
        assert not blobs._discriminants[..., :3].any()

    @pytest.mark.parametrize("radius,sigma", [(0.4, 1.0), (1.8148436104016574, 1.0), (3.0, 0.2)])
    def test_equilateral_blobs_are_linear_in_every_frame(self, radius, sigma):
        assert not equilateral_blobs(radius, sigma)._discriminants[..., :3].any()

    def test_unequal_covariances_stay_quadratic(self):
        # every discriminant of CORRELATED has a quadratic term in every frame
        assert CORRELATED._discriminants[..., :3].any(axis=-1).all()
        assert_frames_match_reference(CORRELATED, 11, 20_000)


class TestConfusionSimulation:
    def test_far_separated_blobs_identity(self):
        blobs = iso_blobs([[0, 0], [1000, 0], [0, 1000]])
        cm = simulate_confusion_matrix(blobs, 2000, seed=1)
        assert np.array_equal(cm.m, np.eye(3))

    def test_identical_blobs_tie_break(self):
        blobs = iso_blobs([[1, 1], [1, 1], [1, 1]])
        cm = simulate_confusion_matrix(blobs, 500, seed=2)
        assert np.array_equal(cm.m, np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=float))

    def test_deterministic_for_seed(self):
        blobs = equilateral_blobs(1.8)
        a = simulate_confusion_matrix(blobs, 4000, seed=42)
        b = simulate_confusion_matrix(blobs, 4000, seed=42)
        assert np.array_equal(a.m, b.m)
        c = simulate_confusion_matrix(blobs, 4000, seed=43)
        assert not np.array_equal(a.m, c.m)

    @pytest.mark.parametrize("seed,shots", [(0, 1), (1, 7), (2, 503), (3, 2000)])
    def test_column_stochastic(self, seed, shots):
        cm = simulate_confusion_matrix(equilateral_blobs(1.5), shots, seed=seed)
        assert np.max(np.abs(cm.m.sum(axis=0) - 1.0)) < 1e-12
        assert 1.0 / 3.0 <= cm.fidelity <= 1.0

    def test_fidelity_examples(self):
        assert ConfusionMatrix(np.eye(3)).fidelity == 1.0
        assert ConfusionMatrix(np.full((3, 3), 1.0 / 3.0)).fidelity == \
            pytest.approx(1.0 / 3.0)
        m = np.array([
            [0.930, 0.060, 0.053],
            [0.040, 0.880, 0.060],
            [0.030, 0.060, 0.887],
        ])
        assert ConfusionMatrix(m).fidelity == pytest.approx(0.899, abs=1e-12)


def equilateral_fidelity(radius: float) -> float:
    """Correct-assignment probability of the equilateral blobs with unit
    sigma, by quadrature: the mass of blob 0, centred at (0, radius), in its
    maximum-likelihood wedge y > |x|/sqrt(3), twice the half with x > 0.  By
    symmetry every state has it, so it is the assignment fidelity."""
    def density(y, x):
        return math.exp(-0.5 * (x * x + (y - radius) ** 2)) / (2.0 * math.pi)

    far = radius + 12.0
    half, _ = dblquad(density, 0.0, far, lambda x: x / math.sqrt(3.0), lambda x: far,
                      epsabs=1e-11, epsrel=1e-11)
    return 2.0 * half


class TestCalibration:
    def test_quadrature_matches_simulation(self):
        radius = 1.8148436104016574
        p = equilateral_fidelity(radius)
        assert p == pytest.approx(0.899, abs=1e-6)
        cm = simulate_confusion_matrix(equilateral_blobs(radius), 40000, seed=9)
        assert cm.fidelity == pytest.approx(p, abs=5e-3)

    def test_bisection_inverts_quadrature(self):
        # device_A's bundled radius is the one whose fidelity is 0.899
        r = brentq(lambda r: equilateral_fidelity(r) - 0.899, 0.5, 6.0, xtol=1e-8)
        assert equilateral_fidelity(r) == pytest.approx(0.899, abs=1e-7)
        assert bundled_scenario("device_A").blobs.means[0, 1] == pytest.approx(r, abs=1e-7)


def mitigate_point(m, p, clip=True):
    """``mitigate_trace`` of the one-point trace of population vector ``p``."""
    return mitigate_trace(m, PopulationTrace([0.0], [p]), clip).populations[0]


class TestMitigation:
    def test_identity_unchanged(self):
        p = np.array([0.5, 0.3, 0.2])
        out = mitigate_point(ConfusionMatrix(np.eye(3)), p)
        assert np.array_equal(out, p)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = ConfusionMatrix(_random_stochastic(rng))
        p = rng.dirichlet(np.ones(3))
        out = mitigate_point(m, m.m @ p, clip=False)
        assert np.max(np.abs(out - p)) < 1e-10

    def test_raw_inverse_against_elimination_oracle(self):
        m = ConfusionMatrix(np.array([
            [0.93, 0.06, 0.05],
            [0.04, 0.88, 0.06],
            [0.03, 0.06, 0.89],
        ]))
        observed = np.array([0.4, 0.35, 0.25])
        out = mitigate_point(m, observed, clip=False)
        expected = gauss_elim_solve(m.m, observed)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_clipping_renormalizes(self):
        m = ConfusionMatrix(np.array([
            [0.9, 0.1, 0.0],
            [0.1, 0.8, 0.1],
            [0.0, 0.1, 0.9],
        ]))
        # observation outside the reachable simplex forces a negative component
        v = mitigate_point(m, [1.0, 0.0, 0.0])
        assert np.all(v >= 0.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        raw = mitigate_point(m, [1.0, 0.0, 0.0], clip=False)
        assert np.any(raw < 0.0)

    def test_near_singular_raises(self):
        m = np.array([
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.5],
            [0.0, 0.0, 0.5],
        ])
        m[0, 1] -= 1e-9
        m[1, 1] += 1e-9
        cm = ConfusionMatrix(m)
        with pytest.raises(MitigationUnstableError) as exc:
            mitigate_point(cm, [0.4, 0.4, 0.2])
        assert exc.value.condition_number >= 1e6
        trace = closed_form_trace(DecayRates(1 / 155.0, 1 / 64.0), np.geomspace(1, 600, 4))
        with pytest.raises(MitigationUnstableError):
            mitigate_trace(cm, trace)

    def test_mitigate_trace(self):
        m = ConfusionMatrix(_random_stochastic(np.random.default_rng(3)))
        trace = closed_form_trace(DecayRates(1 / 155.0, 1 / 64.0), np.geomspace(1, 600, 10))
        corrupted = trace.populations @ m.m.T
        noisy = type(trace)(trace.delays, corrupted)
        recovered = mitigate_trace(m, noisy, clip=False)
        assert np.max(np.abs(recovered.populations - trace.populations)) < 1e-10
        clipped = mitigate_trace(m, noisy)
        for i in range(len(noisy)):
            assert np.array_equal(clipped.populations[i], mitigate_point(m, corrupted[i]))

    def test_mitigate_trace_rejects_invalid_points(self):
        delays = np.array([1.0, 2.0, 3.0])
        good = np.array([[0.9, 0.1, 0.0], [0.8, 0.15, 0.05], [0.7, 0.2, 0.1]])
        identity = ConfusionMatrix(np.eye(3))
        for bad_row in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
            populations = good.copy()
            populations[1] = bad_row
            with pytest.raises(InvalidParameterError, match="finite"):
                mitigate_trace(identity, PopulationTrace(delays, populations))
        populations = good.copy()
        populations[2] = [-0.5, 0.0, 0.0]
        with pytest.raises(InvalidParameterError, match="clipped to zero"):
            mitigate_trace(identity, PopulationTrace(delays, populations))
        m = ConfusionMatrix(_random_stochastic(np.random.default_rng(3)))
        populations = good.copy()
        populations[0] = [1.7e308, -1.7e308, 1.7e308]
        with pytest.raises(InvalidParameterError, match="finite"):
            mitigate_trace(m, PopulationTrace(delays, populations), clip=False)


def per_row_mitigation(m, populations, clip):
    """Independent reference: one 3x3 solve per row, clipped one at a time."""
    out = np.empty_like(populations)
    for i, row in enumerate(populations):
        p = np.linalg.solve(m.m, row)
        if clip and np.any(p < 0.0):
            p = np.clip(p, 0.0, None)
            p = p / p.sum()
        out[i] = p
    return out


class TestStackedMitigation:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("clip", [True, False])
    def test_bit_identical_to_per_row(self, seed, clip):
        rng = np.random.default_rng(seed)
        m = ConfusionMatrix(_random_stochastic(rng))
        # noisy simplex points: many rows leave the simplex and clip
        populations = rng.dirichlet(np.ones(3), size=30) + rng.normal(scale=0.03, size=(30, 3))
        trace = PopulationTrace(np.arange(1.0, 31.0), populations)
        got = mitigate_trace(m, trace, clip=clip).populations
        assert np.array_equal(got, per_row_mitigation(m, populations, clip))
        raw = per_row_mitigation(m, populations, False)
        assert np.any(raw < 0.0) and np.any(np.all(raw >= 0.0, axis=1))
        # a row's bits do not depend on the rows mitigated beside it
        for i in range(len(trace)):
            assert np.array_equal(got[i], mitigate_point(m, populations[i], clip))

    def test_single_point_trace(self):
        m = ConfusionMatrix(_random_stochastic(np.random.default_rng(4)))
        populations = np.array([[1.0, 0.0, 0.0]])
        got = mitigate_trace(m, PopulationTrace(np.array([5.0]), populations)).populations
        assert np.array_equal(got, per_row_mitigation(m, populations, True))

    def test_zero_sum_row_among_clipped_rows(self):
        delays = np.array([1.0, 2.0, 3.0, 4.0])
        populations = np.array([
            [1.2, -0.1, -0.1],   # clips to a valid vector
            [0.5, 0.3, 0.2],
            [-0.4, -0.3, -0.3],  # clips to zero
            [0.9, 0.2, -0.1],
        ])
        identity = ConfusionMatrix(np.eye(3))
        with pytest.raises(InvalidParameterError, match="clipped to zero"):
            mitigate_trace(identity, PopulationTrace(delays, populations))
        out = mitigate_trace(identity, PopulationTrace(delays, populations), clip=False)
        assert np.array_equal(out.populations, populations)


def _random_stochastic(rng):
    # diagonally dominant, comfortably invertible
    m = 0.7 * np.eye(3) + 0.3 * rng.dirichlet(np.ones(3), size=3).T
    return m / m.sum(axis=0)


class TestConfusionSerialization:
    def test_json_round_trip(self, tmp_path):
        cm = simulate_confusion_matrix(equilateral_blobs(1.8), 2000, seed=5)
        path = tmp_path / "confusion.json"
        cm.to_json(path)
        back = ConfusionMatrix.from_json(path)
        assert np.array_equal(back.m, cm.m)
        doc = cm.to_json_dict()
        assert doc["assignment_fidelity"] == pytest.approx(cm.fidelity)
        assert doc["condition_number"] == pytest.approx(cm.condition_number)

    @pytest.mark.parametrize("content, message", [
        ('{"schema_version": 1,', "not valid JSON: "),
        ("[]", "expected a JSON object"),
        ('{"schema_version": 1}', "confusion document has no matrix_row_major"),
    ])
    def test_faulty_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "confusion.json"
        path.write_text(content)
        with pytest.raises(TlstrackError) as exc:
            ConfusionMatrix.from_json(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ConfusionMatrix(np.eye(3) * 1.5)
        with pytest.raises(InvalidParameterError):
            ConfusionMatrix(np.array([[0.9, 0, 0], [0.2, 1, 0], [0, 0, 1]]))

    def test_condition_number_cached_on_a_read_only_copy(self, monkeypatch):
        source = _random_stochastic(np.random.default_rng(9))
        cm = ConfusionMatrix(source)
        assert cm.condition_number == float(np.linalg.cond(source))
        source[0, 0] = 0.0    # the caller's array is not the stored one
        with pytest.raises(ValueError):
            cm.m[0, 0] = 0.0
        copy = pickle.loads(pickle.dumps(cm))
        assert np.array_equal(copy.m, cm.m) and not copy.m.flags.writeable
        calls = []
        monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append(a))
        mitigate_trace(cm, closed_form_trace(DecayRates(0.05, 0.1), [0.0, 1.0, 2.0]))
        assert calls == []
