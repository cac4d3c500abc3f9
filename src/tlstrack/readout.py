"""Three-state IQ readout: Gaussian discrimination, confusion matrices,
and inversion-based error mitigation.

Classification is equal-prior Gaussian maximum likelihood over the three
blob models, with ties broken toward the lower state index.  It compares
the two log-likelihood differences l_1 - l_0 and l_2 - l_0, each a
quadratic in the input with coefficients cached on the blob model.  The
input is either an IQ point or, for a simulated shot of state k, the
standard normals z that give its point mean_k + L_k·z, so simulated shots
are classified without forming their points.  Mitigation multiplies the
inverse confusion matrix into observed population vectors, clipping small
negative components by default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import PopulationState, PopulationTrace
from .errors import InvalidParameterError, MitigationUnstableError

CONFUSION_SCHEMA_VERSION = 1

#: Condition-number ceiling above which mitigation refuses to invert.
MITIGATION_CONDITION_LIMIT = 1e6

#: Rows per :func:`_classify_frame` block: the block's buffers (under
#: 1 MB) stay in a core's L2 cache.
_CLASSIFY_BLOCK = 16384


@dataclass(frozen=True)
class IqBlobModel:
    """Gaussian readout blobs for states |0>, |1>, |2> in the IQ plane.

    ``means`` has shape (3, 2); ``covariances`` has shape (3, 2, 2) and every
    covariance must be symmetric positive definite.  Both are stored as
    read-only copies, so the Cholesky factors and discriminant coefficients
    computed here stay valid.

    ``_discriminants[f, j - 1]`` holds (a00, a01 + a10, a11, b0, b1, c) of
    d_j = l_j - l_0 = z'Az + b'z + c, for j = 1, 2, in 4 frames.  Frame
    k + 1 takes the normals z of a state-k shot, whose point is
    mean_k + L_k z; frame 0 takes the point itself (mean 0, L = I).  With
    P_i the precision, h_i the half log-determinant and
    delta_i = mean_k - mean_i: A = -L'(P_j - P_0)L/2,
    b = -L'(P_j delta_j - P_0 delta_0) and
    c = -(delta_j'P_j delta_j - delta_0'P_0 delta_0)/2 - (h_j - h_0).
    A blob identical to blob i < j gives the same d_j as d_i bit for bit
    (d_0 = 0), so the higher label is never assigned.
    """

    means: np.ndarray
    covariances: np.ndarray
    _cholesky: np.ndarray = field(init=False, repr=False, compare=False)
    _discriminants: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covariances, dtype=float)
        if means.shape != (3, 2):
            raise InvalidParameterError(f"means must have shape (3, 2), got {means.shape}")
        if covs.shape != (3, 2, 2):
            raise InvalidParameterError(
                f"covariances must have shape (3, 2, 2), got {covs.shape}"
            )
        with np.errstate(all="ignore"):
            det = np.linalg.det(covs)
        for k in range(3):
            c = covs[k]
            if not np.allclose(c, c.T, rtol=0.0, atol=1e-12):
                raise InvalidParameterError(f"covariance of blob {k} is not symmetric")
            if np.any(np.linalg.eigvalsh(c) <= 0.0):
                raise InvalidParameterError(f"covariance of blob {k} is not positive definite")
            if not (math.isfinite(det[k]) and det[k] > 0.0):
                raise InvalidParameterError(
                    f"covariance of blob {k} is numerically singular (determinant {det[k]:.3g})"
                )
        precisions, cholesky = np.linalg.inv(covs), np.linalg.cholesky(covs)
        factor = np.concatenate([np.eye(2)[None], cholesky])
        delta = np.concatenate([np.zeros((1, 2)), means])[:, None] - means     # (frame, i, 2)
        p_delta = np.einsum("iab,fib->fia", precisions, delta)
        quad = np.einsum("fia,fia->fi", delta, p_delta)
        a = -0.5 * np.einsum("fai,jab,fbk->fjik", factor, precisions[1:] - precisions[0], factor)
        b = -np.einsum("fai,fja->fji", factor, p_delta[:, 1:] - p_delta[:, :1])
        half_log_det = 0.5 * np.log(det)
        c = -0.5 * (quad[:, 1:] - quad[:, :1]) - (half_log_det[1:] - half_log_det[0])
        cached = {
            "means": means,
            "covariances": covs,
            "_cholesky": cholesky,
            "_discriminants": np.stack([a[..., 0, 0], a[..., 0, 1] + a[..., 1, 0], a[..., 1, 1],
                                        b[..., 0], b[..., 1], c], axis=-1),
        }
        for name, value in cached.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled copy is read-only too
        return type(self), (self.means, self.covariances)

    def to_json_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }


def equilateral_blobs(radius: float, sigma: float = 1.0) -> IqBlobModel:
    """Three isotropic blobs at the vertices of an equilateral triangle.

    ``radius`` is the distance of each mean from the origin; ``sigma`` the
    per-axis standard deviation.
    """
    if radius <= 0.0 or sigma <= 0.0:
        raise InvalidParameterError("radius and sigma must be positive")
    angles = np.deg2rad([90.0, 210.0, 330.0])
    means = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    covs = np.repeat((sigma**2 * np.eye(2))[None, :, :], 3, axis=0)
    return IqBlobModel(means, covs)


def equilateral_assignment_probability(radius: float, sigma: float = 1.0) -> float:
    """Exact per-state correct-assignment probability for equilateral blobs.

    Integrates one Gaussian over its 120-degree maximum-likelihood wedge in
    polar coordinates; by symmetry this equals the three-state assignment
    fidelity of the geometry.
    """
    # imported here so that importing the CLI does not load scipy
    from scipy.integrate import dblquad

    def integrand(rho, theta):
        return (
            rho
            / (2.0 * math.pi * sigma**2)
            * math.exp(-(rho**2 - 2.0 * rho * radius * math.sin(theta) + radius**2)
                       / (2.0 * sigma**2))
        )

    val, _ = dblquad(
        integrand,
        math.pi / 6.0,
        5.0 * math.pi / 6.0,
        lambda _th: 0.0,
        lambda _th: radius + 12.0 * sigma,
        epsabs=1e-11,
        epsrel=1e-11,
    )
    return val


def calibrate_equilateral_radius(
    target_fidelity: float, sigma: float = 1.0, xtol: float = 1e-8
) -> float:
    """Blob-triangle radius whose exact assignment fidelity hits the target."""
    if not 1.0 / 3.0 < target_fidelity < 1.0:
        raise InvalidParameterError("target fidelity must lie in (1/3, 1)")
    from scipy.optimize import brentq

    return float(
        brentq(
            lambda r: equilateral_assignment_probability(r, sigma) - target_fidelity,
            1e-3 * sigma,
            12.0 * sigma,
            xtol=xtol,
        )
    )


def classify(blobs: IqBlobModel, point: Sequence[float]) -> int:
    """Maximum-likelihood state assignment for one IQ point (equal priors).

    Ties break toward the lower state index.
    """
    return int(classify_points(blobs, np.asarray(point, dtype=float).reshape(1, 2))[0])


def classify_points(blobs: IqBlobModel, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`classify` over an (n, 2) array of points."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return _classify_frame(blobs, 0, points, np.empty(points.shape[0], dtype=np.intp))


def _classify_frame(blobs: IqBlobModel, frame: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Maximum-likelihood labels of the rows of ``z`` (m, 2), written into
    ``out`` (m,) and returned: IQ points for ``frame`` 0, the standard
    normals of state k's shots for ``frame`` k + 1.

    Works through the rows in blocks of ``_CLASSIFY_BLOCK`` with one set of
    reused buffers, so the temporaries stay in cache.  Each row's label
    depends only on that row, never on the block it falls in.
    """
    n = z.shape[0]
    size = min(n, _CLASSIFY_BLOCK)
    work = np.empty((3, size))
    # byte views of the two comparisons, so the labels come from integer maxima
    flags = np.empty((2, size), dtype=np.uint8)
    coef = blobs._discriminants[frame].tolist()
    for start in range(0, n, _CLASSIFY_BLOCK):
        block = z[start:start + _CLASSIFY_BLOCK]
        z0, z1 = block[:, 0], block[:, 1]
        m = block.shape[0]
        d1, d2, t = work[:, :m]
        for d, (a00, a01, a11, b0, b1, c) in zip((d1, d2), coef):
            # d = ((a00 z0 + a01 z1 + b0) z0) + ((a11 z1 + b1) z1) + c
            np.multiply(z0, a00, out=d)
            np.multiply(z1, a01, out=t)
            d += t
            d += b0
            d *= z0
            np.multiply(z1, a11, out=t)
            t += b1
            t *= z1
            d += t
            d += c
        one, two = flags[0, :m], flags[1, :m]
        # label 2 if d2 beats max(0, d1), else 1 if d1 beats 0, else 0: the
        # comparisons are strict, so a tie goes to the lower state, as with argmax
        np.greater(d1, 0.0, out=one.view(bool))
        np.maximum(d1, 0.0, out=t)
        np.greater(d2, t, out=two.view(bool))
        two <<= 1
        np.maximum(one, two, out=out[start:start + m])
    return out


def sample_blob(
    blobs: IqBlobModel, state: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` IQ points from blob ``state`` using the supplied stream:
    point = mean + L·z, with L the blob's lower Cholesky factor.

    The (n, 2) result is a view of planar (2, n) storage.  The arithmetic is
    elementwise, so a point's bits do not depend on ``n`` (a BLAS
    ``z @ L.T`` gives different last bits for different n).
    """
    (l00, _), (l10, l11) = blobs._cholesky[state]
    z = rng.standard_normal((n, 2))
    z0, z1 = z[:, 0], z[:, 1]
    out = np.empty((2, n))
    x, y = out
    np.multiply(z0, l00, out=x)
    x += blobs.means[state, 0]
    np.multiply(z0, l10, out=y)
    z1 *= l11
    y += z1
    y += blobs.means[state, 1]
    return out.T


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic assignment matrix m[j, k] = P(assign j | prepared k).

    ``m`` is stored as a read-only copy, so the condition number computed
    here stays valid.
    """

    m: np.ndarray
    _condition_number: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError(f"confusion matrix must be 3x3, got {m.shape}")
        if not np.all((m >= 0.0) & (m <= 1.0)):  # NaN fails both tests
            raise InvalidParameterError("confusion matrix entries must lie in [0, 1]")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12:
            raise InvalidParameterError("confusion matrix columns must sum to 1")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_condition_number", float(np.linalg.cond(m)))

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled copy is read-only too
        return type(self), (self.m,)

    @property
    def fidelity(self) -> float:
        """Mean of the diagonal assignment probabilities."""
        return float(np.mean(np.diag(self.m)))

    @property
    def condition_number(self) -> float:
        return self._condition_number

    def to_json_dict(self) -> dict:
        return {
            "schema_version": CONFUSION_SCHEMA_VERSION,
            "matrix_row_major": [float(v) for v in self.m.reshape(-1)],
            "assignment_fidelity": self.fidelity,
            "condition_number": self.condition_number,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConfusionMatrix":
        if doc.get("schema_version") != CONFUSION_SCHEMA_VERSION:
            raise InvalidParameterError(
                f"unsupported confusion schema_version {doc.get('schema_version')!r}"
            )
        if "matrix_row_major" not in doc:
            raise InvalidParameterError("confusion document has no matrix_row_major")
        try:
            m = np.array(doc["matrix_row_major"], dtype=float).reshape(3, 3)
        except (TypeError, ValueError, OverflowError):   # or an int beyond the float range
            raise InvalidParameterError("matrix_row_major: expected 9 numbers") from None
        return cls(m)

    @classmethod
    def from_json(cls, path) -> "ConfusionMatrix":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


IDENTITY_CONFUSION = ConfusionMatrix(np.eye(3))


def simulate_confusion_matrix(
    blobs: IqBlobModel, shots_per_state: int, seed
) -> ConfusionMatrix:
    """Empirical confusion matrix from seeded blob sampling.

    Prepares each basis state ``shots_per_state`` times, classifies every
    shot from its standard normals, and column-normalizes the assignment
    counts.  Deterministic for a fixed seed.
    """
    if shots_per_state < 1:
        raise InvalidParameterError("shots_per_state must be >= 1")
    rng = np.random.default_rng(seed)
    m = np.zeros((3, 3))
    labels = np.empty(shots_per_state, dtype=np.intp)
    for k in range(3):
        # the normals of sample_blob's stream, classified without forming points
        _classify_frame(blobs, k + 1, rng.standard_normal((shots_per_state, 2)), labels)
        m[:, k] = np.bincount(labels, minlength=3) / float(shots_per_state)
    return ConfusionMatrix(m)


def _require_stable(m: ConfusionMatrix) -> None:
    cond = m.condition_number
    if not math.isfinite(cond) or cond >= MITIGATION_CONDITION_LIMIT:
        raise MitigationUnstableError(cond)


def _solve_and_clip(m: ConfusionMatrix, observed: np.ndarray, clip: bool) -> np.ndarray:
    """Mitigate every row of ``observed`` (n, 3) with one stacked solve.

    Each row gets its own 3x3 LAPACK solve, so its bits do not depend on
    n; one solve with all rows as right-hand sides would change them.
    """
    n = observed.shape[0]
    p = np.linalg.solve(np.broadcast_to(m.m, (n, 3, 3)), observed[..., None])[..., 0]
    if clip:
        negative = np.flatnonzero((p < 0.0).any(axis=1))
        if negative.size:
            rows = np.clip(p[negative], 0.0, None)
            sums = rows.sum(axis=1, keepdims=True)
            if np.any(sums == 0.0):
                raise InvalidParameterError("mitigated vector clipped to zero; input invalid")
            p[negative] = rows / sums
    return p


def _require_finite(populations: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(populations).all(axis=1))
    if bad.size:
        raise InvalidParameterError(
            f"{what} populations must be finite, got {populations[bad[0]]} at delay point {bad[0]}"
        )


def mitigate(
    m: ConfusionMatrix, observed: PopulationState, clip: bool = True
) -> PopulationState:
    """Recover ideal populations by applying the inverse confusion matrix.

    With ``clip`` (default) negative components of the raw inverse are set
    to zero and the vector renormalized to unit sum; with ``clip=False`` the
    raw inverse is returned even if slightly unphysical.
    """
    _require_stable(m)
    return PopulationState.from_vector(_solve_and_clip(m, observed.vector()[None], clip)[0])


def mitigate_trace(m: ConfusionMatrix, trace: PopulationTrace, clip: bool = True) -> PopulationTrace:
    """Apply :func:`mitigate` to every delay point of a trace, checking the
    matrix's condition number once."""
    _require_stable(m)
    _require_finite(trace.populations, "observed")
    corrected = _solve_and_clip(m, trace.populations, clip)
    _require_finite(corrected, "mitigated")
    return PopulationTrace(trace.delays.copy(), corrected, None if trace.shots is None else trace.shots.copy())
