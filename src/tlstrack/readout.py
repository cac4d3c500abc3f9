"""Three-state IQ readout: Gaussian discrimination, confusion matrices,
and inversion-based error mitigation.

Classification is equal-prior Gaussian maximum likelihood over the three
blob models, with ties broken toward the lower state index.  Mitigation
multiplies the inverse confusion matrix into observed population vectors,
clipping small negative components by default.
"""

from __future__ import annotations

import csv
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

#: Points per :func:`classify_points` block: the block's buffers (under
#: 1 MB) stay in a core's L2 cache.
_CLASSIFY_BLOCK = 16384


@dataclass(frozen=True)
class IqBlobModel:
    """Gaussian readout blobs for states |0>, |1>, |2> in the IQ plane.

    ``means`` has shape (3, 2); ``covariances`` has shape (3, 2, 2) and every
    covariance must be symmetric positive definite.  Both are stored as
    read-only copies, so the per-blob precision matrices, half
    log-determinants and Cholesky factors computed here stay valid.
    """

    means: np.ndarray
    covariances: np.ndarray
    _precisions: np.ndarray = field(init=False, repr=False, compare=False)
    _half_log_dets: np.ndarray = field(init=False, repr=False, compare=False)
    _cholesky: np.ndarray = field(init=False, repr=False, compare=False)

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
        cached = {
            "means": means,
            "covariances": covs,
            "_precisions": np.linalg.inv(covs),
            "_half_log_dets": 0.5 * np.log(det),
            "_cholesky": np.linalg.cholesky(covs),
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


def _log_likelihoods(blobs: IqBlobModel, points: np.ndarray, work=None) -> list[np.ndarray]:
    """Each blob's log-likelihood of every point, one array per blob.

    ``work``, if given, is a (6, m) buffer with m >= len(points): the
    results go into its first three rows and the other three are scratch.
    Every step writes into the buffer, so nothing is allocated.
    """
    n = points.shape[0]
    if work is None:
        work = np.empty((6, n))
    out, (dx, dy, term) = work[:3, :n], work[3:, :n]
    x, y = points[:, 0], points[:, 1]
    for k in range(3):
        (pxx, pxy), (pyx, pyy) = blobs._precisions[k]
        np.subtract(x, blobs.means[k, 0], out=dx)
        np.subtract(y, blobs.means[k, 1], out=dy)
        # quad = pxx*dx*dx + (pxy+pyx)*dx*dy + pyy*dy*dy, evaluated left to right
        quad = out[k]
        np.multiply(dx, pxx, out=quad)
        quad *= dx
        np.multiply(dx, pxy + pyx, out=term)
        term *= dy
        quad += term
        np.multiply(dy, pyy, out=term)
        term *= dy
        quad += term
        # log-likelihood = -0.5 * quad - half log-determinant
        quad *= -0.5
        quad -= blobs._half_log_dets[k]
    return list(out)


def classify(blobs: IqBlobModel, point: Sequence[float]) -> int:
    """Maximum-likelihood state assignment for one IQ point (equal priors).

    Ties break toward the lower state index.
    """
    return int(classify_points(blobs, np.asarray(point, dtype=float).reshape(1, 2))[0])


def classify_points(blobs: IqBlobModel, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`classify` over an (n, 2) array of points.

    Works through the points in blocks of ``_CLASSIFY_BLOCK`` with one set
    of reused buffers, so the temporaries stay in cache.  The points are
    read in place, fastest from planar storage (``points[:, 0]``
    contiguous), which is how :func:`sample_blob` returns them.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    labels = np.empty(n, dtype=np.intp)
    size = min(n, _CLASSIFY_BLOCK)
    work = np.empty((6, size))
    # byte views of the two comparisons, so the labels come from integer maxima
    flags = np.empty((2, size), dtype=np.uint8)
    for start in range(0, n, _CLASSIFY_BLOCK):
        block = points[start:start + _CLASSIFY_BLOCK]
        m = block.shape[0]
        l0, l1, l2 = _log_likelihoods(blobs, block, work)
        # the log-likelihoods are in work[:3], so work[3] is free scratch
        one, two, top = flags[0, :m], flags[1, :m], work[3, :m]
        # label 2 if l2 beats max(l0, l1), else 1 if l1 beats l0, else 0: the
        # comparisons are strict, so a tie goes to the lower state, as with argmax
        np.greater(l1, l0, out=one.view(bool))
        np.maximum(l0, l1, out=top)
        np.greater(l2, top, out=two.view(bool))
        two <<= 1
        np.maximum(one, two, out=labels[start:start + m])
    return labels


def _blob_points(blobs: IqBlobModel, state: int, z: np.ndarray, out: np.ndarray) -> None:
    """Blob ``state``'s IQ points for the standard normals ``z`` (m, 2),
    written into the planar ``out`` (2, m): point = mean + L·z, with L the
    blob's lower Cholesky factor.

    The arithmetic is elementwise, so a point's bits do not depend on how
    many rows are transformed together (a BLAS ``z @ L.T`` gives different
    last bits for different m).  ``z`` is used as scratch.
    """
    (l00, _), (l10, l11) = blobs._cholesky[state]
    x, y = out
    z0, z1 = z[:, 0], z[:, 1]
    np.multiply(z0, l00, out=x)
    x += blobs.means[state, 0]
    np.multiply(z0, l10, out=y)
    z1 *= l11
    y += z1
    y += blobs.means[state, 1]


def sample_blob(
    blobs: IqBlobModel, state: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` IQ points from blob ``state`` using the supplied stream.

    The (n, 2) result is a view of planar (2, n) storage.
    """
    out = np.empty((2, n))
    _blob_points(blobs, state, rng.standard_normal((n, 2)), out)
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
        except (TypeError, ValueError):
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

    Prepares each basis state ``shots_per_state`` times, pushes every shot
    through the ML classifier, and column-normalizes the assignment counts.
    Deterministic for a fixed seed.
    """
    if shots_per_state < 1:
        raise InvalidParameterError("shots_per_state must be >= 1")
    rng = np.random.default_rng(seed)
    m = np.zeros((3, 3))
    for k in range(3):
        assigned = classify_points(blobs, sample_blob(blobs, k, shots_per_state, rng))
        counts = np.bincount(assigned, minlength=3)
        m[:, k] = counts / float(shots_per_state)
    return ConfusionMatrix(m)


def assignment_fidelity(m: ConfusionMatrix) -> float:
    """Mean of the diagonal assignment probabilities."""
    return m.fidelity


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


@dataclass(frozen=True)
class ShotRecord:
    """One classified readout shot at a given delay."""

    delay_us: float
    assigned_state: int
    repetition: int

    def __post_init__(self):
        if self.assigned_state not in (0, 1, 2):
            raise InvalidParameterError(f"assigned_state must be 0, 1 or 2, got {self.assigned_state!r}")


def shot_records_to_csv(records: Sequence[ShotRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay_us", "state", "rep"])
        for r in records:
            w.writerow([repr(float(r.delay_us)), r.assigned_state, r.repetition])


def shot_records_from_csv(path) -> list[ShotRecord]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(ShotRecord(float(row["delay_us"]), int(row["state"]), int(row["rep"])))
    return out
