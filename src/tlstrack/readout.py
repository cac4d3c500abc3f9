"""Three-state IQ readout: Gaussian discrimination, confusion matrices,
and inversion-based error mitigation.

Classification is equal-prior Gaussian maximum likelihood over the three
blob models, with ties broken toward the lower state index.  It compares
the two log-likelihood differences l_1 - l_0 and l_2 - l_0, each a
quadratic in the input with coefficients cached on the blob model; it is
linear for blobs that share one covariance, and then evaluated as such.  The
input of a simulated shot of state k is the standard normals z that give
its point mean_k + L_k·z, so shots are classified without forming their
points.  Mitigation multiplies the inverse confusion matrix into observed
population vectors, clipping small negative components by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (_REQUIRED, PopulationTrace, TraceStack, _field, _finite, _number,
                       _read_json_as, _write_json)
from .errors import InvalidParameterError, MitigationUnstableError, ScenarioSchemaError

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
    read-only copies, so the discriminant coefficients computed here stay
    valid.

    ``_discriminants[k, j - 1]`` holds (a00, a01 + a10, a11, b0, b1, c) of
    d_j = l_j - l_0 = z'Az + b'z + c, for j = 1, 2, in 3 frames.  Frame k
    takes the normals z of a state-k shot, whose point is mean_k + L z, with
    L = L_k the blob's lower Cholesky factor.  With P_i the precision, h_i
    the half log-determinant and delta_i = mean_k - mean_i: A = -L'(P_j - P_0)L/2,
    b = -L'(P_j delta_j - P_0 delta_0) and
    c = -(delta_j'P_j delta_j - delta_0'P_0 delta_0)/2 - (h_j - h_0).
    A blob identical to blob i < j gives the same d_j as d_i bit for bit
    (d_0 = 0), so the higher label is never assigned.
    """

    means: np.ndarray
    covariances: np.ndarray
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
        precisions, factor = np.linalg.inv(covs), np.linalg.cholesky(covs)
        delta = means[:, None] - means     # (frame, i, 2)
        p_delta = np.einsum("iab,fib->fia", precisions, delta)
        quad = np.einsum("fia,fia->fi", delta, p_delta)
        a = -0.5 * np.einsum("fai,jab,fbk->fjik", factor, precisions[1:] - precisions[0], factor)
        b = -np.einsum("fai,fja->fji", factor, p_delta[:, 1:] - p_delta[:, :1])
        half_log_det = 0.5 * np.log(det)
        c = -0.5 * (quad[:, 1:] - quad[:, :1]) - (half_log_det[1:] - half_log_det[0])
        cached = {
            "means": means,
            "covariances": covs,
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


def _classify_frame(blobs: IqBlobModel, frame: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Maximum-likelihood labels of the rows of ``z`` (m, 2), the standard
    normals of state ``frame``'s shots, written into ``out`` (m,) and
    returned.

    Works through the rows in blocks of ``_CLASSIFY_BLOCK`` with one set of
    reused buffers, so the temporaries stay in cache.  Each row's label
    depends only on that row, never on the block it falls in.

    A discriminant whose quadratic coefficients are all zero, as those of
    blobs with one covariance are, is evaluated as (b0 z0 + b1 z1) + c.
    For finite z this is the quadratic form's value bit for bit: a ±0
    product added to b0 leaves b0, and where b0 is 0 only the sign of a
    zero can differ, which the strict comparisons ignore.
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
            if a00 == a01 == a11 == 0.0:
                np.multiply(z0, b0, out=d)
                np.multiply(z1, b1, out=t)
            else:
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
        two += two      # 0 or 2
        np.maximum(one, two, out=out[start:start + m])
    return out


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
        # a singular matrix's infinite condition number is left out: JSON has no Infinity
        cond = self.condition_number
        return {
            "schema_version": CONFUSION_SCHEMA_VERSION,
            "matrix_row_major": [float(v) for v in self.m.reshape(-1)],
            "assignment_fidelity": self.fidelity,
            **({"condition_number": cond} if math.isfinite(cond) else {}),
        }

    def to_json(self, path) -> None:
        _write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConfusionMatrix":
        """The matrix in ``doc``; a fault raises ``ScenarioSchemaError``
        naming its field, except a missing matrix."""
        if doc.get("schema_version") != CONFUSION_SCHEMA_VERSION:
            raise ScenarioSchemaError(
                "schema_version",
                f"unsupported confusion schema_version {doc.get('schema_version')!r}")
        if "matrix_row_major" not in doc:
            raise InvalidParameterError("confusion document has no matrix_row_major")
        m = _field(doc, "matrix_row_major", "", _REQUIRED,
                   lambda v: type(v) is list and len(v) == 9 and all(map(_finite, v)),
                   "9 finite numbers")
        for key in ("assignment_fidelity", "condition_number"):   # derived: checked, not used
            _number(doc, key, "", 0.0)
        try:
            return cls(np.reshape(m, (3, 3)))
        except InvalidParameterError as err:
            raise ScenarioSchemaError("matrix_row_major", str(err)) from None

    @classmethod
    def from_json(cls, path) -> "ConfusionMatrix":
        """The confusion matrix in ``path``; a fault names the file."""
        return _read_json_as(path, cls.from_json_dict)


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
        _classify_frame(blobs, k, rng.standard_normal((shots_per_state, 2)), labels)
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


def mitigate_trace(m: ConfusionMatrix, trace: PopulationTrace, clip: bool = True) -> PopulationTrace:
    """:func:`mitigate_stack` of the one trace ``trace``."""
    return mitigate_stack(m, TraceStack.from_traces([trace]), clip).trace(0)


def mitigate_stack(m: ConfusionMatrix, stack: TraceStack, clip: bool = True) -> TraceStack:
    """Recover the ideal populations of every trace of a stack by applying
    the inverse confusion matrix to every row, checking the matrix's
    condition number once.  Each row is solved on its own, so its bits do
    not depend on the rows beside it.

    With ``clip`` (default) a row whose raw inverse has a negative
    component has it set to zero and is renormalized to unit sum; with
    ``clip=False`` the raw inverse is returned even if slightly unphysical.
    A row that is refused raises naming its delay point within the first
    trace that has one.
    """
    _require_stable(m)
    try:
        return stack._replace(populations=_mitigated(m, stack.populations, clip))
    except InvalidParameterError:
        for start, n in zip(stack.starts, stack.lengths):
            _mitigated(m, stack.populations[start:start + n], clip)
        raise


def _mitigated(m: ConfusionMatrix, observed: np.ndarray, clip: bool) -> np.ndarray:
    """The rows of ``observed`` (n, 3) mitigated; a non-finite row, before
    or after, raises naming its delay point."""
    _require_finite(observed, "observed")
    corrected = _solve_and_clip(m, observed, clip)
    _require_finite(corrected, "mitigated")
    return corrected
