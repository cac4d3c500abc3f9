"""Inversion of lifetime time series into drifting TLS parameters.

Given per-epoch lifetimes of the first and second excited states, the
tracker fits a one- or two-defect Lorentzian rate model: global coupling
weights and linewidths (plus an optional constant background floor) shared
by all epochs, and a free defect frequency per epoch.

The solve alternates two moves until the misfit settles:

(i)  per-epoch frequency solves at fixed globals, run for all epochs at
     once as array operations -- for one defect the exact local minima over
     the search band, from the roots of the cost's stationarity polynomial;
     for two, the exact solutions of the two rate equations, from the roots
     of one eliminant polynomial of degree 8, each polished by damped
     Newton, with a damped Newton fallback from fixed starts for an epoch
     that has none -- then near-equal minima tie-broken toward the previous
     epoch's frequency (continuity) in epoch order, by a table of each
     epoch's nearest pick given the previous one;
(ii) a bounded Levenberg-Marquardt update of the globals on the stacked
     two-channel residuals, performed jointly with the trajectory on
     :mod:`tlstrack.optimize`'s loop (the model's derivatives are supplied
     analytically).  Updating the globals with trajectories frozen is not
     convergent here: the linewidth and the trajectory amplitude feed back
     on each other and the pure two-block scheme collapses the linewidth
     toward zero.  A frequency moves only its own epoch's residuals, so
     the normal matrix is arrow-shaped: one order x order block per epoch
     plus at most six global rows and columns.  Each damped step
     eliminates the frequency blocks in closed form and solves the small
     Schur complement in the globals (the bundle-adjustment reduction), so
     an update costs time and memory linear in the number of epochs; no
     dense Jacobian is formed.

Because the rate levels alone cannot localize a defect (any (B, gamma,
omega) triple matching the two median rates is statically equivalent), the
loop is started from a small deterministic set of level-matched positions
spread over the search band, probed in turn until the best so far has misfit
<= ``PROBE_TIE_ABS`` (a saturated fit), and the best probe is kept.  An epoch
solve that brings the misfit to or below min(``PROBE_TIE_ABS``, the
convergence floor) interpolates every epoch and ends the fit there, with a
warning that the couplings and linewidths are the values it started from.

Residuals are relative rate misfits (1 - Gamma_model/Gamma_measured) so the
fast and slow channels contribute comparably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .dynamics import DecayRates, _background_doc, _Column, _read_csv, _write_csv
from .errors import InvalidParameterError, UndefinedCorrelationError
from .optimize import FTOL, _damped_newton_2x2, _lm_loop
from .tls import (DeviceFrequencies, TlsDefect, TlsParameterSet, lorentzian_density,
                  lorentzian_rates)


@dataclass
class LifetimeSeries:
    """Per-epoch lifetimes (us) of |1> (t1e) and |2> (t1f) vs. time (hours)."""

    epochs_hr: np.ndarray
    t1e_us: np.ndarray
    t1f_us: np.ndarray
    err_e_us: Optional[np.ndarray] = None
    err_f_us: Optional[np.ndarray] = None

    def __post_init__(self):
        self.epochs_hr = np.asarray(self.epochs_hr, dtype=float)
        self.t1e_us = np.asarray(self.t1e_us, dtype=float)
        self.t1f_us = np.asarray(self.t1f_us, dtype=float)
        n = self.epochs_hr.size
        if self.t1e_us.shape != (n,) or self.t1f_us.shape != (n,):
            raise InvalidParameterError("epochs, t1e and t1f must have equal length")
        for name in ("epochs_hr", "t1e_us", "t1f_us"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(f"{name} must be finite")
        if n and np.any(np.diff(self.epochs_hr) <= 0.0):
            raise InvalidParameterError("epoch timestamps must be strictly increasing")
        if np.any(self.t1e_us <= 0.0) or np.any(self.t1f_us <= 0.0):
            raise InvalidParameterError("lifetimes must be positive")
        if (self.err_e_us is None) != (self.err_f_us is None):
            raise InvalidParameterError("err_e_us and err_f_us must both be given or both omitted")
        for name in ("err_e_us", "err_f_us"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (n,) or np.any(v < 0.0) or not np.all(np.isfinite(v)):
                    raise InvalidParameterError(f"{name} must be finite, >= 0, length {n}")
                setattr(self, name, v)

    @property
    def n_epochs(self) -> int:
        return int(self.epochs_hr.size)

    @property
    def has_errors(self) -> bool:
        return self.err_e_us is not None and self.err_f_us is not None

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        return 1.0 / self.t1e_us, 1.0 / self.t1f_us

    def to_csv(self, path) -> None:
        header = ["timestamp_hr", "t1e_us", "t1f_us"]
        columns = [self.epochs_hr, self.t1e_us, self.t1f_us]
        if self.has_errors:
            header += ["err_e", "err_f"]
            columns += [self.err_e_us, self.err_f_us]
        _write_csv(path, header, zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))

    @classmethod
    def from_csv(cls, path) -> "LifetimeSeries":
        """Read a series written by :meth:`to_csv` through
        :func:`tlstrack.dynamics._read_csv`.

        Each timestamp must be finite and after the previous row's, and each
        lifetime positive and finite.  The ``err_e`` and ``err_f`` columns
        are optional; where present, every row gives a finite number >= 0 or
        every row leaves it blank, and a series has both or neither.
        """
        columns = [_Column("timestamp_hr", expected="a finite time after {prev!r}",
                           ok=lambda v: np.isfinite(v) & (v > np.append(-np.inf, v[:-1])))]
        columns += [_Column(name, ok=lambda v: np.isfinite(v) & (v > 0.0),
                            expected="a positive finite number") for name in ("t1e_us", "t1f_us")]
        columns += [_Column(name, ok=lambda v: np.isfinite(v) & (v >= 0.0),
                            expected="a finite number >= 0", required=False)
                    for name in ("err_e", "err_f")]
        return _read_csv(path, columns, cls)


# Solver settings: they steer the search, not the model, so they are constants.
OUTER_ITERATIONS = 50
PROBE_ITERATIONS = 2        # outer cycles spent on each start before selection
JOINT_LM_ITERATIONS = 150   # LM budget for each globals+trajectory update
JOINT_CHI2_ATOL = 1e-3      # weighted joint updates stop at an accepted step lowering chi^2 by less
MISFIT_RTOL = 1e-8
MISFIT_FLOOR = 1e-7         # unweighted runs converge once the per-residual RMS drops below this
NOISE_FLOOR_FACTOR = 1.15   # weighted runs stop once chi reaches this multiple of sqrt(N)
TIE_REL = 0.05              # candidates within this relative misfit tie-break
TIE_ABS = 1e-12
PROBE_TIE_ABS = 1e-5        # start probes below this misfit gap count as tied
LINEWIDTH_INIT_MHZ = 10.0
#: The inputs :func:`track_tls` accepts, (lo, hi) per key with both ends
#: included, in decades around a transmon's scales.  A bound's limits hold for
#: both its ends, and ``err_e``'s and ``err_f``'s for each error over its lifetime.
DOMAIN = {
    "omega01_mhz": (1e-2, 1e6),            # transmons: 4e3 to 8e3
    "anharmonicity_mhz": (-1e5, -1e-2),    # transmons: -400 to -100
    "band_margin_mhz": (0.0, 1e5),         # default 200
    "linewidth_bounds_mhz": (1e-6, 1e6),   # default (0.05, 500)
    "coupling_bounds": (1e-20, 1e20),      # default (1e-10, 1e8)
    "f_multiplier": (1e-3, 1e3),           # default 1
    "err_e": (0.0, 1e10),                  # >= 0 by LifetimeSeries; bundled fits: <= 0.023
    "err_f": (0.0, 1e10),
}
# Inside DOMAIN every intermediate stays in the float range (bounds from its
# corners; a polynomial's is the sum of its coefficients' magnitudes).  h =
# |alpha|/2 + margin lies in [5e-3, 1.5e5] MHz, so the transitions lie in [-1, 1]
# and 1e-7 or more apart in band units, and (gamma/h)^2 <= 4e16.  The lifetime
# check puts the rates in [2.5e-40, 1e29] /us, and the weights lie in [1e-10,
# 1e12].  So scale_e, scale_f <= 4e54, Gamma*h^2 lies in [6e-45, 3e39] and C_e,
# C_f in [4e-79, 2e85] keep the degree-9 coefficients <= 6e237; the eliminant's
# P <= 4e45, N <= 2e62 and Q <= 2e108 keep it <= 2e216.  Jacobian entries <= 4e86
# and residuals <= 2e81 give JᵀJ <= 4e173 N; the starts square ratios in [1e-38, 4e38].


@dataclass(frozen=True)
class TrackerConfig:
    """The rate model the tracker fits, beyond the device and the series.

    Residuals are weighted by the series' standard errors exactly when it
    has them (the ``err_e``/``err_f`` columns); the solver's settings are
    the module constants above.  Frozen: vary one with ``dataclasses.replace``.
    """

    band_margin_mhz: float = 200.0   # search band extends this far past both transitions
    fit_background: bool = True      # fit a constant floor; without it the floor is zero
    f_multiplier: float = 1.0        # extra weight on the |2>->|1> channel per defect
    linewidth_bounds_mhz: tuple[float, float] = (0.05, 500.0)
    coupling_bounds: tuple[float, float] = (1e-10, 1e8)

    def band(self, device: DeviceFrequencies) -> tuple[float, float]:
        return (device.omega_12 - self.band_margin_mhz,
                device.omega_01 + self.band_margin_mhz)

    def n_globals(self, order: int) -> int:
        """Parameters shared by all epochs: (B, gamma) per defect plus the fitted floor."""
        return 2 * order + (2 if self.fit_background else 0)


DEFAULT_TRACKER_CONFIG = TrackerConfig()


@dataclass
class TrackerFit:
    """Result of a tracker inversion."""

    model_order: int
    parameters: TlsParameterSet
    fitted_rates: np.ndarray    # (2, N): gamma_10 and gamma_21 per epoch
    misfit: float
    converged: bool
    iterations: int
    epochs_hr: np.ndarray
    warnings: list[str] = field(default_factory=list)
    information_score: Optional[float] = None
    model_scores: Optional[dict[int, float]] = None
    skipped_orders: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "model_order": self.model_order,
            "misfit": float(self.misfit),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "warnings": list(self.warnings),
            "information_score": self.information_score,
            "model_scores": (
                None
                if self.model_scores is None
                else {str(k): float(v) for k, v in self.model_scores.items()}
            ),
            "skipped_orders": list(self.skipped_orders),
            "tls": [
                {"B": d.coupling_weight, "gamma_mhz": d.linewidth_mhz}
                for d in self.parameters.defects
            ],
            "background": _background_doc(self.parameters.background),
            "n_epochs": int(self.epochs_hr.size),
        }


# -- internal model arithmetic ---------------------------------------------


def _frequency_derivatives(device: DeviceFrequencies, b, g, w, scale_e, scale_f):
    """d(r_e, r_f)/d(omega) of one defect with coupling b and linewidth g at
    frequencies w; ``scale_e`` and ``scale_f`` turn a rate derivative into a
    residual derivative (-w_e/Gamma10_meas and -f_multiplier*w_f/Gamma21_meas)."""
    de = device.omega_01 - w
    df = device.omega_12 - w
    return (scale_e * b * 2.0 * g * de / (de**2 + g**2) ** 2,
            scale_f * b * 2.0 * g * df / (df**2 + g**2) ** 2)


class _Workspace:
    """The arrays and quantities fixed for one tracker run, and its closures."""

    def __init__(self, series: LifetimeSeries, device: DeviceFrequencies,
                 order: int, config: TrackerConfig):
        self.series = series
        self.device = device
        self.order = order
        self.config = config
        self.g10_meas, self.g21_meas = series.rates()
        self.n = series.n_epochs
        lo, hi = self.band = config.band(device)
        self.n_globals = config.n_globals(order)
        # band centre, half-width and transitions in band units u = (omega - mid)/h
        self.mid, self.h = (lo + hi) / 2.0, (hi - lo) / 2.0
        self.u01 = (device.omega_01 - self.mid) / self.h
        self.u12 = (device.omega_12 - self.mid) / self.h
        # residual weights: inverse relative lifetime errors when reported
        self.weighted = series.has_errors
        if self.weighted:
            self.w_e = 1.0 / np.maximum(series.err_e_us / series.t1e_us, 1e-12)
            self.w_f = 1.0 / np.maximum(series.err_f_us / series.t1f_us, 1e-12)
        else:
            self.w_e = np.ones(self.n)
            self.w_f = np.ones(self.n)
        # d(r_e, r_f)/d(Gamma10, Gamma21), which turn rate into residual derivatives
        self.scale_e = -self.w_e / self.g10_meas
        self.scale_f = -config.f_multiplier * self.w_f / self.g21_meas
        # the misfit's convergence floor: with errors, going below ~sqrt(N) only
        # chases noise (discrepancy principle); without, a numerical-accuracy guard
        self.misfit_floor = (NOISE_FLOOR_FACTOR if self.weighted
                             else MISFIT_FLOOR) * math.sqrt(2.0 * self.n)

    def residuals(self, coupling, linewidth, bg, traj) -> np.ndarray:
        g10, g21 = lorentzian_rates(
            self.device, coupling, linewidth, traj, bg, self.config.f_multiplier
        )
        # epoch-major (e, f) interleaving, the row order _normal_equations assumes
        r = np.empty(2 * self.n)
        r[0::2], r[1::2] = self.epoch_residuals(g10, g21, slice(None))
        return r

    def misfit(self, coupling, linewidth, bg, traj) -> float:
        return float(np.linalg.norm(self.residuals(coupling, linewidth, bg, traj)))

    def epoch_residuals(self, g10, g21, epochs):
        """The two residuals of model rates against the measured rates of
        ``epochs`` (an index array broadcasting against the rates)."""
        return (self.w_e[epochs] * (1.0 - g10 / self.g10_meas[epochs]),
                self.w_f[epochs] * (1.0 - g21 / self.g21_meas[epochs]))

    def epoch_cost(self, g10, g21, epochs) -> np.ndarray:
        """Squared two-channel misfit of model rates, per epoch of ``epochs``."""
        r_e, r_f = self.epoch_residuals(g10, g21, epochs)
        return r_e**2 + r_f**2

    # -- globals vector: [B_k, gamma_k]*order, then [bg_e, bg_f] when fitted

    def unpack_globals(self, params: np.ndarray):
        order = self.order
        coupling = params[0 : 2 * order : 2]
        linewidth = params[1 : 2 * order : 2]
        bg = params[2 * order : 2 * order + 2] if self.config.fit_background else np.zeros(2)
        return coupling, linewidth, bg

    def global_bounds(self):
        cfg = self.config
        lo, hi = [], []
        for _ in range(self.order):
            lo += [cfg.coupling_bounds[0], cfg.linewidth_bounds_mhz[0]]
            hi += [cfg.coupling_bounds[1], cfg.linewidth_bounds_mhz[1]]
        if cfg.fit_background:
            # the floor can never exceed the smallest measured rate per channel
            lo += [0.0, 0.0]
            hi += [float(np.min(self.g10_meas)), float(np.min(self.g21_meas))]
        return np.array(lo), np.array(hi)


# -- stage (ii): joint update of the globals and the trajectory ---------------


def _normal_equations(ws: _Workspace, glob: np.ndarray, traj: np.ndarray, r: np.ndarray):
    """JᵀJ and Jᵀr of the joint residual ``r`` at (glob, traj), in arrow shape.

    A frequency moves only its own epoch's two residuals, so JᵀJ is
    [[U, W], [Wᵀ, blockdiag(V_e)]].  Returns U (G, G) over the G globals,
    the order-k frequency blocks V (N, k, k), their couplings to the globals
    W (N, G, k), and the gradient split alike into (G,) and (N, k).  The
    derivatives are analytic: near the optimum the (B, gamma) directions
    form a shallow valley whose gradient is below the forward-difference
    truncation error, which stalls the solver.
    """
    coupling, linewidth, _ = ws.unpack_globals(glob)
    dev, n, order, scale_e, scale_f = ws.device, ws.n, ws.order, ws.scale_e, ws.scale_f
    # per epoch, the rows of its (e, f) residuals
    jac_g = np.zeros((n, 2, ws.n_globals))
    jac_w = np.empty((n, 2, order))
    for k in range(order):
        b, g, w = coupling[k], linewidth[k], traj[k]
        de, df = dev.omega_01 - w, dev.omega_12 - w
        den_e, den_f = de**2 + g**2, df**2 + g**2
        jac_g[:, 0, 2 * k] = scale_e * (g / den_e)
        jac_g[:, 1, 2 * k] = scale_f * (g / den_f)
        jac_g[:, 0, 2 * k + 1] = scale_e * b * (de**2 - g**2) / den_e**2
        jac_g[:, 1, 2 * k + 1] = scale_f * b * (df**2 - g**2) / den_f**2
        jac_w[:, 0, k], jac_w[:, 1, k] = _frequency_derivatives(dev, b, g, w, scale_e, scale_f)
    if ws.config.fit_background:
        jac_g[:, 0, 2 * order] = scale_e
        jac_g[:, 1, 2 * order + 1] = -ws.w_f / ws.g21_meas
    dense_g = jac_g.reshape(2 * n, ws.n_globals)    # rows in residual order
    jac_wt = jac_w.transpose(0, 2, 1)
    return (dense_g.T @ dense_g, jac_wt @ jac_w, jac_g.transpose(0, 2, 1) @ jac_w,
            dense_g.T @ r, (jac_wt @ r.reshape(n, 2, 1))[..., 0])


def _schur_step(normal, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The global and frequency steps solving (JᵀJ + lam*D) delta = -Jᵀr.

    ``normal`` is :func:`_normal_equations`' output and D the diagonal of
    JᵀJ, with entries <= 0 replaced by 1, as in :func:`_lm_loop`.
    The damped frequency blocks V_e* are eliminated in closed form: the
    globals solve the (G, G) Schur complement S = U* - sum_e W_e V_e*⁻¹ W_eᵀ,
    and each epoch's frequencies follow from
    V_e* delta_w_e = -g_e - W_eᵀ delta_g.  Raises LinAlgError when a damped
    matrix is singular to working precision.
    """
    u, v, w, grad_g, grad_w = normal
    d_g, d_w = np.diagonal(u), np.diagonal(v, axis1=1, axis2=2)
    u = u + np.diag(lam * np.where(d_g > 0.0, d_g, 1.0))
    v = v + lam * np.where(d_w > 0.0, d_w, 1.0)[..., None] * np.eye(v.shape[-1])
    # V_e*⁻¹ [W_eᵀ | g_e] for every epoch
    rhs = np.concatenate([w.transpose(0, 2, 1), grad_w[..., None]], axis=2)
    if v.shape[-1] == 1:
        y = rhs / v
    else:
        a, b, c, d = v[:, 0, 0, None], v[:, 0, 1, None], v[:, 1, 0, None], v[:, 1, 1, None]
        y = np.stack([d * rhs[:, 0] - b * rhs[:, 1], a * rhs[:, 1] - c * rhs[:, 0]],
                     axis=1) / (a * d - b * c)[:, None]
    y_w, y_g = y[..., :-1], y[..., -1]
    step_g = np.linalg.solve(u - np.einsum("nij,njk->ik", w, y_w),
                             np.einsum("nij,nj->i", w, y_g) - grad_g)
    step_w = -y_g - y_w @ step_g
    if not (np.all(np.isfinite(step_g)) and np.all(np.isfinite(step_w))):
        raise np.linalg.LinAlgError("singular damped block")
    return step_g, step_w


def _joint_update(ws: _Workspace, glob: np.ndarray, traj: np.ndarray):
    """Bounded Levenberg-Marquardt update of the globals jointly with the trajectory.

    The parameters are one vector, the globals and then the trajectory
    defect by defect, run through :func:`tlstrack.optimize._lm_loop` with
    ``JOINT_LM_ITERATIONS`` iterations.  On a weighted series the cost is
    χ², and the update also stops at the first accepted step that lowers it
    by less than ``JOINT_CHI2_ATOL``.  Each damped system is solved by
    :func:`_schur_step`, in time and memory linear in the number of epochs.
    Returns (glob, traj).
    """
    g = ws.n_globals
    (glo, ghi), (wlo, whi) = ws.global_bounds(), ws.band
    lo = np.concatenate([glo, np.full(traj.size, wlo)])
    hi = np.concatenate([ghi, np.full(traj.size, whi)])

    def split(x):
        return x[:g], x[g:].reshape(traj.shape)

    def residual(x):
        glob, traj = split(x)
        return ws.residuals(*ws.unpack_globals(glob), traj)

    def linearise(x, r):
        normal = _normal_equations(ws, *split(x), r)
        return np.concatenate([normal[3], normal[4].T.ravel()]), normal

    def damped_step(normal, lam):
        step_g, step_w = _schur_step(normal, lam)
        return np.concatenate([step_g, step_w.T.ravel()])

    x = np.clip(np.concatenate([glob, traj.ravel()]), lo, hi)
    x = _lm_loop(x, lo, hi, residual, linearise, damped_step, JOINT_LM_ITERATIONS,
                 JOINT_CHI2_ATOL if ws.weighted else 0.0)[0]
    return split(x)


# -- deterministic level-matched starts --------------------------------------


def _initial_states(ws: _Workspace) -> list[tuple[np.ndarray, np.ndarray]]:
    """Start list: defects placed across the band with couplings solved so the
    static model matches the median measured rates."""
    dev, cfg = ws.device, ws.config
    w01, w12 = dev.omega_01, dev.omega_12
    span = w01 - w12
    g0 = LINEWIDTH_INIT_MHZ
    med_e = float(np.median(ws.g10_meas))
    med_f = float(np.median(ws.g21_meas))
    blo, bhi = cfg.coupling_bounds

    states = []
    if ws.order == 1:
        for w in (w12 + 0.25 * span, w12 + 0.5 * span, w12 + 0.75 * span):
            ae = lorentzian_density(w, g0, w01) / med_e
            af = lorentzian_density(w, g0, w12) / med_f
            b0 = float(np.clip((ae + af) / (ae**2 + af**2), blo, bhi))
            glob = [b0, g0] + ([0.0, 0.0] if cfg.fit_background else [])
            states.append((np.array(glob), np.full((1, ws.n), w)))
    else:
        pairs = [
            (w01 - 0.15 * span, w12 + 0.15 * span),
            (w01 - 0.35 * span, w12 + 0.35 * span),
            (w01 + 0.1 * span, w12 - 0.1 * span),
        ]
        for w1, w2 in pairs:
            a = np.array([
                [lorentzian_density(w1, g0, w01), lorentzian_density(w2, g0, w01)],
                [lorentzian_density(w1, g0, w12), lorentzian_density(w2, g0, w12)],
            ])
            # a = [[L(x), L(y)], [L(y), L(x)]] with detunings |x| != |y|; |alpha| >= 0.01
            # MHz (DOMAIN) keeps their x^2 + g0^2 >= 3e-5 MHz^2 apart, so a is regular
            b = np.clip(np.linalg.solve(a, np.array([med_e, med_f])), blo, bhi)
            glob = [float(b[0]), g0, float(b[1]), g0] + (
                [0.0, 0.0] if cfg.fit_background else []
            )
            traj = np.vstack([np.full(ws.n, w1), np.full(ws.n, w2)])
            states.append((np.array(glob), traj))
    return states


# -- stage B: per-epoch frequency solves ------------------------------------


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise products of the polynomials in the rows of ``p`` and ``q``."""
    out = np.zeros((p.shape[0], p.shape[1] + q.shape[1] - 1))
    for i in range(p.shape[1]):
        out[:, i : i + q.shape[1]] += p[:, i, None] * q
    return out


def _polynomial_roots(coef: np.ndarray) -> np.ndarray:
    """The complex roots of each row of ``coef``, as companion-matrix eigenvalues.
    Leading zeros are dropped, which only adds roots at u = 0."""
    n, k = coef.shape
    lead = np.argmax(coef != 0.0, axis=1)
    coef = np.take_along_axis(np.pad(coef, ((0, 0), (0, k - 1))), lead[:, None] + np.arange(k),
                              axis=1)
    companion = np.zeros((n, k - 1, k - 1))
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[:, np.arange(1, k - 1), np.arange(k - 2)] = 1.0
    return np.linalg.eigvals(companion)


def _candidates_1d(ws: _Workspace, coupling, linewidth,
                   bg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local minima of every epoch's cost over the band, from its stationary points.

    In u = (omega - mid)/h, with mid the band centre and h its half-width,
    an epoch's residuals are r_e = a_e - C_e/E_e(u) and r_f = a_f - C_f/E_f(u)
    with E_e = (u - u_01)^2 + (gamma/h)^2 and E_f alike at u_12.  The cost's
    stationary points are the real roots of the degree-9 polynomial
    C_e (a_e E_e - C_e)(u_01 - u) E_f^3 + C_f (a_f E_f - C_f)(u_12 - u) E_e^3,
    found for all epochs at once as companion-matrix eigenvalues.  The cost
    is monotone between consecutive stationary points, so among the sorted
    real parts of all roots, clipped to the band, and the two band edges,
    the distinct points no higher than both neighbours are its local minima.
    The eigenvalues lose digits where roots cluster (a linewidth far below
    the band's width), so each local minimum then takes one Newton step on
    its cost, kept where it lowers the cost by more than the solvers' ``FTOL``.

    Returns every local minimum's epoch, its (1, k) frequencies and its
    cost, epoch by epoch and, within an epoch, in increasing cost.
    """
    cfg, dev, mid, h, u01, u12 = ws.config, ws.device, ws.mid, ws.h, ws.u01, ws.u12
    g2 = (linewidth[0] / h) ** 2
    # polynomials as coefficient arrays, highest power first
    e_e, e_f = np.array([1.0, -2.0 * u01, u01**2 + g2]), np.array([1.0, -2.0 * u12, u12**2 + g2])
    p_e = np.polymul([-1.0, u01], np.polymul(e_f, np.polymul(e_f, e_f)))
    p_f = np.polymul([-1.0, u12], np.polymul(e_e, np.polymul(e_e, e_e)))
    basis = np.zeros((4, 10))
    basis[0], basis[1, 2:] = np.polymul(e_e, p_e), p_e
    basis[2], basis[3, 2:] = np.polymul(e_f, p_f), p_f
    a_e = ws.w_e * (1.0 - bg[0] / ws.g10_meas)
    a_f = ws.w_f * (1.0 - bg[1] / ws.g21_meas)
    c_e = ws.w_e * coupling[0] * linewidth[0] / (ws.g10_meas * h * h)
    c_f = ws.w_f * cfg.f_multiplier * coupling[0] * linewidth[0] / (ws.g21_meas * h * h)
    # einsum, unlike a BLAS matmul, sums each epoch alike whatever the batch
    coef = np.einsum("nk,kj->nj", np.stack([c_e * a_e, -c_e**2, c_f * a_f, -c_f**2], axis=1),
                     basis)
    # the leading coefficient -(C_e a_e + C_f a_f) is 0 where the floor equals
    # both measured rates
    u = np.clip(_polynomial_roots(coef).real, -1.0, 1.0)
    u = np.sort(np.concatenate([u, np.broadcast_to([-1.0, 1.0], (ws.n, 2))], axis=1))
    # a point ties with its own copy (a conjugate pair, a clipped root) in the
    # neighbour test, so copies become NaN, which sorts last and costs inf
    u[:, 1:][u[:, 1:] == u[:, :-1]] = np.nan
    xs = mid + h * np.sort(u)
    rows = np.arange(ws.n)[:, None]
    g10, g21 = lorentzian_rates(dev, coupling, linewidth, xs[None], bg, cfg.f_multiplier)
    fs = np.where(np.isnan(xs), np.inf, ws.epoch_cost(g10, g21, rows))
    padded = np.pad(fs, ((0, 0), (1, 1)), constant_values=np.inf)
    is_min = (fs <= padded[:, :-2]) & (fs <= padded[:, 2:]) & (fs < np.inf)
    g, grad, curv = linewidth[0], 0.0, 0.0
    for r, w0, s in zip(ws.epoch_residuals(g10, g21, rows), (dev.omega_01, dev.omega_12),
                        (ws.scale_e, ws.scale_f)):
        d, den = w0 - xs, (w0 - xs) ** 2 + g**2
        lor = 2.0 * s[:, None] * coupling[0] * g / den**2   # d r / d omega = lor * d
        grad = grad + r * lor * d
        curv = curv + (lor * d) ** 2 + r * lor * (3.0 * d**2 - g**2) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        x_nt = np.clip(xs - grad / curv, *ws.band)
    f_nt = ws.epoch_cost(*lorentzian_rates(dev, coupling, linewidth, x_nt[None], bg,
                                           cfg.f_multiplier), rows)
    better = is_min & (curv > 0.0) & (f_nt < fs * (1.0 - FTOL))
    xs, fs = np.where(better, x_nt, xs), np.where(better, f_nt, fs)
    # local minima first, then by cost; the sort is stable, so ties keep band order
    idx = np.argsort(np.where(is_min, fs, np.inf), axis=-1, kind="stable")
    epochs, slot = np.nonzero(np.take_along_axis(is_min, idx, axis=-1))
    i = idx[epochs, slot]
    return epochs, xs[epochs, i][None], fs[epochs, i]


def _first_copies(starts: np.ndarray) -> np.ndarray:
    """Mask (n, k) of the first copy of each distinct start in every row of
    ``starts`` (2, n, k).  The u = 0 roots of dropped leading coefficients,
    the real parts of a conjugate pair and clipping all repeat starts."""
    same = (starts[:, :, :, None] == starts[:, :, None, :]).all(axis=0)
    return ~np.tril(same, -1).any(axis=2)


def _candidates_2d(ws: _Workspace, coupling, linewidth, bg, prev_traj: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every epoch's exact solutions of its two rate equations, from one
    polynomial of degree 8, or else its least-squares minima.

    In u = (omega - mid)/h write x and y for the frequencies, a = u_01,
    b = u_12 and d = b - a.  Solved for y, the Gamma10 equation reads
    (a - y)^2 = N_a(x)/P_a(x), with E_a = (a - x)^2 + (gamma_1/h)^2,
    P_a = (Gamma10 - floor) E_a - C_1, N_a = C_2 E_a - (gamma_2/h)^2 P_a and
    C_k = B_k gamma_k/h^2; Gamma21 gives (b - y)^2 = N_b/P_b alike, with C_k
    times f_multiplier.  Their difference gives a - y = Q/(2d P_a P_b), with
    Q = N_b P_a - N_a P_b - d^2 P_a P_b, and squaring eliminates y:
    Q^2 = 4d^2 N_a P_a P_b^2.  Each distinct real root with x and y in the
    band starts :func:`_solve_frequency_pairs`, which recovers the digits
    the companion eigenvalues lose.  An epoch whose best result costs more than ``TIE_ABS``
    has no exact solution and is solved instead from its roots' clipped real
    parts, the 16 pairs of {band low, omega_12, omega_01, band high} and the
    previous pair, each distinct start once.  Returns each candidate's
    epoch, its (2, k) frequencies and its cost, epoch by epoch.
    """
    (lo, hi), dev, f = ws.band, ws.device, ws.config.f_multiplier
    mid, h, a, b = ws.mid, ws.h, ws.u01, ws.u12
    d = b - a
    (c1, c2), (g1, g2) = coupling * linewidth / (h * h), (linewidth / h) ** 2
    # polynomials in x as coefficient arrays, highest power first
    e_a, e_b = (np.array([1.0, -2.0 * u, u**2 + g1]) for u in (a, b))
    p_a = (ws.g10_meas - bg[0])[:, None] * e_a - [0.0, 0.0, c1]
    p_b = (ws.g21_meas - bg[1])[:, None] * e_b - [0.0, 0.0, f * c1]
    n_a, n_b = c2 * e_a - g2 * p_a, f * c2 * e_b - g2 * p_b
    p_ab = _polymul(p_a, p_b)
    q = _polymul(n_b, p_a) - _polymul(n_a, p_b) - d**2 * p_ab
    x = _polynomial_roots(_polymul(q, q) - 4.0 * d**2 * _polymul(_polymul(n_a, p_b), p_ab))

    def at_roots(p):
        return reduce(lambda v, c: v * x + c[:, None], p.T, 0.0)    # Horner, row by row

    with np.errstate(divide="ignore", invalid="ignore"):
        y = a - at_roots(q) / (2.0 * d * at_roots(p_ab))
    roots = mid + h * np.stack([x.real, y.real])
    exact = (x.imag == 0.0) & (np.abs(x.real) <= 1.0) & (np.abs(y.real) <= 1.0)
    # NaN never equals, so only exact roots can be copies of each other
    epochs, k = np.nonzero(exact & _first_copies(np.where(exact, roots, np.nan)))
    xs, cost = _solve_frequency_pairs(ws, coupling, linewidth, bg, epochs, roots[:, epochs, k])
    redo = np.setdiff1d(np.arange(ws.n), epochs[cost <= TIE_ABS])
    if redo.size:
        marks = np.meshgrid(*[[lo, dev.omega_12, dev.omega_01, hi]] * 2, indexing="ij")
        starts = np.concatenate([np.clip(np.nan_to_num(roots[:, redo]), lo, hi),
                                 np.repeat(np.reshape(marks, (2, 1, 16)), redo.size, axis=1),
                                 prev_traj[:, redo, None]], axis=2)
        first = _first_copies(starts)
        again = np.repeat(redo, first.sum(axis=1))
        x_again, cost_again = _solve_frequency_pairs(ws, coupling, linewidth, bg, again,
                                                     starts[:, first])
        keep = ~np.isin(epochs, redo)
        order = np.argsort(np.concatenate([epochs[keep], again]), kind="stable")
        epochs = np.concatenate([epochs[keep], again])[order]
        xs = np.concatenate([xs[:, keep], x_again], axis=1)[:, order]
        cost = np.concatenate([cost[keep], cost_again])[order]
    return epochs, xs, cost


def _solve_frequency_pairs(ws: _Workspace, coupling, linewidth, bg, epochs: np.ndarray,
                           x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded Levenberg-Marquardt on the two-defect problem of every column
    of ``x`` (the two frequencies) against the two rates of ``epochs``.

    Each problem is square, 2 residuals in 2 frequencies; the analytic
    Jacobian feeds :func:`_damped_newton_2x2`, which clips steps to the band
    and runs 100 iterations at most.  Returns the final frequencies and costs.
    """
    cfg = ws.config

    def residuals(x, cols):
        g10, g21 = lorentzian_rates(ws.device, coupling, linewidth, x, bg, cfg.f_multiplier)
        r_e, r_f = ws.epoch_residuals(g10, g21, epochs[cols])
        return (r_e, r_f), r_e**2 + r_f**2

    def linearise(xa, cols, r):
        # J = [[e0, e1], [f0, f1]]: d(r_e, r_f)/d(omega_0, omega_1)
        e = epochs[cols]
        (e0, f0), (e1, f1) = (
            _frequency_derivatives(ws.device, coupling[k], linewidth[k], xa[k],
                                   ws.scale_e[e], ws.scale_f[e]) for k in (0, 1))
        r_e, r_f = r
        grad = np.stack([e0 * r_e + f0 * r_f, e1 * r_e + f1 * r_f])
        return grad, e0**2 + f0**2, e0 * e1 + f0 * f1, e1**2 + f1**2

    x, _, cost, _, _ = _damped_newton_2x2(x, *ws.band, residuals, linearise, 100)
    return x, cost


def _solve_epochs(ws: _Workspace, coupling, linewidth, bg, prev_traj: np.ndarray) -> np.ndarray:
    """Per-epoch frequency solves followed by a sequential continuity pass.

    The candidates of all epochs are found at once; the final selection runs
    in epoch order.  Of an epoch's candidates, those within the tie band of
    its best cost are near-equal; among them the one nearest (L1) the
    previous epoch's pick wins -- for the first epoch, ``prev_traj``'s first
    column.  On equal keys the first candidate wins.  Every epoch's pick for
    each possible previous pick is computed at once, so only a walk through
    that table runs epoch by epoch.
    """
    if ws.order == 1:
        epochs, x, f = _candidates_1d(ws, coupling, linewidth, bg)
    else:
        epochs, x, f = _candidates_2d(ws, coupling, linewidth, bg, prev_traj)
    # candidates come epoch by epoch, and every epoch has at least one
    start = np.searchsorted(epochs, np.arange(ws.n))
    near = f <= np.minimum.reduceat(f, start)[epochs] * (1.0 + TIE_REL) + TIE_ABS
    # row e of ``group``: epoch e's near candidates in candidate order, -1 after them
    idx = np.flatnonzero(near)
    ep = epochs[idx]
    slot = np.arange(idx.size) - np.searchsorted(ep, ep)
    group = np.full((ws.n, slot.max() + 1), -1)
    group[ep, slot] = idx
    pad = group < 0
    xg = x[:, group]    # a pad reads the last candidate; its key is masked to inf
    # step[e][i]: the slot epoch e + 1 picks after epoch e picked slot i (the
    # nearest in L1; argmin takes the first of equal keys)
    dist = np.abs(xg[:, 1:, None, :] - xg[:, :-1, :, None]).sum(axis=0)
    step = np.argmin(np.where(pad[1:, None, :], np.inf, dist), axis=2)
    key = np.abs(xg[:, 0] - prev_traj[:, :1]).sum(axis=0)
    picks = [int(np.argmin(np.where(pad[0], np.inf, key)))]
    for row in step.tolist():
        picks.append(row[picks[-1]])
    return x[:, group[np.arange(ws.n), picks]]


def _probe_winner(misfits: list[float]) -> int:
    """The earliest probe within max(TIE_REL*m_best, PROBE_TIE_ABS) of the lowest, m_best."""
    m_best = min(misfits)
    floor = m_best + max(TIE_REL * m_best, PROBE_TIE_ABS)
    return next(i for i, m in enumerate(misfits) if m <= floor)


# -- public API -------------------------------------------------------------


def track_tls(
    series: LifetimeSeries,
    device: DeviceFrequencies,
    order: int,
    config: TrackerConfig = DEFAULT_TRACKER_CONFIG,
) -> TrackerFit:
    """Fit a drifting one- or two-defect model to a lifetime series."""
    if order not in (1, 2):
        raise InvalidParameterError(f"model order must be 1 or 2, got {order!r}")
    if series.n_epochs < 3:
        raise InvalidParameterError("need at least 3 epochs to track")
    # DOMAIN's keys of the device and the config, in its order
    inputs = (device.omega_01, device.anharmonicity, config.band_margin_mhz,
              config.linewidth_bounds_mhz, config.coupling_bounds, config.f_multiplier)
    for (key, (lo, hi)), value in zip(DOMAIN.items(), inputs):
        pair = isinstance(value, (tuple, list))
        if not all(lo <= v <= hi for v in (value if pair else [value])):
            raise InvalidParameterError(
                f"{key}: expected {'both ends' if pair else 'a value'} in [{lo:g}, {hi:g}], the "
                f"tracker's input domain, got {[*value] if pair else value!r}")
        if pair and not value[0] < value[1]:
            raise InvalidParameterError(f"{key}: expected lo < hi, got {[*value]!r}")
    # one defect within the bounds gives a transition a rate from b_lo times its
    # least Lorentzian value at d, the widest detuning in the band, up to b_hi/g_lo
    # at resonance; the floor only adds to it, and f_multiplier scales the f channel
    (b_lo, b_hi), (g_lo, g_hi) = config.coupling_bounds, config.linewidth_bounds_mhz
    d = config.band(device)[1] - device.omega_12
    slowest = b_lo * min(g / (d * d + g * g) for g in (g_lo, g_hi))
    for name, scale in (("t1e_us", 1.0), ("t1f_us", config.f_multiplier)):
        lo, hi = 1.0 / (scale * np.array([b_hi / g_lo, slowest]))
        lifetimes = getattr(series, name)
        bad = np.flatnonzero((lifetimes < lo) | (lifetimes > hi))
        if bad.size:
            raise InvalidParameterError(
                f"{name}: {float(lifetimes[bad[0]])!r} us at epoch {bad[0]} is outside the "
                f"supported range [{lo:.3g}, {hi:.3g}] us, the lifetimes that one defect within "
                "coupling_bounds and linewidth_bounds_mhz can give")
    if series.has_errors:
        for key, errors, lifetimes in (("err_e", series.err_e_us, series.t1e_us),
                                       ("err_f", series.err_f_us, series.t1f_us)):
            hi = DOMAIN[key][1]
            bad = np.flatnonzero(errors > hi * lifetimes)
            if bad.size:
                raise InvalidParameterError(
                    f"{key}: {float(errors[bad[0]])!r} us at epoch {bad[0]} is more than {hi:g} "
                    "times its lifetime, the tracker's input domain")

    warnings = []
    if series.n_epochs < 10:
        warnings.append(f"only {series.n_epochs} epochs; tracking is unreliable below 10")
    if order == 2 and series.n_epochs < 25:
        warnings.append("two-defect model with fewer than 25 epochs: weak identifiability")

    ws = _Workspace(series, device, order, config)
    floor_abs = ws.misfit_floor
    # an epoch solve at or below this interpolates the data: it meets both the
    # probe stop and the convergence floor, so its state is the fit
    saturated = min(PROBE_TIE_ABS, floor_abs)

    def outer_cycle(glob, traj):
        """One epoch solve and joint update; the last element is True when the
        solve alone saturates and the update is skipped, which ends the fit."""
        coupling, linewidth, bg = ws.unpack_globals(glob)
        traj = _solve_epochs(ws, coupling, linewidth, bg, traj)
        misfit = ws.misfit(coupling, linewidth, bg, traj)
        if misfit <= saturated:
            return glob, traj, misfit, True
        glob, traj = _joint_update(ws, glob, traj)
        coupling, linewidth, bg = ws.unpack_globals(glob)
        return glob, traj, ws.misfit(coupling, linewidth, bg, traj), False

    # probe the starts in turn; near-equal probes go to the earliest, preferred start.
    # Stopping at a winner <= PROBE_TIE_ABS is exact: the tie floor is never below that
    # and later probes only lower it, so the winner stays in and earlier probes out
    probes = []
    for start, (glob, traj) in enumerate(_initial_states(ws)):
        for iteration in range(1, PROBE_ITERATIONS + 1):
            glob, traj, misfit, done = outer_cycle(glob, traj)
            if done:
                break
        probes.append((misfit, glob, traj, iteration, done, start))
        misfit, glob, traj, iteration, done, start = probes[
            _probe_winner([p[0] for p in probes])]
        if misfit <= PROBE_TIE_ABS:
            break

    converged = misfit <= floor_abs
    misfit_prev = misfit
    while not converged and iteration < OUTER_ITERATIONS:
        iteration += 1
        glob, traj, misfit, done = outer_cycle(glob, traj)
        if misfit <= floor_abs or abs(misfit_prev - misfit) <= MISFIT_RTOL * misfit_prev:
            converged = True
            break
        misfit_prev = misfit

    coupling, linewidth, bg = ws.unpack_globals(glob)
    if done:
        widths = ", ".join(f"{g:.6g}" for g in linewidth)
        warnings.append(
            f"saturated: start {start + 1} interpolates every epoch at outer cycle "
            f"{iteration} (misfit {misfit:.3g}), so the reported couplings and linewidths "
            f"are the values that cycle started from (linewidths {widths} MHz) and the "
            "data do not determine them")
    else:
        # sync trajectories to the final globals
        traj = _solve_epochs(ws, coupling, linewidth, bg, traj)
        misfit = ws.misfit(coupling, linewidth, bg, traj)
        # a saturated fit keeps its start's globals, so only a solved one is checked
        for k in range(order):
            for key, value, name in ((f"tls[{k}].B", coupling[k], "coupling_bounds"),
                                     (f"tls[{k}].gamma_mhz", linewidth[k], "linewidth_bounds_mhz")):
                lo, hi = getattr(config, name)
                if value in (lo, hi):
                    end = "lower" if value == lo else "upper"
                    warnings.append(f"at a bound: {key} = {float(value)!r} is the {end} end of "
                                    f"{name} {[lo, hi]!r}, so the fit is held there")

    fitted = np.array(lorentzian_rates(device, coupling, linewidth, traj, bg, config.f_multiplier))
    defects = [
        TlsDefect(float(coupling[k]), float(linewidth[k]), traj[k].copy())
        for k in range(order)
    ]
    parameters = TlsParameterSet(defects, DecayRates(float(bg[0]), float(bg[1])))
    if not converged:
        warnings.append("outer loop hit the iteration cap before the misfit settled")
    return TrackerFit(
        model_order=order,
        parameters=parameters,
        fitted_rates=fitted,
        misfit=misfit,
        converged=converged,
        iterations=iteration,
        epochs_hr=series.epochs_hr.copy(),
        warnings=warnings,
    )


def _score(order: int, misfit: float, series: LifetimeSeries, config: TrackerConfig) -> float:
    n_res = 2 * series.n_epochs
    k = config.n_globals(order) + series.n_epochs * order
    if series.has_errors:
        # the tracker's misfit is already weighted by the reported errors
        return misfit**2 + k * math.log(n_res)
    # misfits below the tracker's own convergence floor are numerically
    # equal; without the clamp a saturated model's ln(misfit^2) diverges
    floor_sq = MISFIT_FLOOR**2 * n_res
    misfit_sq = max(misfit**2, floor_sq)
    return n_res * math.log(misfit_sq / n_res) + k * math.log(n_res)


def information_score(
    fit: TrackerFit, series: LifetimeSeries, config: TrackerConfig = DEFAULT_TRACKER_CONFIG
) -> float:
    """Bayesian information criterion for one tracker fit.

    The series' error columns (``err_e``/``err_f``) choose the form, as they
    choose the tracker's residual weighting.  With them the Gaussian log-likelihood
    with *known* variances is used: score = chi^2 + k ln(n), for k
    parameters and n = 2N residuals of N epochs.  The two-defect model then
    saturates -- its 2N + 4 parameters (plus the floor) can interpolate the
    2N residuals -- so it lands at chi^2 ~ 0; its k exceeds the one-defect
    k by N + 2, so BIC picks order 1 exactly when chi_1^2 < (N + 2) ln(2N).
    Without them the common-variance form n ln(misfit^2/n) + k ln(n)
    applies, with the squared misfit floored at the tracker's unweighted
    convergence floor (``MISFIT_FLOOR``) to keep a saturated model comparable.

    Either form is nondecreasing in the misfit, so the score at misfit 0
    (k ln(n) weighted, n ln(floor^2/n) + k ln(n) unweighted) is a floor
    that no fit of that order can score below; :func:`select_model` skips
    an order whose floor already loses.
    """
    return _score(fit.model_order, fit.misfit, series, config)


def select_model(
    series: LifetimeSeries,
    device: DeviceFrequencies,
    config: TrackerConfig = DEFAULT_TRACKER_CONFIG,
) -> TrackerFit:
    """Fit the model orders in ascending order and keep the one with the
    lowest information score; ties go to the lower order.

    Before fitting an order, its score floor -- :func:`information_score`
    at misfit 0, below which no fit of that order can score -- is compared
    with the best score so far.  If the best is already <= the floor, the
    order cannot win and is not fitted: it is listed in the result's
    ``skipped_orders`` and its ``model_scores`` entry is the floor.  The
    chosen order and fit are the same as fitting every order.
    """
    scores: dict[int, float] = {}
    skipped = []
    best = None
    for order in (1, 2):
        # order 1 is always fitted, and its fit rejects a series too short to score
        floor = None if best is None else _score(order, 0.0, series, config)
        if floor is not None and best.information_score <= floor:
            scores[order] = floor
            skipped.append(order)
            continue
        fit = track_tls(series, device, order, config)
        fit.information_score = scores[order] = information_score(fit, series, config)
        if best is None or fit.information_score < best.information_score:
            best = fit
    best.model_scores = scores
    best.skipped_orders = skipped
    return best


def lifetime_correlation(series: LifetimeSeries) -> float:
    """Pearson correlation of the (t1e, t1f) pairs."""
    if series.n_epochs < 3:
        raise InvalidParameterError("need at least 3 epochs for a correlation")
    x, y = series.t1e_us, series.t1f_us
    if np.var(x) == 0.0 or np.var(y) == 0.0:
        raise UndefinedCorrelationError("a lifetime channel has zero variance")
    return float(np.corrcoef(x, y)[0, 1])


def reconstruct_trajectory(fit: TrackerFit, tls_index: int) -> list[tuple[float, float, float]]:
    """Per-epoch (timestamp_hr, omega_mhz, gamma_mhz) for one fitted defect."""
    if not 0 <= tls_index < fit.model_order:
        raise InvalidParameterError(
            f"tls_index {tls_index} out of range for order {fit.model_order}"
        )
    d = fit.parameters.defects[tls_index]
    return [
        (float(t), float(w), d.linewidth_mhz)
        for t, w in zip(fit.epochs_hr, d.trajectory_mhz)
    ]


def write_trajectory_csv(fit: TrackerFit, path) -> None:
    """Plot-ready long-format trajectory table (t_hr, tls, omega_mhz, gamma_mhz)."""
    _write_csv(path, ["t_hr", "tls", "omega_mhz", "gamma_mhz"],
               [(t, k, omega, gamma) for k in range(fit.model_order)
                for t, omega, gamma in reconstruct_trajectory(fit, k)])


def write_correlation_csv(fit: TrackerFit, series: LifetimeSeries, path) -> None:
    """Measured vs. fitted lifetime pairs (t1e_us, t1f_us, t1e_fit_us, t1f_fit_us)."""
    g10, g21 = fit.fitted_rates
    _write_csv(path, ["t1e_us", "t1f_us", "t1e_fit_us", "t1f_fit_us"],
               zip(series.t1e_us.tolist(), series.t1f_us.tolist(),
                   (1.0 / g10).tolist(), (1.0 / g21).tolist()))
