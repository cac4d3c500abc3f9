"""Lorentzian TLS noise model and the multi-defect transition-rate forward model.

Unit convention: every frequency at the interface is a cycle frequency in
MHz.  ``lorentzian_density`` then has units 1/MHz, and a defect's coupling
weight carries MHz/us so that rates come out in 1/us with a conversion
constant of exactly 1.  Any consistent 2*pi (angular-frequency) factor is
absorbed into the coupling weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .dynamics import (_REQUIRED, ZERO_RATES, DecayRates, _background_doc, _background_from_doc,
                       _check, _field, _finite, _need, _number, _read_json_as, _write_json)
from .errors import InvalidParameterError, ScenarioSchemaError

TLS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DeviceFrequencies:
    """Transmon transition frequencies in MHz.

    ``omega_01`` is the |0>-|1> transition; the anharmonicity is negative
    and fixes ``omega_12 = omega_01 + anharmonicity``.
    """

    omega_01: float
    anharmonicity: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_01) and self.omega_01 > 0.0):
            raise InvalidParameterError(f"omega_01 must be positive, got {self.omega_01!r}")
        if not (math.isfinite(self.anharmonicity) and self.anharmonicity < 0.0):
            raise InvalidParameterError(
                f"anharmonicity must be negative, got {self.anharmonicity!r}"
            )
        if self.omega_12 <= 0.0:
            raise InvalidParameterError("omega_12 = omega_01 + anharmonicity must be positive")

    @property
    def omega_12(self) -> float:
        return self.omega_01 + self.anharmonicity


@dataclass(frozen=True)
class TlsDefect:
    """One two-level-system defect.

    ``coupling_weight`` (MHz/us) sets the on-resonance rate B/gamma;
    ``linewidth_mhz`` is the Lorentzian half-width; ``trajectory_mhz`` gives
    the defect's center frequency at each observation epoch.
    """

    coupling_weight: float
    linewidth_mhz: float
    trajectory_mhz: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.coupling_weight) and self.coupling_weight > 0.0):
            raise InvalidParameterError("coupling_weight must be positive")
        if not (math.isfinite(self.linewidth_mhz) and self.linewidth_mhz > 0.0):
            raise InvalidParameterError("linewidth_mhz must be positive")
        object.__setattr__(
            self, "trajectory_mhz", np.atleast_1d(np.asarray(self.trajectory_mhz, dtype=float))
        )
        if not np.all(np.isfinite(self.trajectory_mhz)):
            raise InvalidParameterError("trajectory_mhz must be finite")

    @property
    def n_epochs(self) -> int:
        return int(self.trajectory_mhz.size)


@dataclass
class TlsParameterSet:
    """A collection of defects plus a constant background-rate floor."""

    defects: list[TlsDefect]
    background: DecayRates = field(default_factory=lambda: ZERO_RATES)

    def __post_init__(self):
        lengths = {d.n_epochs for d in self.defects}
        if len(lengths) > 1:
            raise InvalidParameterError(
                f"all defect trajectories must cover the same epochs, got lengths {sorted(lengths)}"
            )

    @property
    def n_epochs(self) -> int:
        return self.defects[0].n_epochs if self.defects else 0

    def __len__(self) -> int:
        return len(self.defects)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": TLS_SCHEMA_VERSION,
            "tls": [
                {
                    "B": d.coupling_weight,
                    "gamma_mhz": d.linewidth_mhz,
                    "omega_mhz": [float(w) for w in d.trajectory_mhz],
                }
                for d in self.defects
            ],
            "background": _background_doc(self.background),
        }

    def to_json(self, path) -> None:
        _write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TlsParameterSet":
        """The set in ``doc``; a fault raises ``ScenarioSchemaError`` naming its field."""
        if doc.get("schema_version") != TLS_SCHEMA_VERSION:
            raise ScenarioSchemaError(
                "schema_version", f"unsupported TLS schema_version {doc.get('schema_version')!r}")
        entries = _check(_need(doc, "tls", ""), "tls", lambda v: type(v) is list,
                         "a list of defects")
        defects = []
        for i, entry in enumerate(entries):
            path = f"tls[{i}]"
            coupling, linewidth = _number(entry, "B", path), _number(entry, "gamma_mhz", path)
            omega = _field(entry, "omega_mhz", path, _REQUIRED,
                           lambda v: type(v) is list and all(map(_finite, v)),
                           "a list of finite numbers")
            try:
                defects.append(TlsDefect(coupling, linewidth, omega))
            except InvalidParameterError as err:
                raise ScenarioSchemaError(path, str(err)) from None
        background = _background_from_doc(doc)
        try:
            return cls(defects, background)
        except InvalidParameterError as err:     # trajectories of unequal lengths
            raise ScenarioSchemaError("tls", str(err)) from None

    @classmethod
    def from_json(cls, path) -> "TlsParameterSet":
        """The set in ``path``; a fault names the file and the field."""
        return _read_json_as(path, cls.from_json_dict)


def lorentzian_density(center_mhz, linewidth_mhz, probe_mhz):
    """Lorentzian shape gamma / ((probe - center)^2 + gamma^2), units 1/MHz.

    Vectorized over any of the arguments; symmetric in probe <-> center.
    """
    linewidth = np.asarray(linewidth_mhz, dtype=float)
    if np.any(linewidth <= 0.0) or not np.all(np.isfinite(linewidth)):
        raise InvalidParameterError(f"linewidth must be positive, got {linewidth_mhz!r}")
    detuning = np.asarray(probe_mhz, dtype=float) - np.asarray(center_mhz, dtype=float)
    out = linewidth / (detuning**2 + linewidth**2)
    return float(out) if out.ndim == 0 else out


def lorentzian_rates(device: DeviceFrequencies, coupling, linewidth, freqs, background,
                     f_multiplier: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The forward model: (gamma_10, gamma_21) for defect frequencies of shape (order, ...).

    ``coupling`` and ``linewidth`` hold one value per defect and
    ``background`` is the (gamma_10, gamma_21) floor.  Starting from the
    floor, each defect in turn adds B*gamma/(Delta^2 + gamma^2) with Delta its
    detuning from omega_01 (gamma_10) or omega_12 (gamma_21); the gamma_21
    term is scaled by ``f_multiplier`` (2.0 models the larger matrix element
    of the upper transition).  No validation or conversion: the tracker calls
    this in its innermost loops.
    """
    g10 = np.full(freqs.shape[1:], background[0], dtype=float)
    g21 = np.full(freqs.shape[1:], background[1], dtype=float)
    for n in range(freqs.shape[0]):
        de = device.omega_01 - freqs[n]
        df = device.omega_12 - freqs[n]
        g10 = g10 + coupling[n] * linewidth[n] / (de**2 + linewidth[n] ** 2)
        g21 = g21 + f_multiplier * coupling[n] * linewidth[n] / (df**2 + linewidth[n] ** 2)
    return g10, g21


def rate_series(
    tls: TlsParameterSet, device: DeviceFrequencies, f_multiplier: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch (gamma_10, gamma_21) arrays over all epochs, with the set's own floor."""
    bg = tls.background
    return lorentzian_rates(
        device,
        np.array([d.coupling_weight for d in tls.defects]),
        np.array([d.linewidth_mhz for d in tls.defects]),
        np.array([d.trajectory_mhz for d in tls.defects]).reshape(len(tls), tls.n_epochs),
        (bg.gamma_10, bg.gamma_21),
        f_multiplier,
    )
