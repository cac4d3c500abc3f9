"""Three-level cascade decay: closed-form populations, trace files, and the
package's one CSV writer and one JSON reader, writer and set of field checks.

The model is the rate-equation cascade |2> -> |1> -> |0> with decay rates
``gamma_21`` and ``gamma_10`` (units 1/us).  Times are microseconds
throughout; rates are 1/us.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, ScenarioSchemaError


@dataclass(frozen=True)
class DecayRates:
    """Downward transition rates (1/us) for the three-level cascade.

    ``gamma_10`` is the |1> -> |0> rate, ``gamma_21`` the |2> -> |1> rate.
    Zero entries are permitted so the type can double as an additive
    background floor; the dynamics operations themselves require strictly
    positive rates and raise ``InvalidParameterError`` otherwise.
    """

    gamma_10: float
    gamma_21: float

    def __post_init__(self):
        for name in ("gamma_10", "gamma_21"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise InvalidParameterError(f"{name} must be finite and >= 0, got {v!r}")

    @property
    def t1e(self) -> float:
        """Lifetime of |1> in us."""
        return 1.0 / self.gamma_10

    @property
    def t1f(self) -> float:
        """Lifetime of |2> in us."""
        return 1.0 / self.gamma_21

    def require_positive(self) -> "DecayRates":
        if self.gamma_10 <= 0.0 or self.gamma_21 <= 0.0:
            raise InvalidParameterError(
                f"decay rates must be strictly positive, got ({self.gamma_10}, {self.gamma_21})"
            )
        return self


ZERO_RATES = DecayRates(0.0, 0.0)


def _background_from_doc(doc: dict) -> DecayRates:
    """The floor at key ``background`` of ``doc``, an object whose ``gamma10``
    and ``gamma21`` are each 0 where absent; a fault names ``background``."""
    bg = _need(doc, "background", "", {})
    try:
        return DecayRates(_number(bg, "gamma10", "background", 0.0),
                          _number(bg, "gamma21", "background", 0.0))
    except InvalidParameterError as err:
        raise ScenarioSchemaError("background", str(err)) from None


def _background_doc(floor: DecayRates) -> dict:
    """The JSON object :func:`_background_from_doc` reads back as ``floor``."""
    return {"gamma10": floor.gamma_10, "gamma21": floor.gamma_21}


@dataclass
class PopulationTrace:
    """Populations of the three levels versus delay time.

    ``delays`` (us) must be strictly increasing with a non-negative first
    entry.  ``populations`` has shape (n, 3) with rows (p0, p1, p2).
    ``shots`` optionally gives the per-point shot count.
    """

    delays: np.ndarray
    populations: np.ndarray
    shots: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        if self.delays.ndim != 1:
            raise InvalidParameterError("delays must be a 1-D sequence")
        if self.populations.shape != (self.delays.size, 3):
            raise InvalidParameterError(
                f"populations shape {self.populations.shape} does not match "
                f"{self.delays.size} delays"
            )
        if self.delays.size and self.delays[0] < 0.0:
            raise InvalidParameterError("first delay must be >= 0")
        if np.any(np.diff(self.delays) <= 0.0):
            raise InvalidParameterError("delays must be strictly increasing")
        if self.shots is not None:
            self.shots = np.asarray(self.shots, dtype=int)
            if self.shots.shape != self.delays.shape:
                raise InvalidParameterError("shots must match delays in length")
            if np.any(self.shots < 1):
                raise InvalidParameterError("shot counts must be positive")

    def __len__(self) -> int:
        return int(self.delays.size)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        shots = [None] * len(self) if self.shots is None else self.shots.tolist()
        _write_csv(path, ["delay_us", "p0", "p1", "p2", "shots"],
                   zip(self.delays.tolist(), *self.populations.T.tolist(), shots))

    @classmethod
    def from_csv(cls, path) -> "PopulationTrace":
        """Read a trace written by :meth:`to_csv`: :func:`read_traces` of
        the one file.

        ``delay_us``, ``p0``, ``p1`` and ``p2`` must be finite numbers; the
        ``shots`` column is optional, and where present every row gives an
        integer or every row leaves it blank.
        """
        return read_traces([path]).trace(0)


class TraceStack(NamedTuple):
    """A run's traces stacked row by row, in trace order.

    ``delays`` (m,), ``populations`` (m, 3) and ``shots`` (m,) hold the
    rows of every trace, and ``lengths`` (k,) the number of rows of each.
    ``shots`` is 0 on every row of a trace without shot counts, since a
    count is at least 1.  Traces of equal length n are the (k, n) and
    (k, n, 3) arrays of these rows, reshaped.
    """

    delays: np.ndarray
    populations: np.ndarray
    shots: np.ndarray
    lengths: np.ndarray

    @classmethod
    def from_traces(cls, traces: Sequence[PopulationTrace]) -> "TraceStack":
        traces = list(traces)
        return cls(
            np.concatenate([np.empty(0), *(t.delays for t in traces)]),
            np.concatenate([np.empty((0, 3)), *(t.populations for t in traces)]),
            np.concatenate([np.empty(0, dtype=np.int64), *(
                np.zeros(len(t), dtype=np.int64) if t.shots is None else t.shots
                for t in traces)]),
            np.array([len(t) for t in traces], dtype=np.intp),
        )

    @property
    def starts(self) -> np.ndarray:
        """The first row of each trace."""
        return np.cumsum(self.lengths) - self.lengths

    def trace(self, i: int) -> PopulationTrace:
        """Trace ``i``; its arrays are views of the stack's."""
        start, stop = int(self.starts[i]), int(self.starts[i] + self.lengths[i])
        shots = self.shots[start:stop]
        return PopulationTrace(self.delays[start:stop], self.populations[start:stop],
                               shots if shots.any() else None)


def _int64(text: str) -> int:
    """``int(text)``, raising ``ValueError`` outside int64 too."""
    n = int(text)
    if not -2**63 <= n < 2**63:
        raise ValueError(f"{text!r} is outside int64")
    return n


class _Column(NamedTuple):
    """How :func:`_read_csv` reads one column.

    ``parse`` turns a cell's text into a number and raises ``ValueError``
    if it cannot; ``ok`` maps the parsed column to a mask of acceptable
    values.  ``expected`` describes an acceptable cell; ``{prev!r}`` in it
    stands for the previous row's value (``-inf`` on the first row).  An
    optional column may be absent or blank on every row, and then reads as
    ``None``.
    """

    name: str
    parse: Callable[[str], float] = float
    ok: Callable[[np.ndarray], np.ndarray] = np.isfinite
    expected: str = "a finite number"
    required: bool = True


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows`` to a CSV file in one call, in the bytes
    of ``csv.writer``: a float cell as its ``repr``, an int cell as its
    ``str``, a ``None`` cell blank, and ``\\r\\n`` after every line.

    The cells are Python numbers (an array's ``tolist()``), whose text
    needs no quoting, and every row has at least two.  What it writes
    reads back unchanged through :func:`_read_csv`.
    """
    lines = [",".join(header)]
    lines += [",".join(["" if v is None else repr(v) for v in row]) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _read_json(path) -> dict:
    """The JSON object in ``path``.  Anything else raises
    ``ScenarioSchemaError`` with the file as its field path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # bad JSON or UTF-8, an int past Python's digit limit, or nesting past the
    # recursion limit
    except (ValueError, RecursionError) as err:
        raise ScenarioSchemaError(str(path), f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ScenarioSchemaError(str(path), "expected a JSON object")
    return doc


def _write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as UTF-8 JSON with ``indent=1``, in one call.
    A NaN or an infinity, which JSON cannot hold, raises
    ``InvalidParameterError`` naming the file, and nothing is written."""
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as err:
        raise InvalidParameterError(f"{path}: {err}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json_as(path, build):
    """``build`` of the JSON object in ``path``.  Any fault, of the file or
    of ``build``, raises ``ScenarioSchemaError`` that starts with the file."""
    doc = _read_json(path)
    try:
        return build(doc)
    except (InvalidParameterError, ScenarioSchemaError) as err:
        raise ScenarioSchemaError(str(path), str(err)) from None


# -- JSON field checks, for every JSON document the package reads ------------
#
# A fault raises ScenarioSchemaError naming its field path, e.g.
# ``tls[0].drift.seed`` or ``tracker.coupling_bounds``.

_REQUIRED = object()


def _need(doc: dict, key: str, path: str, default=_REQUIRED):
    """``doc[key]``; ``default`` if the key is absent and one is given."""
    if not isinstance(doc, dict):
        raise ScenarioSchemaError(path, f"expected an object, got {doc!r}")
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise ScenarioSchemaError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _check(v, path: str, ok, expected: str):
    """``v``, which ``ok`` must accept; ``expected`` says what it accepts."""
    if not ok(v):
        raise ScenarioSchemaError(path, f"expected {expected}, got {v!r}")
    return v


def _field(doc: dict, key: str, path: str, default, ok, expected: str):
    """:func:`_need`'s value, checked by :func:`_check`."""
    return _check(_need(doc, key, path, default), f"{path}.{key}" if path else key, ok, expected)


def _finite(v) -> bool:
    """Whether a JSON value is a finite number."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


def _number(doc: dict, key: str, path: str, default=_REQUIRED) -> float:
    return float(_field(doc, key, path, default, _finite, "a finite number"))


def _integer(doc: dict, key: str, path: str, default=_REQUIRED, minimum=None,
             maximum=None) -> int:
    limits = " and ".join(f"{op} {v}" for op, v in ((">=", minimum), ("<=", maximum))
                          if v is not None)
    return _field(doc, key, path, default,
                  lambda v: (type(v) is int and (minimum is None or v >= minimum)
                             and (maximum is None or v <= maximum)),
                  f"an integer {limits}".rstrip())


def _boolean(doc: dict, key: str, path: str, default=_REQUIRED) -> bool:
    return _field(doc, key, path, default, lambda v: type(v) is bool, "true or false")


def _pair(doc: dict, key: str, path: str) -> tuple[float, float]:
    v = _field(doc, key, path, _REQUIRED,
               lambda v: type(v) is list and len(v) == 2 and all(map(_finite, v)),
               "two finite numbers")
    return float(v[0]), float(v[1])


def _number_array(value, path: str) -> np.ndarray:
    """Nested JSON lists of finite numbers as a float array; a bad entry is
    named by its index path, e.g. ``blobs.means[1][0]``."""
    def check(v, p):
        if isinstance(v, list):
            for i, item in enumerate(v):
                check(item, f"{p}[{i}]")
        else:
            _check(v, p, _finite, "a finite number")

    check(value, path)
    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ScenarioSchemaError(path, "expected a rectangular array") from None


def _read_csv(path, columns: Sequence[_Column], build):
    """``build`` called with one array (or ``None``) per column of a CSV file.

    Blank lines are skipped and other columns ignored.  A line the csv
    module cannot split, a required column that is missing, a column named
    twice in the header, a cell that does not parse or is not ``ok`` (a
    short row reads as blank cells), or a blank cell of an optional column
    that other rows fill raises ``InvalidParameterError`` naming the file,
    the line and the column: the first such fault in reading order, row by
    row and in ``columns`` order within a row.  So does an
    ``InvalidParameterError`` of ``build``, prefixed with the file.
    """
    lines, cells = _csv_cells(path, columns)
    values, bad = [], []
    for j, (col, texts) in enumerate(zip(columns, cells)):
        v = None if texts is None else _parse_column(col, texts)
        values.append(v)
        if v is None:
            continue
        ok = col.ok(v)
        if not ok.all():
            k = int(np.argmin(ok))
            if col.required or texts[k]:
                prev = float(v[k - 1]) if k else -math.inf
                message = (f"column {col.name!r}: expected "
                           f"{col.expected.format(prev=prev)}, got {texts[k]!r}")
            else:
                # a partly blank optional column would silently drop it
                message = f"{col.name} is blank but other rows have it"
            bad.append((k, j, message))
    if bad:
        k, _, message = min(bad)
        raise InvalidParameterError(f"{path}: line {lines[k]}: {message}")
    try:
        return build(*values)
    except InvalidParameterError as err:
        raise InvalidParameterError(f"{path}: {err}") from None


def _csv_cells(path, columns: Sequence[_Column]):
    """The line number of each row of a CSV file and, per column, the texts
    of its cells, or ``None`` for an optional column that is absent or blank
    on every row.  Raises :func:`_read_csv`'s faults of the header and of
    lines the csv module cannot split."""
    # bytes that are not UTF-8 read as U+FFFD, so such a cell is not a number
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = [(reader.line_num, *row) for row in reader if row]
        except csv.Error as err:     # a cell over the csv module's field limit
            raise InvalidParameterError(f"{path}: line {reader.line_num}: {err}") from None
    # the line numbers, then the columns that every row reaches
    table = list(zip(*rows))
    cells = []
    for col in columns:
        if header.count(col.name) > 1:
            raise InvalidParameterError(f"{path}: line 1: repeated column {col.name!r}")
        if col.name not in header:
            if col.required:
                raise InvalidParameterError(f"{path}: line 1: missing column {col.name!r}")
            cells.append(None)
            continue
        i = header.index(col.name) + 1
        texts = table[i] if i < len(table) else [row[i] if i < len(row) else "" for row in rows]
        cells.append(texts if col.required or any(texts) else None)
    return (table[0] if table else ()), cells


def _parse_column(col: _Column, texts) -> np.ndarray:
    """``col.parse`` of every cell, NaN where it fails."""
    try:
        return np.array(list(map(col.parse, texts)))
    except ValueError:
        return np.array([_parsed(col.parse, text) for text in texts], dtype=float)


#: The columns of a trace file.
_TRACE_COLUMNS = [_Column(name) for name in ("delay_us", "p0", "p1", "p2")] + [
    _Column("shots", _int64, expected="an integer", required=False)]


def read_traces(paths) -> TraceStack:
    """The trace files ``paths``, stacked in order.

    Each file is parsed to numbers as it is read, and the checks of
    :func:`_read_csv` and of :class:`PopulationTrace` run once over the
    whole stack; a row is compared only with rows of its own file.  If any
    file is faulty, the first faulty one in order raises what
    :func:`_read_csv` raises for it, naming the file, line and column.
    """
    paths = list(paths)
    parts, has_shots = [], []
    for path in paths:
        try:
            _, cells = _csv_cells(path, _TRACE_COLUMNS)
        except InvalidParameterError:
            break
        # only shots may be None, and reads as 0 on every row
        parts.append([np.zeros(len(cells[0]), dtype=np.int64) if texts is None
                      else _parse_column(col, texts) for col, texts in zip(_TRACE_COLUMNS, cells)])
        has_shots.append(cells[-1] is not None)
    columns = ([np.concatenate(part) for part in zip(*parts)]
               or [np.empty(0)] * 4 + [np.empty(0, dtype=np.int64)])
    lengths = np.array([len(part[0]) for part in parts], dtype=np.intp)
    stack = TraceStack(columns[0], np.column_stack(columns[1:4]), columns[4], lengths)
    # the checks of _read_csv and of PopulationTrace, row by row; a shots
    # column that failed to parse holds NaN, and then also fails them
    bad = ~np.all([col.ok(v) for col, v in zip(_TRACE_COLUMNS, columns)], axis=0)
    bad |= np.repeat(np.array(has_shots, dtype=bool), lengths) & ~(stack.shots >= 1)
    first = stack.starts[lengths > 0]
    rising = np.append(-np.inf, stack.delays[:-1]) < stack.delays
    rising[first] = stack.delays[first] >= 0.0
    bad |= ~rising
    faulty = np.unique(np.repeat(np.arange(len(parts)), lengths)[bad]).tolist()
    if len(parts) < len(paths):
        faulty.append(len(parts))     # a file whose header or lines did not read
    for i in faulty:
        # the per-file reader names the fault
        _read_csv(paths[i], _TRACE_COLUMNS, lambda t, p0, p1, p2, shots: PopulationTrace(
            t, np.column_stack([p0, p1, p2]), shots))
    return stack


def _parsed(parse, text: str) -> float:
    try:
        return parse(text)
    except ValueError:
        return math.nan


# -- forward models -------------------------------------------------------


#: |x| = |gamma_21 - gamma_10|*t below which p1 and its derivatives come from
#: Taylor series in x.  Above it the difference quotients lose about
#: 2e-16/x^2 relative to cancellation; below it the series' truncation
#: error is under 1e-17 relative.
_SERIES_X = 0.1
_SERIES_TERMS = range(10)
#: Coefficients, highest power first, of phi(x) = (1 - e^-x)/x and of phi'(x).
_PHI = [(-1.0) ** k / math.factorial(k + 1) for k in reversed(_SERIES_TERMS)]
_DPHI = [(-1.0) ** (k + 1) * (k + 1) / math.factorial(k + 2) for k in reversed(_SERIES_TERMS)]


def _cascade(g10, g21, t, jacobian: bool = False):
    """Closed-form cascade populations (p0, p1, p2) from |2>, elementwise.

    ``g10``, ``g21`` and ``t`` broadcast against each other and are not
    validated.  Writing p1 = g21*q with q = (e1 - e2)/d, e1 = exp(-g10*t),
    e2 = exp(-g21*t), d = g21 - g10 and x = d*t, the difference quotient
    loses about 2e-16/|x| relative to cancellation as the rates approach
    each other.  For |x| below ``_SERIES_X``, a band that contains the
    degenerate limit d = 0, q is t*e1*phi with phi(x) = (1 - e^-x)/x from
    its Taylor series instead, which stays exact as d -> 0.  With
    ``jacobian`` the result is ``(p, dp/dg10, dp/dg21)``, each a 3-tuple;
    the derivatives of q are (q - t*e1)/d and (t*e2 - q)/d, and in the
    series band -t^2*e1*(phi + phi') and t^2*e1*phi'.
    """
    d = g21 - g10
    x = d * t
    e1, p2 = np.exp(-g10 * t), np.exp(-g21 * t)
    series = np.abs(x) < _SERIES_X
    phi = np.polyval(_PHI, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(series, t * e1 * phi, (e1 - p2) / d)
    p1 = g21 * q
    p = (1.0 - p1 - p2, p1, p2)
    if not jacobian:
        return p
    dphi = np.polyval(_DPHI, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        dq10 = np.where(series, -t * t * e1 * (phi + dphi), (q - t * e1) / d)
        dq21 = np.where(series, t * t * e1 * dphi, (t * p2 - q) / d)
    d10 = (-g21 * dq10, g21 * dq10, np.zeros_like(p2))
    d21 = (t * p2 - q - g21 * dq21, q + g21 * dq21, -t * p2)
    return p, d10, d21


def closed_form_populations(rates: DecayRates, t) -> np.ndarray:
    """Analytic populations for initial state |2>, vectorized over ``t``.

    Returns an array of shape (3,) + shape(t) with rows (p0, p1, p2).  The
    P1 solution carries the gamma_21 prefactor required for the three
    components to stay normalized; where the two rates are close it comes
    from a Taylor series rather than the difference of exponentials, so it
    stays accurate to rounding through the degenerate limit (see
    :func:`_cascade`).
    """
    rates.require_positive()
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise InvalidParameterError("delay times must be finite and >= 0")
    return np.stack(_cascade(rates.gamma_10, rates.gamma_21, t))


def closed_form_trace(rates: DecayRates, delays) -> PopulationTrace:
    """Closed-form populations evaluated on a delay grid."""
    delays = np.asarray(delays, dtype=float)
    p = closed_form_populations(rates, delays)
    return PopulationTrace(delays, p.T)
