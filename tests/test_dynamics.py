import ast
import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from tlstrack.dynamics import (
    DecayRates,
    PopulationTrace,
    TraceStack,
    _TRACE_COLUMNS,
    _Column,
    _int64,
    _read_csv,
    _read_json,
    _write_csv,
    _write_json,
    closed_form_populations,
    closed_form_trace,
    read_traces,
)
import tlstrack
from tlstrack.errors import InvalidParameterError, ScenarioSchemaError
from tlstrack.readout import ConfusionMatrix, mitigate_stack, mitigate_trace

DEVICE_A = DecayRates(1.0 / 155.0, 1.0 / 64.0)


def ode_oracle(rates, t):
    """The cascade from |2> integrated by scipy's 8th-order Runge-Kutta to
    the delays ``t``, rows (p0, p1, p2): a reference independent of the
    closed form."""
    g10, g21 = rates.gamma_10, rates.gamma_21
    a = np.array([[0.0, g10, 0.0], [0.0, -g10, g21], [0.0, 0.0, -g21]])
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sol = solve_ivp(lambda _t, p: a @ p, (0.0, float(t[-1])), [0.0, 0.0, 1.0],
                    method="DOP853", t_eval=t, rtol=1e-12, atol=1e-14)
    return sol.y


class TestClosedForm:
    def test_initial_condition(self):
        p = closed_form_populations(DEVICE_A, 0.0)
        assert tuple(p) == (0.0, 0.0, 1.0)

    def test_device_a_at_t1f(self):
        # p2 after one T1f is exactly 1/e; p1/p0 cross-checked against an
        # independent integration of the rate equations
        p = closed_form_populations(DEVICE_A, 64.0)
        assert p[2] == pytest.approx(np.exp(-1.0), abs=1e-12)
        ref = ode_oracle(DEVICE_A, 64.0)[:, -1]
        assert p[0] == pytest.approx(ref[0], abs=1e-10)
        assert p[1] == pytest.approx(ref[1], abs=1e-10)
        # frozen oracle values
        assert p[0] == pytest.approx(0.13161214266110, abs=1e-11)
        assert p[1] == pytest.approx(0.50050841616744, abs=1e-11)

    def test_degenerate_limit(self):
        rates = DecayRates(0.01, 0.01)
        p = closed_form_populations(rates, 100.0)
        assert p[1] == pytest.approx(np.exp(-1.0), rel=1e-9)
        ref = ode_oracle(DecayRates(0.01, 0.01 * (1 + 1e-12)), 100.0)[:, -1]
        assert p[1] == pytest.approx(ref[1], abs=1e-9)

    def test_branch_continuity(self):
        # populations must agree on both sides of a 1e-9 relative rate gap
        g = 0.01
        for t in (1.0, 50.0, 150.0, 400.0):
            below = closed_form_populations(DecayRates(g, g * (1 + 0.999e-9)), t)
            above = closed_form_populations(DecayRates(g, g * (1 + 1.001e-9)), t)
            assert np.max(np.abs(below - above)) < 1e-7

    @pytest.mark.parametrize("rel", [s * r for r in np.geomspace(1e-9, 1e-3, 7).tolist()
                                     for s in (1.0, -1.0)])
    @pytest.mark.parametrize("g10", [1e-3, 1.0])
    def test_near_degenerate_p1_matches_expm1_form(self, g10, rel):
        # p1 = g21*e1*(1 - e^-x)/d with d = g21 - g10 and x = d*t: expm1
        # keeps the difference of the two exponentials exact as d -> 0
        g21 = g10 * (1.0 + rel)
        t = np.geomspace(1e-3, 30.0, 60) / g10
        d = g21 - g10
        want = g21 * np.exp(-g10 * t) * -np.expm1(-d * t) / d
        got = closed_form_populations(DecayRates(g10, g21), t)[1]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("ratio", np.geomspace(0.2, 20, 10).tolist())
    def test_normalization_sweep(self, ratio):
        rates = DecayRates(0.01, 0.01 * ratio)
        t = np.linspace(0.0, 10.0 * max(rates.t1e, rates.t1f), 200)
        p = closed_form_populations(rates, t)
        assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-9
        assert np.all(p >= -1e-9) and np.all(p <= 1.0 + 1e-9)

    def test_monotonicity_and_p1_peak(self):
        g10, g21 = DEVICE_A.gamma_10, DEVICE_A.gamma_21
        t_star = np.log(g21 / g10) / (g21 - g10)
        t = np.linspace(0.0, 5 * 155.0, 400)
        p = closed_form_populations(DEVICE_A, t)
        assert np.all(np.diff(p[2]) < 0.0)
        assert np.all(np.diff(p[0]) > 0.0)
        # derivative sign change brackets the interior maximum of p1
        eps = 1e-3
        left = closed_form_populations(DEVICE_A, [t_star - eps, t_star, t_star + eps])[1]
        assert left[1] > left[0] and left[1] > left[2]

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            closed_form_populations(DecayRates(0.0, 0.1), 1.0)
        with pytest.raises(InvalidParameterError):
            closed_form_populations(DEVICE_A, -1.0)
        with pytest.raises(InvalidParameterError):
            DecayRates(float("nan"), 0.1)
        with pytest.raises(InvalidParameterError):
            DecayRates(-0.1, 0.1)


class TestIntegrator:
    def test_matches_closed_form(self):
        delays = np.linspace(0.5, 5 * 155.0, 40)
        ref = closed_form_populations(DEVICE_A, delays)
        assert np.max(np.abs(ode_oracle(DEVICE_A, delays) - ref)) <= 1e-8


class TestTraceSerialization:
    def make_trace(self, shots=True):
        delays = np.geomspace(1.0, 600.0, 12)
        p = closed_form_populations(DEVICE_A, delays).T
        return PopulationTrace(delays, p, np.full(12, 2000) if shots else None)

    def test_csv_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = PopulationTrace.from_csv(path)
        assert np.array_equal(back.delays, trace.delays)
        assert np.array_equal(back.populations, trace.populations)
        assert np.array_equal(back.shots, trace.shots)

    def test_csv_without_shots(self, tmp_path):
        trace = self.make_trace(shots=False)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert PopulationTrace.from_csv(path).shots is None

    @pytest.mark.parametrize("shots", [True, False])
    def test_trace_bytes_of_csv_writer(self, tmp_path, shots):
        trace = self.make_trace(shots)
        trace.to_csv(tmp_path / "trace.csv")
        rows = [[repr(float(t)), *map(repr, p.tolist()), int(n) if shots else ""]
                for t, p, n in zip(trace.delays, trace.populations, np.full(12, 2000))]
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(
            ["delay_us", "p0", "p1", "p2", "shots"], rows)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PopulationTrace(np.array([2.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(InvalidParameterError):
            PopulationTrace(np.array([-1.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(InvalidParameterError):
            PopulationTrace(np.array([0.0, 1.0]), np.zeros((3, 3)))
        with pytest.raises(InvalidParameterError):
            PopulationTrace(np.array([0.0, 1.0]), np.zeros((2, 3)), np.array([0, 5]))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
INT64 = st.integers(-2**63, 2**63 - 1)


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(FINITE | st.integers() | st.none(), min_size=2, max_size=2),
                    max_size=20).map(lambda rows: [tuple(r) for r in rows]))
    @example([(-0.0, 5e-324), (1e308, -1e308), (None, 3), (2, None), (None, None),
              (0.1, -2**70)])
    def test_bytes_of_csv_writer(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        _write_csv(path, ["a", "b"], rows)
        assert path.read_bytes() == csv_writer_bytes(["a", "b"], rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        st.lists(FINITE, min_size=n, max_size=n),
        st.lists(INT64, min_size=n, max_size=n),
        st.none() | st.lists(FINITE, min_size=n, max_size=n))))
    @example(([-0.0, 5e-324, 1e308], [0, -2**63, 2**63 - 1], None))
    def test_reads_back_through_read_csv(self, tmp_path_factory, columns):
        x, k, opt = columns
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        _write_csv(path, ["x", "k", "opt"], zip(x, k, [None] * len(x) if opt is None else opt))
        spec = [_Column("x"), _Column("k", _int64, expected="an integer"),
                _Column("opt", required=False)]
        got_x, got_k, got_opt = _read_csv(path, spec, lambda *cols: cols)
        assert np.asarray(x).tobytes() == got_x.tobytes()    # -0.0 keeps its sign
        assert got_k.tolist() == k
        if opt is None:
            assert got_opt is None
        else:
            assert np.asarray(opt).tobytes() == got_opt.tobytes()


# a trace: up to 7 rows of increasing delays from >= 0, populations in
# [0, 1] (which mitigation never clips to zero) and, if drawn, shot counts
TRACES = st.integers(0, 7).flatmap(lambda n: st.builds(
    lambda steps, p, shots: PopulationTrace(np.cumsum(steps), np.reshape(p, (n, 3)), shots),
    st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1.0), min_size=3 * n, max_size=3 * n),
    st.none() | st.lists(st.integers(1, 2**40), min_size=n, max_size=n)))

# damage to a trace file's lines (header first); a line index past the
# rows falls on the last line
_TRACE_DAMAGE = [
    lambda lines, r: lines[:r] + [lines[r].replace(",", ",abc,", 1)] + lines[r + 1:],
    lambda lines, r: lines[:r] + ["nan" + lines[r][lines[r].index(","):]] + lines[r + 1:],
    lambda lines, r: lines[:r] + [lines[r - 1].split(",")[0] + lines[r][lines[r].index(","):]]
    + lines[r + 1:],
    lambda lines, r: lines[:1] + ["-1" + lines[1][lines[1].index(","):]] + lines[2:],
    lambda lines, r: lines[:r] + [lines[r].rsplit(",", 1)[0] + ",0"] + lines[r + 1:],
    lambda lines, r: lines[:r] + [lines[r].rsplit(",", 1)[0] + ","] + lines[r + 1:],
    lambda lines, r: lines[:r] + [lines[r].rsplit(",", 1)[0] + ",2.5"] + lines[r + 1:],
    lambda lines, r: lines[:r] + [",".join(lines[r].split(",")[:2])] + lines[r + 1:],
    lambda lines, r: [lines[0].replace("p2", "p3")] + lines[1:],
    lambda lines, r: [line + "," + line.split(",")[1] for line in lines],
    lambda lines, r: [],
    lambda lines, r: lines[:1],
    lambda lines, r: [",".join(line.split(",")[:4]) for line in lines],
]


def per_file_read(path) -> PopulationTrace:
    """The trace in ``path`` read by the per-file reader on its own."""
    return _read_csv(path, _TRACE_COLUMNS, lambda t, p0, p1, p2, shots: PopulationTrace(
        t, np.column_stack([p0, p1, p2]), shots))


class TestReadTraces:
    @settings(max_examples=100, deadline=None)
    @given(traces=st.lists(TRACES, max_size=5), data=st.data())
    def test_matches_per_file_read_and_mitigation(self, tmp_path_factory, traces, data):
        root = tmp_path_factory.mktemp("traces")
        paths = [root / f"epoch_{i:04d}.csv" for i in range(len(traces))]
        for trace, path in zip(traces, paths):
            trace.to_csv(path)
        m = np.eye(3) + data.draw(st.floats(0.0, 0.2)) * np.array(
            [[-2, 1, 0], [1, -1, 1], [1, 0, -1]]) / 2.0
        confusion = ConfusionMatrix(m / m.sum(axis=0))
        stack = read_traces(paths)
        mitigated = mitigate_stack(confusion, stack)
        assert stack.lengths.tolist() == [len(t) for t in traces]
        for i, (trace, path) in enumerate(zip(traces, paths)):
            expected = per_file_read(path)
            for got in (stack.trace(i), mitigated.trace(i), PopulationTrace.from_csv(path)):
                assert got.delays.tobytes() == expected.delays.tobytes() == trace.delays.tobytes()
                if len(trace):
                    assert got.shots is None if trace.shots is None else \
                        got.shots.tolist() == expected.shots.tolist() == trace.shots.tolist()
            assert stack.trace(i).populations.tobytes() == expected.populations.tobytes() \
                == trace.populations.tobytes()
            assert (mitigated.trace(i).populations.tobytes()
                    == mitigate_trace(confusion, expected).populations.tobytes())

    @settings(max_examples=150, deadline=None)
    @given(damage=st.lists(st.none() | st.tuples(st.integers(0, len(_TRACE_DAMAGE) - 1),
                                                 st.integers(1, 6)), min_size=1, max_size=5))
    def test_first_faulty_file_raises_its_per_file_error(self, tmp_path_factory, damage):
        root = tmp_path_factory.mktemp("traces")
        delays = np.geomspace(1.0, 600.0, 6)
        trace = PopulationTrace(delays, closed_form_populations(DEVICE_A, delays).T,
                                np.full(6, 2000))
        paths = [root / f"epoch_{i:04d}.csv" for i in range(len(damage))]
        for path, hurt in zip(paths, damage):
            trace.to_csv(path)
            if hurt is not None:
                kind, row = hurt
                lines = _TRACE_DAMAGE[kind](path.read_text().splitlines(), row)
                path.write_text("".join(line + "\n" for line in lines))
        expected = None
        for path in paths:
            try:
                per_file_read(path)
            except InvalidParameterError as err:
                expected = str(err)
                break
        if expected is None:
            stack = read_traces(paths)
            assert np.array_equal(stack.lengths, [len(per_file_read(p)) for p in paths])
        else:
            # the stack of all files, and the first faulty file on its own
            for read in (lambda: read_traces(paths), lambda: PopulationTrace.from_csv(path)):
                with pytest.raises(InvalidParameterError) as info:
                    read()
                assert str(info.value) == expected

    def test_mitigation_fault_names_the_first_faulty_trace(self):
        delays = np.arange(1.0, 4.0)
        good = PopulationTrace(delays, np.full((3, 3), 1 / 3))
        # clipped to zero in trace 1, not finite in trace 2; a check of all
        # rows at once would name trace 2's row first
        negative = PopulationTrace(delays, [[0.3, 0.3, 0.4], [0.2, 0.2, 0.6], [-1, -1, -1]])
        infinite = PopulationTrace(delays, [[np.inf, 0.0, 0.0]] * 3)
        infinite.populations[0] = 0.0
        stack = TraceStack.from_traces([good, negative, infinite])
        confusion = ConfusionMatrix(np.full((3, 3), 0.05) + 0.85 * np.eye(3))
        with pytest.raises(InvalidParameterError, match="clipped to zero"):
            mitigate_trace(confusion, negative)
        with pytest.raises(InvalidParameterError, match="clipped to zero"):
            mitigate_stack(confusion, stack)


def test_closed_form_trace_helper():
    delays = np.geomspace(1.0, 100.0, 8)
    trace = closed_form_trace(DEVICE_A, delays)
    assert len(trace) == 8
    p = trace.populations[0]
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all((p >= 0.0) & (p <= 1.0))


class TestReadJson:
    """``_read_json`` is the package's one reader of JSON files."""

    def test_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5]}')
        assert _read_json(path) == {"a": [1, 2.5]}

    @pytest.mark.parametrize("content, message", [
        (b'{"a": 1,', "not valid JSON: "),
        (b'\xff{}', "not valid JSON: "),
        (b"1" * 5001, "not valid JSON: Exceeds the limit"),
        (b"[" * 100000 + b"]" * 100000, "not valid JSON: maximum recursion depth exceeded"),
        (b"[]", "expected a JSON object"),
        (b"null", "expected a JSON object"),
    ])
    def test_anything_else_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioSchemaError) as exc:
            _read_json(path)
        assert exc.value.field_path == str(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_no_other_json_parser_in_the_package(self):
        # every line of the package that names json.load or json.loads lies
        # in _read_json, and nothing imports from json directly
        source = Path(tlstrack.__file__).parent
        tree = ast.parse((source / "dynamics.py").read_text(encoding="utf-8"))
        reader = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "_read_json")
        hits = []
        for path in sorted(source.glob("*.py")):
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if re.search(r"json\.loads?\b|from\s+json\s+import", line):
                    hits.append((path.name, number))
        assert hits and all(name == "dynamics.py" and reader.lineno <= number <= reader.end_lineno
                            for name, number in hits), hits


class TestWriteJson:
    """``_write_json`` is the package's one writer of JSON files, and
    ``_write_csv`` its one writer of CSV files."""

    def test_bytes_of_json_dumps(self, tmp_path):
        doc = {"a": [1, 2.5, -0.0, 1e300, 5e-324], "b": {"c": None, "d": True, "\u00e9": "\u00fc"}}
        path = tmp_path / "doc.json"
        _write_json(path, doc)
        assert path.read_bytes() == json.dumps(doc, indent=1).encode("ascii")
        assert _read_json(path) == doc

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_names_the_file_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(InvalidParameterError) as exc:
            _write_json(path, {"fits": [{"t1e_us": 1.0}, {"t1e_us": value}]})
        assert str(exc.value).startswith(f"{path}: Out of range float values are not JSON")
        assert not path.exists()

    def test_no_other_writer_in_the_package(self):
        # every line that names json.dump or json.dumps lies in _write_json,
        # every open() in a write mode lies in _write_json or _write_csv, and
        # only dynamics imports json
        source = Path(tlstrack.__file__).parent
        tree = ast.parse((source / "dynamics.py").read_text(encoding="utf-8"))
        writers = {node.name: range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ("_write_json", "_write_csv")}

        def writer(name, number):
            return next((w for w, span in writers.items()
                         if name == "dynamics.py" and number in span), None)

        dumps, opens, imports = [], [], []
        for path in sorted(source.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                if re.search(r"json\.dumps?\b", line):
                    dumps.append(writer(path.name, number))
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [node.module] if isinstance(node, ast.ImportFrom) else \
                        [alias.name for alias in node.names]
                    imports += [path.name for name in names if name == "json"]
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name in ("write_text", "write_bytes"):
                        opens.append(None)
                    elif name == "open":
                        # builtin open(file, mode) or Path.open(mode); a mode
                        # that is not a literal counts as a write
                        args = node.args[1:] if isinstance(func, ast.Name) else node.args
                        mode = next((k.value for k in node.keywords if k.arg == "mode"),
                                    args[0] if args else ast.Constant("r"))
                        if not (isinstance(mode, ast.Constant)
                                and not set("wax+") & set(mode.value)):
                            opens.append(writer(path.name, node.lineno))
        assert dumps == ["_write_json"]
        assert sorted(opens, key=str) == ["_write_csv", "_write_json"]
        assert imports == ["dynamics.py"]
