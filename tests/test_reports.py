"""Report containers and the ring-trend classifier."""

import json

import numpy as np
import pytest

from bergman_lab import CriterionReport, band, classify_ring_trend, ring_slope
from bergman_lab.reports import profile_csv


class TestBand:
    def test_plain(self):
        assert band([3.0, 1.0, 2.0]) == (1.0, 3.0)

    def test_ignores_nonfinite(self):
        assert band([1.0, np.inf, np.nan, 2.0]) == (1.0, 2.0)

    def test_empty(self):
        lo, hi = band([])
        assert np.isnan(lo) and np.isnan(hi)


class TestRingSlope:
    def test_geometric_decay(self):
        vals = [2.0**-k for k in range(8)]
        assert ring_slope(vals) == pytest.approx(-1.0)

    def test_flat(self):
        assert ring_slope([5.0] * 6) == pytest.approx(0.0)

    def test_short_input(self):
        assert ring_slope([1.0]) == 0.0


class TestClassifier:
    def test_flat_is_finite(self):
        assert classify_ring_trend([1.0, 1.0, 1.0, 1.0]) == "finite"

    def test_geometric_decay_is_vanishing(self):
        assert classify_ring_trend([2.0**-k for k in range(8)]) == "vanishing"

    def test_slow_decay_is_vanishing(self):
        # (1 - rho)^0.1 along dyadic rings: slope -0.1 is below -0.04
        vals = [(2.0**-k) ** 0.1 for k in range(1, 13)]
        assert classify_ring_trend(vals) == "vanishing"

    def test_slow_growth_is_divergent(self):
        vals = [(2.0**k) ** 0.1 for k in range(1, 13)]
        assert classify_ring_trend(vals) == "divergent"

    def test_infinity_is_divergent(self):
        assert classify_ring_trend([1.0, np.inf, 1.0]) == "divergent"

    def test_all_zero_is_vanishing(self):
        assert classify_ring_trend([0.0, 0.0, 0.0]) == "vanishing"

    def test_too_short_is_inconclusive(self):
        assert classify_ring_trend([1.0, 2.0]) == "inconclusive"


class TestCriterionReport:
    def _rep(self):
        return CriterionReport(
            name="demo",
            parameters={"p": 2.0},
            index_value=1.5,
            per_point=[(0.3 + 0.1j, 0.7)],
            ring_trend=[(0.5, 1.0), (0.75, 0.5)],
            verdict="finite",
            extras={"band": (0.1, 0.9), "arr": np.array([1.0, 2.0]), "inf": float("inf")},
        )

    def test_json_round_trip(self):
        d = json.loads(self._rep().to_json())
        assert d["name"] == "demo"
        assert d["verdict"] == "finite"
        assert d["ring_trend"] == [[0.5, 1.0], [0.75, 0.5]]
        assert d["extras"]["arr"] == [1.0, 2.0]
        assert d["extras"]["inf"] == "inf"

    def test_per_point_csv(self):
        lines = self._rep().per_point_csv().strip().splitlines()
        assert lines[0] == "re,im,value"
        re, im, v = map(float, lines[1].split(","))
        assert (re, im, v) == (0.3, 0.1, 0.7)

    def test_json_deterministic(self):
        assert self._rep().to_json() == self._rep().to_json()

    def test_finite_report_bytes(self):
        # numpy scalars, complex values, tuples and nested containers, as before
        rep = CriterionReport(
            name="demo",
            parameters={"p": np.float64(2.0), "n": np.int64(3), "w": 0.5 + 0.25j},
            index_value=np.float64(1.5),
            per_point=[(0.3 + 0.1j, np.float64(0.7)), (np.complex128(-0.2j), 2)],
            ring_trend=[(0.5, 1.0), (0.75, 0.5)],
            verdict="finite",
            extras={
                "band": (0.1, 0.9), "arr": np.array([1.0, 2.0]), "nested": {"k": [np.float32(0.5)]}
            },
        )
        assert rep.to_json() == (
            '{"extras": {"arr": [1.0, 2.0], "band": [0.1, 0.9], "nested": {"k": [0.5]}}, '
            '"index_value": 1.5, "name": "demo", '
            '"parameters": {"n": 3, "p": 2.0, "w": [0.5, 0.25]}, '
            '"per_point": [[0.3, 0.1, 0.7], [-0.0, -0.2, 2.0]], '
            '"ring_trend": [[0.5, 1.0], [0.75, 0.5]], "verdict": "finite"}'
        )

    def test_per_point_bytes_with_nonfinite_values(self):
        # each column is converted whole; every value is written as repr(float)
        # and, in JSON, a non-finite one as a string, as one value at a time did
        rep = CriterionReport(
            "demo", {"p": 2.0}, 1.5,
            [(0.3 + 0.1j, np.float64(0.7)), (np.complex128(-0.2j), 2), (0.5, np.inf),
             (1e-300 + 0j, np.nan), (0.25j, -np.inf)],
            [(0.5, 1.0)], "finite",
        )
        assert rep.per_point_csv() == (
            "re,im,value\n0.3,0.1,0.7\n-0.0,-0.2,2.0\n0.5,0.0,inf\n1e-300,0.0,nan\n0.0,0.25,-inf\n"
        )
        assert rep.to_json() == (
            '{"extras": {}, "index_value": 1.5, "name": "demo", "parameters": {"p": 2.0}, '
            '"per_point": [[0.3, 0.1, 0.7], [-0.0, -0.2, 2.0], [0.5, 0.0, "inf"], '
            '[1e-300, 0.0, "nan"], [0.0, 0.25, "-inf"]], "ring_trend": [[0.5, 1.0]], '
            '"verdict": "finite"}'
        )
        assert CriterionReport("e", {}, 0.0, [], [], "finite").per_point_csv() == "re,im,value\n"

    def test_profile_csv_bytes(self):
        columns = {"a": np.array([1 / 3, np.inf]), "b": [2, np.float64(np.nan)]}
        assert profile_csv(np.array([0.1 + 0.2j, 1e-17j]), columns) == (
            "re,im,a,b\n0.1,0.2,0.3333333333333333,2.0\n0.0,1e-17,inf,nan\n"
        )

    def test_profile_csv_is_the_row_by_row_table(self):
        # whole-column conversion writes the bytes of one repr per value, row by row
        rng = np.random.default_rng(7)
        z = rng.normal(size=642) + 1j * rng.normal(size=642)
        columns = {name: rng.normal(size=642) * 10.0 ** rng.integers(-300, 300, 642) for name in "abc"}
        columns["a"][[3, 17, 40]] = [np.inf, -np.inf, np.nan]
        columns["b"][5] = -0.0
        rows = ["re,im,a,b,c"] + [
            ",".join(repr(float(v)) for v in (zk.real, zk.imag, *(c[k] for c in columns.values())))
            for k, zk in enumerate(z)
        ]
        assert profile_csv(z, columns) == "\n".join(rows) + "\n"

    def test_nonfinite_values_are_valid_json(self):
        # an atom outside every Delta(z, 0.1): the averages are 0, so the
        # ratios are inf and the index nan (written "inf" and bare Infinity before)
        from bergman_lab import atomic, build_kernel_model, comparability_report, constant

        m = build_kernel_model(constant(), 40)
        rep = comparability_report(atomic([(0.9, 1.0)]), m, 2.0, 0.1, [0, 0.1j, -0.2])

        def refuse(name):
            raise ValueError(f"bare {name} in the JSON")

        d = json.loads(rep.to_json(), parse_constant=refuse)
        assert d["index_value"] == "nan" == d["extras"]["sup_ratio"]
        assert [v for _, _, v in d["per_point"]] == ["inf"] * 3
        rep = CriterionReport("demo", {"p": -np.inf}, np.inf, [(0.1, np.nan)],
                              [(0.5, np.inf)], "divergent", {"arr": np.array([np.nan])})
        d = json.loads(rep.to_json(), parse_constant=refuse)
        assert (d["parameters"]["p"], d["index_value"]) == ("-inf", "inf")
        assert (d["per_point"], d["ring_trend"]) == ([[0.1, 0.0, "nan"]], [[0.5, "inf"]])
        assert d["extras"]["arr"] == ["nan"]
