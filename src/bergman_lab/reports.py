"""Report containers and trend classification shared by all theorem checkers.

Comparability statements come with unspecified constants, so nothing here
asserts a constant: reports carry index values, per-point samples, per-ring
maxima along a boundary ladder, and a verdict derived from the trend.

Trend verdicts combine an absolute-threshold test with a dyadic growth-rate
fit: values like (1-rho)^0.1 decay far too slowly to cross any fixed
threshold within float-representable radii, but their log2 slope per dyadic
ring (-0.1) is measured cleanly after a handful of rings.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["CriterionReport", "band", "classify_ring_trend", "profile_csv", "ring_slope"]


def band(values):
    """(min, max) of a sample set, as plain floats."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return (float("nan"), float("nan"))
    return (float(np.min(finite)), float(np.max(finite)))


def ring_slope(values, tail=5):
    """Mean log2 ratio of consecutive ring maxima over the trailing rings."""
    vals = [v for v in values if np.isfinite(v) and v > 0]
    if len(vals) < 2:
        return 0.0
    vals = vals[-(tail + 1) :]
    ratios = [math.log2(b / a) for a, b in zip(vals, vals[1:])]
    return float(np.mean(ratios))


# the trend thresholds of classify_ring_trend (criteria.qlp_index reads _SLOPE_TOL too)
_VANISH_REL = 1e-3
_VANISH_ABS = 1e-12
_SLOPE_TOL = 0.04


def classify_ring_trend(values):
    """Classify per-ring maxima as finite / vanishing / divergent / inconclusive.

    * divergent: sustained positive dyadic slope;
    * vanishing: decreasing over the last three rings and either below the
      absolute threshold max(_VANISH_REL * max, _VANISH_ABS) or with a
      sustained negative slope;
    * finite: bounded without decay to zero;
    * inconclusive: too little data or non-monotone noise near the tolerance.
    """
    vals = [float(v) for v in values]
    if any(not np.isfinite(v) for v in vals):
        return "divergent"
    if len(vals) < 3:
        return "inconclusive"
    vmax = max(vals)
    if vmax <= _VANISH_ABS:
        return "vanishing"
    slope = ring_slope(vals)
    tail3 = vals[-3:]
    decreasing = tail3[0] >= tail3[1] >= tail3[2]
    if slope >= _SLOPE_TOL:
        return "divergent"
    threshold = max(_VANISH_REL * vmax, _VANISH_ABS)
    if decreasing and (vals[-1] <= threshold or slope <= -_SLOPE_TOL):
        return "vanishing"
    if abs(slope) < _SLOPE_TOL or decreasing:
        return "finite"
    return "inconclusive"


class CriterionReport:
    """Named index with samples, a boundary trend, and a verdict."""

    def __init__(self, name, parameters, index_value, per_point, ring_trend, verdict, extras=None):
        self.name = name
        self.parameters = dict(parameters)
        self.index_value = index_value
        self.per_point = list(per_point)
        self.ring_trend = [(float(r), float(v)) for r, v in ring_trend]
        self.verdict = verdict
        self.extras = dict(extras or {})

    def __repr__(self):
        return (
            f"CriterionReport({self.name!r}, index={self.index_value!r}, "
            f"verdict={self.verdict!r})"
        )

    def to_dict(self):
        """JSON-ready fields; non-finite numbers become "inf", "-inf" or "nan"."""
        z, values = self._columns()
        rows = [list(row) for row in zip(z.real.tolist(), z.imag.tolist(), values.tolist())]
        if not (np.isfinite(z).all() and np.isfinite(values).all()):
            rows = _jsonable(rows)
        return {**self._fields(), "per_point": rows}

    def _fields(self):
        """to_dict without per_point, for a writer that keeps the samples in per_point_csv only."""
        return _jsonable(
            {
                "name": self.name,
                "parameters": self.parameters,
                "index_value": self.index_value,
                "ring_trend": self.ring_trend,
                "verdict": self.verdict,
                "extras": self.extras,
            }
        )

    def to_json(self, **kwargs):
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def per_point_csv(self):
        z, values = self._columns()
        return profile_csv(z, {"value": values})

    def _columns(self):
        """The per-point samples as a complex point array and a float value array."""
        table = np.array(self.per_point, dtype=complex).reshape(-1, 2)
        return table[:, 0], table[:, 1].real


def profile_csv(points, columns):
    """CSV with re,im plus named value columns, each value written as repr(float).

    Every column is converted whole, by one tolist() and one map(repr).
    """
    z = np.asarray(points, dtype=complex)
    cols = [z.real.tolist(), z.imag.tolist()]
    cols += [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    lines = ["re,im," + ",".join(columns), *map(",".join, zip(*(map(repr, c) for c in cols)))]
    return "\n".join(lines) + "\n"


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not np.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    return v
