"""Seeded input generation and ground truth, outside every timed region.

The program receives only the events made here: a plain Python list of
``(timestamp, item)`` tuples, never a `RecordBatch`, so each timed run pays
the column build and projection interning the way a user does.  Arrivals
are a Poisson process per sub-stream (uniform timestamps, sorted), drawn
with NumPy so generation stays cheap next to the measured work.

Ground truth follows the runtime's pane rule: panes end at every slide
multiple, a pane ending at ``E`` holds the events with
``E - length <= ts < E``, and the last partial interval keeps its nominal
end.
"""

from __future__ import annotations

import gc
import math

import numpy as np

#: §5.1 Gaussian sub-streams: (source, mean, standard deviation).
GAUSSIAN = (("A", 10.0, 5.0), ("B", 1000.0, 50.0), ("C", 10000.0, 500.0))


def _merge(rng, rates, duration):
    """Poisson arrival times per sub-stream, merged: (ts, code) sorted."""
    ts_parts, code_parts = [], []
    for code, rate in enumerate(rates):
        n = int(rng.poisson(rate * duration))
        ts_parts.append(rng.uniform(0.0, duration, n))
        code_parts.append(np.full(n, code, dtype=np.int64))
    ts = np.concatenate(ts_parts)
    codes = np.concatenate(code_parts)
    order = np.argsort(ts, kind="stable")
    return ts[order], codes[order]


def gaussian_events(seed: int, rates, duration: float):
    """The A:B:C Gaussian stream at ``rates`` ev/s for ``duration`` s.

    Returns ``(events, ts, codes, values)``: the event list handed to the
    program and the NumPy columns the ground truth reads.
    """
    rng = np.random.default_rng(seed)
    ts, codes = _merge(rng, rates, duration)
    mu = np.array([spec[1] for spec in GAUSSIAN])
    sigma = np.array([spec[2] for spec in GAUSSIAN])
    values = rng.normal(mu[codes], sigma[codes])
    names = [spec[0] for spec in GAUSSIAN]
    # Millions of small tuples: pausing the collector keeps generation from
    # re-scanning the growing list; it is re-enabled before any timed work.
    gc.disable()
    try:
        keys = [names[c] for c in codes.tolist()]
        events = list(zip(ts.tolist(), zip(keys, values.tolist())))
    finally:
        gc.enable()
    return events, ts, codes, values


def taxi_events(seed: int, rate: float, duration: float):
    """§6.3 taxi rides: ``(ts, (borough, TaxiRide))`` at ``rate`` ev/s.

    Borough mix and log-normal trip distances follow
    `repro.workloads.taxi`; the items are the program's own `TaxiRide`
    records so the query's projections run on real payloads.
    """
    from repro.workloads.taxi import BOROUGH_MIX, TRIP_DISTANCE_PARAMS, TaxiRide

    rng = np.random.default_rng(seed)
    boroughs = list(BOROUGH_MIX)
    ts, codes = _merge(rng, [rate * BOROUGH_MIX[b] for b in boroughs], duration)
    mu = np.array([TRIP_DISTANCE_PARAMS[b][0] for b in boroughs])
    sigma = np.array([TRIP_DISTANCE_PARAMS[b][1] for b in boroughs])
    distance = np.minimum(60.0, rng.lognormal(mu[codes], sigma[codes]))
    fare = np.round(2.5 + 2.0 * distance + rng.uniform(0.0, 3.0, len(codes)), 2)
    gc.disable()
    try:
        events = [
            (t, (boroughs[c], TaxiRide(boroughs[c], d, f)))
            for t, c, d, f in zip(
                ts.tolist(), codes.tolist(), distance.tolist(), fare.tolist()
            )
        ]
    finally:
        gc.enable()
    return events, ts, codes, distance


def pane_ends(ts, slide: float):
    """Every pane end the runtime emits for timestamps ``ts``."""
    if len(ts) == 0:
        return []
    last = int(math.floor(float(ts[-1]) / slide)) + 1
    return [slide * k for k in range(1, last + 1)]


def pane_bounds(ts, slide: float, length: float):
    """``(end, lo, hi)`` index ranges of every pane over sorted ``ts``."""
    ends = pane_ends(ts, slide)
    edges = np.array(ends, dtype=np.float64)
    hi = np.searchsorted(ts, edges, side="left")
    lo = np.searchsorted(ts, edges - length, side="left")
    return list(zip(ends, lo.tolist(), hi.tolist()))


def exact_quantile(values, q: float) -> float:
    """Smallest value whose cumulative count reaches ``q * n``."""
    ordered = np.sort(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[min(index, len(ordered) - 1)])


def exact_panes(ts, values, slide: float, length: float, kind: str = "mean",
                q: float = 0.5, groups=None, n_groups: int = 0):
    """Exact answer per pane: ``[(end, value, {group: value})]``."""
    truth = []
    for end, lo, hi in pane_bounds(ts, slide, length):
        vals = values[lo:hi]
        if kind == "sum":
            value = math.fsum(vals.tolist())
        elif kind == "quantile":
            value = exact_quantile(vals, q)
        else:
            value = math.fsum(vals.tolist()) / len(vals) if len(vals) else 0.0
        by_group = {}
        if groups is not None:
            g = groups[lo:hi]
            sums = np.bincount(g, weights=vals, minlength=n_groups)
            counts = np.bincount(g, minlength=n_groups)
            by_group = {
                k: float(sums[k] / counts[k]) for k in range(n_groups) if counts[k]
            }
        truth.append((end, value, by_group))
    return truth
