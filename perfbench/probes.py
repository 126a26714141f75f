"""Replay probes: per-call cost of the layers under the integrators.

The probes time public entry points (Problem.grads/value,
scaling.scaled_hull_generators, geometry.min_norm_point and
geometry.support_point) on states recorded by the flow-sweep items.
Public entry points validate their inputs; the integrators call private
paths (Problem._grads, geometry._min_norm_weights, ...) that do not, so
a probe reads somewhat above the in-loop cost of the same layer.
"""

import statistics
import time

import numpy as np

from mbgf import geometry, scaling

REPEATS = 5
MIN_CALLS = 300
SAMPLES = 32


def _us_per_call(fn, args_list):
    loops = max(1, MIN_CALLS // len(args_list))
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        per_call.append((time.perf_counter() - t0) / (loops * len(args_list)))
    return statistics.median(per_call) * 1e6


def _spread(rows, count):
    idx = np.unique(np.linspace(0, len(rows) - 1, count).round().astype(int))
    return [rows[i] for i in idx]


def replay(items, trajectories):
    """Probe metrics from flow-sweep items and their trajectories."""
    out = {}
    records = {}      # alias -> [(item, k)]
    for item, tr in zip(items, trajectories):
        records.setdefault(item["alias"], []).extend(
            (item, tr, k) for k in range(len(tr)))

    for alias in sorted(records):
        p = records[alias][0][0]["p"]
        xs = [(tr.states[k],) for _, tr, k in _spread(records[alias], SAMPLES)]
        out[f"problems.grads.{alias}.us"] = _us_per_call(p.grads, xs)
        out[f"problems.value.{alias}.us"] = _us_per_call(p.value, xs)

    # Scaled generators on p1 states, one seeded rule of each kind.
    p1_rows = _spread(records["p1"], SAMPLES)
    p1 = p1_rows[0][0]["p"]
    kinds = {"constant": "const", "gradnorm_eta": "gradnorm",
             "gradnorm_eta_clamped": "clamped"}
    rules = {}
    for item in items:
        if item["alias"] == "p1":
            rules.setdefault(kinds[item["rule"].variant], item["rule"])
    for kind in ("const", "gradnorm", "clamped"):
        args = [(rules[kind], p1, tr.states[k], tr.times[k])
                for _, tr, k in p1_rows]
        out[f"scaling.generators.{kind}.us"] = _us_per_call(
            scaling.scaled_hull_generators, args)

    # Min-norm point of first-order hulls (m = 2 on every shipped problem).
    hulls, faces = [], []
    for item, tr in zip(items, trajectories):
        if item["cfg"].mode == "first_order":
            for k in range(len(tr)):
                hulls.append((scaling.scaled_hull_generators(
                    item["rule"], item["p"], tr.states[k], tr.times[k]),))
        else:
            cfg, alpha = item["cfg"], np.asarray(item["rule"].values)
            for k in range(len(tr)):
                b = (cfg.r / (tr.times[k] + cfg.theta)) * tr.velocities[k]
                G = item["p"].grads(tr.states[k]) / alpha[:, None]
                faces.append((b, G))
    hulls = _spread(hulls, 2 * SAMPLES)
    out["geometry.min_norm_point.m2.us"] = _us_per_call(
        geometry.min_norm_point, hulls)

    # Support points of the accelerated records; ties take the face path.
    out["geometry.support_point.us"] = _us_per_call(geometry.support_point, faces)
    ties = sum(len(geometry.support_point(b, G)[0]) > 1 for b, G in faces)
    out["geometry.support_point.tie_frac"] = ties / len(faces)
    return out
