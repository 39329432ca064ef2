"""The traced layers and the arithmetic that turns spans into per-layer metrics.

A span is one call of a wrapped ``timps`` function, stored as a row
``(name_index, start_ns, end_ns, parent_row, status)``. ``parent_row`` is the
row of the innermost enclosing wrapped call, or -1; ``status`` is one of
``RETURNED``, ``TIMPS_ERROR`` (a ``TimpsError`` propagated out of the call) or
``OTHER_ERROR``. Calls into functions that are not wrapped count toward the
self time of the wrapped caller.
"""

from __future__ import annotations

RETURNED, TIMPS_ERROR, OTHER_ERROR = 0, 1, 2

# Layer (module of ``timps``) -> wrapped functions, as attribute paths in it.
# ``config`` and ``errors`` do no work and are not traced.
LAYERS = {
    "invariants": ("link_field", "curvature_report"),
    "tensors": ("canonical_decompose", "mixed_transfer_leading",
                "right_normalize", "gauge_equivalent", "apply_gauge",
                "range_projection"),
    "homotopy": ("retract", "contraction_path", "has_split_core_spectrum",
                 "isometry_path_block"),
    "transfer": ("fixed_point", "window_density_matrix", "expectation",
                 "transfer_spectrum", "correlation_length"),
    "families": ("make_sphere_mesh", "SphereFamily.eval_vertex",
                 "pump_north", "pump_south", "pump_lift"),
    "sampling": ("random_core", "random_tensor_in_e",
                 "random_split_spectrum_tensor", "random_gauge_move",
                 "random_observable"),
    "cli": ("run_experiment",),
}

SPAN_NAMES = tuple(f"{layer}.{func}" for layer, funcs in LAYERS.items()
                   for func in funcs)

# name -> (accepted draws, the attempt made under each draw)
ACCEPT_RATIOS = {
    "sampling.core_accept_ratio": ("sampling.random_core",
                                   "tensors.right_normalize"),
    "sampling.split_accept_ratio": ("sampling.random_split_spectrum_tensor",
                                    "homotopy.has_split_core_spectrum"),
}

WINDOW_MBYTES = "transfer.window_density_matrix.mbytes_computed"
ARTIFACT_BYTES = "cli.artifact_bytes"
OVERHEAD = "trace.overhead_frac"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in ACCEPT_RATIOS:
        units[name] = "ratio"
    units[WINDOW_MBYTES] = "MB"
    units[ARTIFACT_BYTES] = "bytes"
    units[OVERHEAD] = "ratio"
    return units


def self_times_ns(rows) -> list:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    covered = [0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(rows)]


def accept_ratio(rows, names, draw: str, attempt: str):
    """Draws of ``draw`` that returned, over calls of ``attempt`` made
    directly under a ``draw`` span. Returns ``(returned, attempts)``."""
    draw_idx = names.index(draw)
    attempt_idx = names.index(attempt)
    returned = sum(1 for r in rows if r[0] == draw_idx and r[4] == RETURNED)
    attempts = sum(1 for r in rows
                   if r[0] == attempt_idx and r[3] >= 0
                   and rows[r[3]][0] == draw_idx)
    return returned, attempts


def job_metrics(traces, artifact_bytes: int) -> dict:
    """Per-layer metrics of one job from the span dumps of its invocations.

    Each dump is ``{"names": [...], "spans": rows, "window_bytes": int}``.
    Counts and times add up over the job's invocations; a ratio is taken
    over the job's summed counts and is 0 when nothing was attempted.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    errors = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    ratio_parts = {name: [0, 0] for name in ACCEPT_RATIOS}
    window_bytes = 0
    for trace in traces:
        names, rows = trace["names"], trace["spans"]
        for row, own in zip(rows, self_times_ns(rows)):
            name = names[row[0]]
            calls[name] += 1
            self_ns[name] += own
            errors[name] += row[4] == TIMPS_ERROR
        for metric, (draw, attempt) in ACCEPT_RATIOS.items():
            returned, attempts = accept_ratio(rows, names, draw, attempt)
            ratio_parts[metric][0] += returned
            ratio_parts[metric][1] += attempts
        window_bytes += trace["window_bytes"]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.errors"] = errors[name]
    for layer, funcs in LAYERS.items():
        out[f"{layer}.self_s"] = sum(self_ns[f"{layer}.{f}"] for f in funcs) / 1e9
    for metric, (returned, attempts) in ratio_parts.items():
        out[metric] = returned / attempts if attempts else 0.0
    out[WINDOW_MBYTES] = window_bytes / 1e6
    out[ARTIFACT_BYTES] = artifact_bytes
    return out
