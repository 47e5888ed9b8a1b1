"""Compare a minifair JSON report with its committed reference.

Structure, integers (`n`, `dof`, failure counts, repeats) and strings must
match exactly. A non-finite float matches only the same value (NaN matches
NaN). Finite floats may drift by a relative difference of at most TOLERANCE.

TOLERANCE = 1e-6. ROADMAP aim 2 lets a change that reorders float operations
move trained outputs by up to 1e-12. Report values derived from differences
amplify that: the variance of two near-equal repeats, paired t statistics and
their p-values can grow a relative drift by several orders of magnitude, and
1e-6 leaves a factor of 1e6 for that. A change in behaviour moves far more:
one flipped test prediction moves an accuracy metric by about 1/n_test, over
1e-3 at these sizes, and a changed training step moves every metric.
"""
from __future__ import annotations

import math

TOLERANCE = 1e-6


def compare(ref, got, path=()):
    """(max relative drift, mismatched paths) of `got` against `ref`."""
    if isinstance(ref, dict) and isinstance(got, dict):
        drift = 0.0
        bad = []
        if set(ref) == set(got) and list(ref) != list(got):
            bad.append(path)
        bad.extend(path + (k,) for k in ref.keys() ^ got.keys())
        for key in ref.keys() & got.keys():
            d, b = compare(ref[key], got[key], path + (key,))
            drift = max(drift, d)
            bad.extend(b)
        return drift, bad
    if type(ref) is not type(got):
        return 0.0, [path]
    if isinstance(ref, float):
        if not (math.isfinite(ref) and math.isfinite(got)):
            same = ref == got or (math.isnan(ref) and math.isnan(got))
            return 0.0, [] if same else [path]
        drift = 0.0 if ref == got else abs(ref - got) / max(abs(ref), abs(got))
        return drift, [] if drift <= TOLERANCE else [path]
    return 0.0, [] if ref == got else [path]


def check_report(ref, got, repeats):
    """(attempted fits, failed fits, max drift) of one report.

    A fit is one (method, repeat) of a `run` report or one (lambda, repeat)
    of a `sweep` report. Failed fits are the report's own failures plus every
    fit of a method or lambda whose values do not match the reference; a
    mismatch outside those sections fails every fit. `got=None` stands for a
    crashed run.
    """
    sweep = "lambdas" in ref
    units = list(ref["lambdas"] if sweep else ref["failures"])
    attempted = len(units) * repeats
    if got is None:
        return attempted, attempted, 0.0
    drift, bad_paths = compare(ref, got)
    sections = ("lambdas",) if sweep else ("methods", "t_tests", "failures")
    bad = set()
    for p in bad_paths:
        if len(p) >= 2 and p[0] in sections and p[1] in units:
            bad.add(p[1])
        else:
            return attempted, attempted, drift
    failed = 0
    for unit in units:
        if unit in bad:
            failed += repeats
        elif sweep:
            entry = got["lambdas"][unit]
            failed += repeats if entry.get("failed") else repeats - entry[next(iter(entry))]["n"]
        else:
            failed += got["failures"][unit]
    return attempted, failed, drift
