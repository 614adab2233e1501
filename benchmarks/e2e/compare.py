"""Compare two ledgers: ``python3 benchmarks/e2e/compare.py A.json B.json``.

The ledgers must be of one seed and size: counts and simulated figures are
exact for a seed, and the bounds used here (``same_seed`` in catalogue.py —
10 % on host times, 5 % on memory, 0 on what the seed determines) are those
of two runs of one seed.  One row per (workload, end-to-end metric), over
the union of what the two ledgers hold: both values, the ratio B/A,
direction, bound and a verdict —

* ``better`` / ``worse``: B differs from A by more than the bound;
* ``same``: within the bound;
* ``unresolved``: the spread between a run's own groups (quartile distance
  over the median, either side) is wider than the bound, or a value is
  null, so the pair of runs cannot tell;
* ``missing``: the workload or metric is in one ledger only.

The workload-scoped outcomes follow, on the workloads that have them
(non-zero).  ``--exact`` is the A/A mode for two runs of one commit: every
count, every simulated figure and every ``sim_fingerprint`` must be
identical as well.

Exits non-zero on any ``worse`` or ``missing``, on a higher
``ops_failed / ops_attempted``, and under ``--exact`` on any difference in
an exact figure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __package__ in (None, ""):  # run as a script: import the package from the root
    _ROOT = pathlib.Path(__file__).resolve().parents[2]
    sys.path[0] = str(_ROOT)

from benchmarks.e2e.catalogue import END_TO_END, EXACT, PER_LAYER

#: (metric, better, bound, ledger section) of every compared row; the
#: workload-scoped outcomes are compared as end-to-end rows.
_SPECS = [(m.name, m.better, m.same_seed, "end_to_end") for m in END_TO_END] + [
    (m.name, m.better, m.same_seed, "per_layer") for m in PER_LAYER if m.same_seed is not None
]
#: What two ledgers must share before a row of them means anything.
_SHAPE = ("seed", "peers", "seconds", "smoke")


def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if a["value"] is None or b["value"] is None:
        return "unresolved"
    if max(_spread(a), _spread(b)) > bound > 0:
        return "unresolved"
    base = a["value"]
    if base == 0:
        change = 0.0 if b["value"] == 0 else float("inf")
    else:
        change = (b["value"] - base) / abs(base)
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _union(a: dict, b: dict) -> list[str]:
    return [*a, *(key for key in b if key not in a)]


def compare(a: dict, b: dict, *, exact: bool = False) -> tuple[list[tuple], list[str]]:
    """Rows for the table, and the reasons (if any) to exit non-zero."""
    rows: list[tuple] = []
    problems = [
        f"ledgers differ in {key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in _SHAPE
        if a.get(key) != b.get(key)
    ]
    if problems:
        return rows, problems
    for name in _union(a["workloads"], b["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append((name, "*", None, None, None, "", 0.0, "missing"))
            problems.append(f"{name}: missing from {'A' if wa is None else 'B'}")
            continue
        for metric, better, bound, section in _SPECS:
            ea, eb = wa[section].get(metric), wb[section].get(metric)
            if ea is None and eb is None:
                continue  # ledgers of a catalogue that did not have it yet
            if ea is None or eb is None:
                rows.append((name, metric, ea and ea["value"], eb and eb["value"], None,
                             better, bound, "missing"))
                problems.append(f"{name}/{metric}: missing from {'A' if ea is None else 'B'}")
                continue
            va, vb = ea["value"], eb["value"]
            if section == "per_layer" and not va and not vb:
                continue  # an outcome this workload does not have
            outcome = verdict(ea, eb, better, bound)
            ratio = vb / va if va and vb is not None else None
            rows.append((name, metric, va, vb, ratio, better, bound, outcome))
            if outcome == "worse":
                problems.append(f"{name}/{metric}: worse ({va:.6g} -> {vb:.6g})")
        rate_a = wa["ops_failed"] / wa["ops_attempted"]
        rate_b = wb["ops_failed"] / wb["ops_attempted"]
        if rate_b > rate_a:
            problems.append(f"{name}: failure rate rose {rate_a:.6g} -> {rate_b:.6g}")
        if exact:
            if wa["sim_fingerprint"] != wb["sim_fingerprint"]:
                problems.append(f"{name}: sim_fingerprint differs")
            for metric in EXACT:
                va = wa["per_layer"].get(metric, {}).get("value")
                vb = wb["per_layer"].get(metric, {}).get("value")
                if va != vb:
                    problems.append(f"{name}/{metric}: {va} != {vb}")
    return rows, problems


def _shown(value: float | None, spec: str) -> str:
    return format("null", f">{spec.split('.')[0]}s") if value is None else format(value, spec)


def render(rows: list[tuple]) -> str:
    head = (f"{'workload':18s} {'metric':28s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
            f"{'better':>6s} {'bound':>6s} verdict")
    lines = [head, "-" * len(head)]
    for name, metric, va, vb, ratio, better, bound, outcome in rows:
        lines.append(
            f"{name:18s} {metric:28s} {_shown(va, '12.6g')} {_shown(vb, '12.6g')} "
            f"{_shown(ratio, '7.3f')} {better:>6s} {bound:6.2f} {outcome}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact", action="store_true", help="A/A: exact figures must match")
    args = parser.parse_args(argv)
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    rows, problems = compare(a, b, exact=args.exact)
    print(render(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
