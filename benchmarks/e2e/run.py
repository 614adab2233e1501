"""Run one workload once and print its metrics (the driver's entry point).

    python3 benchmarks/e2e/run.py --workload honest_steady --seed 11 \\
        --seconds 10 --trace 0

``--trace 0`` is the untraced run (no wrapper installed; prints every
end-to-end metric); ``--trace 1`` installs the span wrappers first, prints
every per-layer metric and writes every span to ``--trace-out``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A metric whose traced seam is gone reads ``null``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured phase the round count is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="8 peers, 3 rounds")
    parser.add_argument("--json-out", help="also write the full result record here")
    parser.add_argument("--trace-out", type=pathlib.Path,
                        help="where a traced run writes its spans "
                             "(default ledger/TRACE_<workload>.json)")
    return parser.parse_args(argv)


def contract_line(result: dict, metrics: tuple) -> dict:
    """The driver's result object for one run, over the catalogued ``metrics``."""
    section = result["per_layer" if result["traced"] else "end_to_end"]
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {m.name: {"value": section[m.name], "unit": m.unit} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order the routers' peer sets; pin them so a seed
        # names one simulation.  Only a fresh interpreter can take the pin.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)

    # As a script, sys.path[0] is this directory, whose trace.py would
    # shadow the stdlib's; the package is imported from the checkout root.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from benchmarks.e2e import catalogue, harness
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    trace_out = None
    if args.trace:
        trace_out = args.trace_out or HERE / "ledger" / f"TRACE_{args.workload}.json"
    result = harness.execute(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        sizes=harness.SMOKE if args.smoke else harness.FULL,
        trace_out=trace_out,
    )
    if args.json_out:
        pathlib.Path(args.json_out).write_text(json.dumps(result, indent=1))

    line = contract_line(result, catalogue.PER_LAYER if args.trace else catalogue.END_TO_END)
    for name, metric in line["metrics"].items():
        if metric["value"] is None:
            print(f"warning: {name} is null (its traced seam is missing)", file=sys.stderr)
            shown = "null"
        else:
            shown = f"{metric['value']:.6g}"
        print(f"{name:36s} {shown:>16s} {metric['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
