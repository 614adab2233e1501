"""Run the whole suite and write a ledger: ``python -m benchmarks.e2e --seed 11``.

Each workload runs twice, one after the other and never two at once (the
sandbox has two cores): an untraced run for the end-to-end metrics and a
traced run for the per-layer ones, each in its own process through
``run.py``.  The two must produce the same ``sim_fingerprint`` — tracing may
cost time, it may not change what the simulation does — and the ratio of
their measured phases is the tracing overhead.  The ledger goes to ``--out``
(``ledger/BENCH_11.json``) and each traced run's spans beside it
(``TRACE_11_<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

from benchmarks.e2e import calibrate, catalogue

HERE = pathlib.Path(__file__).resolve().parent
LEDGER = HERE / "ledger"


def _trace_path(ledger: pathlib.Path, workload: str) -> pathlib.Path:
    return ledger.with_name(f"TRACE_{ledger.stem.removeprefix('BENCH_')}_{workload}.json")


def _run(workload: str, args: argparse.Namespace, traced: bool, scratch: pathlib.Path) -> dict:
    out = scratch / f"{workload}.{int(traced)}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
        "--json-out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if traced:
        command += ["--trace-out", str(_trace_path(args.out, workload))]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def _entry(workload: str, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    problems = [f"{workload}: {f}" for f in untraced["failures"] + traced["failures"]]
    if untraced["sim_fingerprint"] != traced["sim_fingerprint"]:
        problems.append(
            f"{workload}: tracing perturbed the simulation "
            f"({untraced['sim_fingerprint']} != {traced['sim_fingerprint']})"
        )
    end_to_end = {}
    for metric in catalogue.END_TO_END:
        end_to_end[metric.name] = {"value": untraced["end_to_end"][metric.name], "unit": metric.unit}
        if metric.name in untraced["spread"]:
            q1, q3, n = untraced["spread"][metric.name]
            end_to_end[metric.name].update(q1=q1, q3=q3, n=n)
    # Counts and the harness's own times are read off the untraced run;
    # only what needs spans comes from the traced one.
    per_layer = {
        m.name: {
            "value": untraced["per_layer"].get(m.name, traced["per_layer"][m.name]),
            "unit": m.unit,
            "layer": m.layer,
            "moves": m.moves,
        }
        for m in catalogue.PER_LAYER
    }
    entry = {
        "rounds": untraced["rounds"],
        "ops_attempted": untraced["ops_attempted"] + traced["ops_attempted"],
        "ops_failed": untraced["ops_failed"] + traced["ops_failed"],
        "sim_fingerprint": untraced["sim_fingerprint"],
        "wrappers_installed_untraced": untraced["wrappers_installed"],
        "missing_seams": traced["missing_seams"],
        "trace_overhead_ratio": (
            traced["per_layer"]["harness.measured_s"]
            / untraced["per_layer"]["harness.measured_s"]
        ),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    return entry, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true", help="8 peers, 3 rounds, < 30 s")
    parser.add_argument("--out", type=pathlib.Path, default=LEDGER / "BENCH_11.json",
                        help="ledger path; the traced runs' spans are written beside it")
    args = parser.parse_args(argv)

    ledger = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "cal_ref_s": calibrate.CAL_REF,
        "workloads": {},
    }
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in catalogue.WORKLOADS:
            untraced = _run(workload, args, False, pathlib.Path(scratch))
            traced = _run(workload, args, True, pathlib.Path(scratch))
            entry, found = _entry(workload, untraced, traced)
            ledger["peers"] = untraced["peers"]
            ledger["workloads"][workload] = entry
            problems += found
            print(f"== {workload}  ops {entry['ops_failed']}/{entry['ops_attempted']} failed  "
                  f"fingerprint {entry['sim_fingerprint']}  "
                  f"trace overhead x{entry['trace_overhead_ratio']:.2f}")
            for section in ("end_to_end", "per_layer"):
                for name, value in entry[section].items():
                    shown = "null" if value["value"] is None else f"{value['value']:.6g}"
                    print(f"  {name:36s} {shown:>14s} {value['unit']}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {args.out}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
