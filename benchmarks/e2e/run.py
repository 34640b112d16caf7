"""The repo's end-to-end benchmark: six workloads, a per-layer waterfall.

Driver contract (one run, one JSON object as the last line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (0 where the workload has no such
layer).  Without ``--trace`` the whole suite runs -- every workload (or
the one named) once untraced and once traced at a third of the seconds
-- prints every metric by name with its unit, cross-checks the two
children's outputs, and with ``--out`` saves the result for::

    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --aa [--runs R]        (R defaults to 3 here)

``--pin`` rewrites ``expected.json`` (the seed-0 outputs) from the
current tree; do that only in a change that means to alter them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import stats  # noqa: E402
from catalog import END_TO_END, PER_LAYER, READS_AS, WORKLOADS  # noqa: E402

#: fingerprint fields that must be equal before two results are compared
MUST_MATCH = ("kernel_backend", "nproc", "blas_threads")


def driver_run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    result = harness.measure(workload, seed, seconds, traced)
    for error in result["errors"]:
        print(f"output check failed: {error}", file=sys.stderr)
    if not result["metrics"]:
        return 1
    print(f"{workload}: {result['info']}")
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


# -- the whole suite --------------------------------------------------------


def suite_run(workload: str, seed: int, seconds: float, spans: Path | None) -> dict:
    """One workload, untraced then traced; both children's outputs checked."""
    untraced = harness.measure(workload, seed, seconds, traced=False)
    traced = harness.measure(workload, seed, seconds / 3.0, traced=True, spans=spans)
    errors = untraced["errors"] + traced["errors"]
    if untraced["epochs"] and traced["epochs"]:
        shared = min(len(untraced["epochs"]), len(traced["epochs"]))
        if untraced["epochs"][:shared] != traced["epochs"][:shared]:
            errors.append("traced and untraced trajectories differ")
    attempted = untraced["attempted"] + traced["attempted"]
    failed = attempted if errors else untraced["failed"] + traced["failed"]
    return {
        "correct": not errors,
        "errors": errors,
        "failed_share": failed / attempted,
        "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "env": untraced["env"] or traced["env"],
        "info": untraced.get("info", ""),
    }


def print_run(workload: str, run: dict) -> None:
    family = workload.split("-")[0]
    print(f"\n== {workload}  ({run['info']})")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, value in run["end_to_end"].items():
        alias = READS_AS[family].get(name)
        reads = f"   (= {alias})" if alias else ""
        print(f"  {name:<42s} {value:>14.4f} {units[name]}{reads}")
    print(f"  {'failed_share':<42s} {run['failed_share']:>14.4f} ratio")
    for name, unit, _ in PER_LAYER:
        value = run["per_layer"].get(name, 0.0)
        if value:
            print(f"  {name:<42s} {value:>14.4f} {unit}")
    for error in run["errors"]:
        print(f"  FAILED: {error}")


def suite(workloads, seed: int, seconds: float, runs: int, spans_dir: Path | None) -> dict:
    result: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    envs = []
    for workload in workloads:
        collected = []
        for index in range(runs):
            spans = spans_dir / f"spans-{workload}-{index}.json" if spans_dir else None
            run = suite_run(workload, seed, seconds, spans)
            print_run(workload, run)
            envs.append(run.pop("env"))
            collected.append(run)
        result["workloads"][workload] = {"runs": collected}
    result["fingerprint"] = harness.fingerprint(
        next((env for env in envs if env), {})
    )
    return result


# -- comparing two results --------------------------------------------------


def compare(a: dict, b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) of two suite results."""
    for field in MUST_MATCH:
        if a["fingerprint"][field] != b["fingerprint"][field]:
            raise ValueError(
                f"refusing to compare: {field} differs "
                f"({a['fingerprint'][field]!r} vs {b['fingerprint'][field]!r})"
            )
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for name, _, better, bound in END_TO_END:
            side_a, side_b = (
                [run["end_to_end"][name] for run in side["workloads"][workload]["runs"]
                 if name in run["end_to_end"]]
                for side in (a, b)
            )
            if side_a and side_b:
                rows.append(
                    verdict(workload, name, better, bound, side_a, side_b)
                )
    return rows


def verdict(workload, name, better, bound, side_a, side_b) -> dict:
    """improved / unchanged / regressed / unresolved for one metric.

    ``worse`` is B's median against A's as a share of A's, positive when
    B is worse.  When the spread between same-code runs exceeds the
    bound the metric cannot be called unchanged: it is unresolved,
    unless every run of one side beats every run of the other.  Inside
    the bound, "improved" needs every run of B to beat every run of A
    by more than the spread (by more than the bound when there is a
    single run a side and so no spread).
    """
    median_a, median_b = stats.median(side_a), stats.median(side_b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    spreads = [s for s in (stats.spread(side_a), stats.spread(side_b)) if s is not None]
    spread = max(spreads) if spreads else None
    if sign > 0:
        b_always_better = max(side_b) < min(side_a)
        b_always_worse = min(side_b) > max(side_a)
    else:
        b_always_better = min(side_b) > max(side_a)
        b_always_worse = max(side_b) < min(side_a)
    if spread is not None and spread > bound:
        label = (
            "improved" if b_always_better
            else "regressed" if b_always_worse and worse > bound
            else "unresolved"
        )
    elif worse > bound:
        label = "regressed"
    elif b_always_better and -worse > (spread if spread is not None else bound):
        label = "improved"
    else:
        label = "unchanged"
    return {
        "workload": workload, "metric": name, "a": median_a, "b": median_b,
        "worse_by": worse, "bound": bound, "spread": spread, "verdict": label,
    }


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<15s}{'metric':<14s}{'A':>12s}{'B':>12s}"
          f"{'worse by':>10s}{'bound':>8s}{'spread':>8s}  verdict")
    for row in rows:
        spread = "-" if row["spread"] is None else f"{row['spread']:.1%}"
        print(
            f"{row['workload']:<15s}{row['metric']:<14s}{row['a']:>12.4f}"
            f"{row['b']:>12.4f}{row['worse_by']:>+10.1%}{row['bound']:>8.0%}"
            f"{spread:>8s}  {row['verdict']}"
        )


# -- pinning the seed-0 outputs ---------------------------------------------


def pin(workloads) -> None:
    harness.preflight()
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for workload in workloads:
        if workload == "serve-burst":
            continue  # checked against in-process references, nothing pinned
        print(f"pinning {workload} ...", flush=True)
        expected[workload] = harness.run_child(
            workload, 0, 0.0, "pin", harness.BUILD / "pin", timeout=1800.0
        )
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="workloads: " + ", ".join(WORKLOADS),
    )
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one run, one JSON line")
    parser.add_argument("--runs", type=int, default=None,
                        help="suite repetitions per workload, for medians and "
                        "spread (default 1; 3 with --aa)")
    parser.add_argument("--out", type=Path, help="write the suite result here")
    parser.add_argument("--spans-dir", type=Path,
                        help="keep the traced runs' span logs in this directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice on this tree; fail beyond a bound")
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").exists():
        print(f"run.py: no program to measure under {harness.SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.runs is None:
        # one run of this box can sit inside a minute-long slow episode
        args.runs = 3 if args.aa else 1

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        try:
            rows = compare(a, b)
        except ValueError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        print_rows(rows)
        return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
    if args.pin:
        pin(workloads)
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.spans_dir:
        args.spans_dir = args.spans_dir.resolve()
        args.spans_dir.mkdir(parents=True, exist_ok=True)
    if args.aa:
        first = suite(workloads, args.seed, args.seconds, args.runs, None)
        second = suite(workloads, args.seed, args.seconds, args.runs, None)
        rows = compare(first, second)
        print()
        print_rows(rows)
        beyond = [row for row in rows if abs(row["worse_by"]) > row["bound"]]
        return 1 if beyond else 0
    result = suite(workloads, args.seed, args.seconds, args.runs, args.spans_dir)
    print("\nfingerprint: " + json.dumps(result["fingerprint"]))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    failed = [
        name for name, entry in result["workloads"].items()
        if not all(run["correct"] for run in entry["runs"])
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
