"""One measuring interpreter: set up one workload, optionally run it.

``run.py`` starts this file in a fresh interpreter for every set-up,
untraced run and traced run, with the environment pinned (``harness.
child_env``).  The last line of standard output is one JSON object:
``setup_s`` (spawn -> end of warm-up), a ``warm`` record that must be
equal across fresh interpreters of one seed, and -- unless ``--mode
setup`` -- ``e2e`` or ``layers`` metrics, ``attempted`` / ``failed``
counts, ``errors`` from the output checks, and ``peak_rss_mb``.
``--mode pin`` instead prints the seed-0 outputs for ``expected.json``.

Must stay importable without side effects: the process engine's
spawned ranks re-import it as their main module.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def pinned_outputs(workload: str, seed: int):
    """Seed-0 outputs from ``expected.json`` (``None`` for other seeds)."""
    if seed != 0:
        return None
    with open(HERE / "expected.json") as stream:
        return json.load(stream).get(workload)


def pin(workload: str) -> int:
    """Print the seed-0 outputs ``expected.json`` holds for ``workload``."""
    if workload.startswith("train-"):
        import wl_train

        print(json.dumps({"digests": wl_train.pin_digests(workload)}))
    else:
        import wl_fabric

        print(json.dumps({"cells": wl_fabric.pin_cells()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "untraced", "traced", "pin"), required=True
    )
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned this child")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if args.mode == "pin":
        return pin(args.workload)
    pinned = pinned_outputs(args.workload, args.seed)
    common = (args.seed, args.seconds, args.mode, args.t0, args.tmp)
    if args.workload.startswith("train-"):
        import wl_train

        out = wl_train.run(
            args.workload, *common,
            pinned=pinned["digests"] if pinned else None,
            spans_path=args.spans,
        )
    elif args.workload == "serve-burst":
        import wl_serve

        out = wl_serve.run(*common)
    elif args.workload == "fabric-sweep":
        import wl_fabric

        out = wl_fabric.run(*common, pinned=pinned["cells"] if pinned else None)
    else:
        parser.error(f"unknown workload {args.workload!r}")

    import numpy
    from repro.quantization import kernels

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + children) / 1024.0
    out["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend_name(),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
