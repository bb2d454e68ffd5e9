"""The EV-Matching end-to-end benchmark.

Run from the repository root::

    python3 evbench/run.py --workload wire-query --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same traffic with tracing on in alternate seconds
(``wire-query``) or replay windows (``live-watch``) of one measured
phase, and prints every per-layer metric (layers a workload bypasses
read 0).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 measured and correct; 1 the system returned a wrong
answer (the JSON line says ``"correct": false``); 2 the system or its
inputs are missing; 3 the run could not be measured honestly (too few
samples beyond a percentile, a failed request under a percentile, a
generator that fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Every process of the system under test -- this one, which hosts the
# in-process service, and the fleet, which inherits the environment --
# runs numpy with one BLAS thread.  Left to itself, OpenBLAS starts one
# thread per CPU in every process, and its idle threads spin, taking the
# CPUs from the serving threads; see README.md, "BLAS threads".  Set
# before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from common import OUTCOMES, IncorrectOutput, InvalidRun, Metrics  # noqa: E402

WORKLOADS = ("wire-query", "live-watch")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    manifest: Dict[str, Any]
    counts: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in ("attempted",) + OUTCOMES}
    )

    def log(self, message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)

    def account(self, load, extra_attempted: int = 0, extra_failed: int = 0) -> None:
        """Add one open-loop phase's outcomes, plus ``extra_attempted``
        other operations of which ``extra_failed`` failed."""
        for key, value in load.counts().items():
            self.counts[key] += value
        self.counts["attempted"] += extra_attempted
        self.counts["ok"] += extra_attempted - extra_failed
        self.counts["error"] += extra_failed

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def attempted(self) -> int:
        return self.counts["attempted"]


def _declared(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _workload(name: str) -> ModuleType:
    if name == "wire-query":
        import wire_query as module
    else:
        import live_watch as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every process it started stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"evbench: cannot import the system under test: {exc}", file=sys.stderr)
        return 2
    from inputs import ensure_inputs

    declared = _declared(bool(args.trace))
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), manifest={}
    )
    ctx.manifest = ensure_inputs(log=ctx.log)
    module = _workload(args.workload)
    try:
        values = module.run(ctx)
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise KeyError(f"workload measured undeclared metrics: {unknown}")
        metrics = Metrics(declared)
        for name in declared:
            if args.trace:
                # A layer the workload bypasses did no work in it.
                metrics.set(name, values.get(name, 0.0))
            else:
                metrics.set(name, values[name])
        payload = metrics.payload()
    except IncorrectOutput as exc:
        print(f"evbench: INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(1, ctx.attempted),
            "failed": ctx.failed,
            "metrics": {},
        }))
        return 1
    except InvalidRun as exc:
        print(f"evbench: invalid run: {exc}", file=sys.stderr)
        return 3

    counts = " ".join(f"{k}={v}" for k, v in ctx.counts.items())
    print(f"{args.workload} seed={args.seed}: {counts}")
    for name, entry in payload.items():
        print(f"  {name:45s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": payload,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
