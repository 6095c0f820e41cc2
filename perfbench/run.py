"""End-to-end benchmark of the GeoSIR stack: one command, three workloads.

    python3 perfbench/run.py --workload planted-4shard --seed 1 \\
        --seconds 12 --trace 0

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
(``--trace 1``) print the per-layer metrics, read from spans the
benchmark records around the program's public entry points and from
the counters the program returns (see ``metrics.py``).

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by an ``info`` JSON line: host fingerprint, sent / succeeded /
failed counts per phase, sample counts and, on traced runs, where the
spans were written.  A wrong answer makes ``correct`` false and the
exit code 1; a checkout without the program exits 2 with no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, bootstrap, host_fingerprint
from metrics import END_TO_END, PER_LAYER


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(outcome, trace: bool) -> tuple:
    """The final JSON object — exactly the metrics of the run's kind —
    and the names of those metrics the workload did not measure."""
    if trace:
        table = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        values = outcome.layers
    else:
        table = {name: unit for name, (unit, _) in END_TO_END.items()}
        values = outcome.e2e
    missing = sorted(set(table) - set(values))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in table.items()}
    attempted = sum(row["sent"] for row in outcome.phases.values())
    failed = sum(row["failed"] for row in outcome.phases.values())
    return {"correct": not outcome.wrong, "attempted": attempted,
            "failed": failed, "metrics": metrics}, missing


def main(argv=None) -> int:
    bootstrap()
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    fingerprint = host_fingerprint(args.seed)
    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    result, unmeasured = result_line(outcome, bool(args.trace))
    info = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "host": fingerprint,
            "phases": outcome.phases, "unmeasured": unmeasured,
            **outcome.info}
    if outcome.wrong:
        info["wrong"] = outcome.wrong[:20]
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        info["spans"] = {"count": len(tracer.spans),
                         "file": str(path.relative_to(ROOT))}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
