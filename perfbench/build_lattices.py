"""Set-up child of the invariants workload: write its .lat files.

    python3 perfbench/build_lattices.py DIR [--trace 0|1]

Runs ``enumerate_subrack_lattice`` + ``save_lattice`` (what ``rackle lattice
build`` does) for every invariants input, in a process of its own so that its
memory does not count towards the benchmark's peak RSS. Each step is
normalized on its own (see reference.py). The last line of
standard output is JSON: raw and normalized build seconds, the traced layer
aggregates (or null) and the names the tracer could not find.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import layers
import workloads
from bootstrap import SetupError, load_rackle
from reference import Meter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        R = load_rackle()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = layers.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.begin("setup")
    raw = norm = 0.0
    for step in workloads.lattice_builds(R, args.out_dir):
        with Meter() as meter:
            step()
        raw += meter.wall
        norm += meter.wall * meter.scale
    result = {"raw_s": raw, "norm_s": norm, "snapshot": None, "missing": []}
    if tracer:
        result.update(snapshot=asdict(tracer.end()), missing=tracer.missing)
        tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
