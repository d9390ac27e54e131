"""rackle benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload derive|invariants|verify|all \
        --seed N --seconds S --trace 0|1

Set-up builds the inputs and the group-side oracles from ``--seed``, several
times for a cheap set-up, and ``setup_s`` is the median. The timed region then
runs the workload's operations in passes, each after the previous one has
returned: every operation once, then more runs of the longest ones for as
long as their nominal times fit in ``--seconds`` (see ``plan``). The plan is
fixed, so ``attempted`` and ``failed`` do not depend on the host's speed.
Every answer is checked against its oracle. An operation that raises or
answers wrongly has failed; only a wrong answer makes ``correct`` false.

Every time in the JSON is normalized by a reference kernel timed before,
during and after the work (reference.py), which cancels most of the host's
speed drift. The table above the JSON also shows the raw medians.

With ``--trace 0`` the last line of standard output is JSON with the
end-to-end metrics. ``wall_s`` and ``cpu_s`` are per pass over the inputs:
the sum over inputs of each input's median. With ``--trace 1`` every
operation also runs with the layer tracer installed (alternating with an
untraced run), and the JSON holds the per-layer metrics instead. The spans are
written to ``perfbench/out/``. ``--workload all`` runs the three workloads
one after another, in child processes, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

import bootstrap
import layers
import workloads
from reference import Meter

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    wall: float                    # raw seconds
    cpu: float
    traced: bool
    snap: layers.Snapshot | None
    error: BaseException | None
    problem: str | None            # wrong answer, described
    scale: float = 1.0             # wall normalization factor
    cpu_scale: float = 1.0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.problem is not None

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_cpu(self) -> float:
        return self.cpu * self.cpu_scale


def run_once(op: workloads.Op, tracer: layers.Tracer | None) -> Sample:
    if tracer:
        tracer.install()
        tracer.begin(op.name)
    error = problem = None
    with Meter() as meter:
        try:
            problem = op.run()
        except Exception as exc:  # an operation's failure is a result, not a crash
            error = exc
    snap = None
    if tracer:
        snap = tracer.end()
        tracer.uninstall()
    return Sample(meter.wall, meter.cpu, tracer is not None, snap, error, problem,
                  meter.scale, meter.cpu_scale)


def plan(ops, seconds: float, nominal: dict[str, float]) -> list[workloads.Op]:
    """The order in which the timed region runs the ops.

    Every op runs once, in the listed order. Then, while the ops' nominal
    times (normalized seconds at the seed, workloads.NOMINAL_S) fit in
    ``seconds``, the least-run op, the longest first among equals, gets one
    more run, so the few long ops that dominate a pass get a second sample.
    The extra runs follow in passes. The plan depends on nothing measured,
    so every run of a workload attempts the same operations.
    """
    cost = {op.name: nominal.get(op.name, workloads.DEFAULT_NOMINAL_S) for op in ops}
    runs = {op.name: 1 for op in ops}
    total = sum(cost.values())
    while True:
        fits = [op for op in ops if total + cost[op.name] <= seconds]
        if not fits:
            break
        op = min(fits, key=lambda op: (runs[op.name], -cost[op.name]))
        runs[op.name] += 1
        total += cost[op.name]
    longest_first = sorted(ops, key=lambda op: -cost[op.name])
    order = list(ops)
    for k in range(2, max(runs.values()) + 1):
        order += [op for op in longest_first if runs[op.name] >= k]
    return order


def run_planned(order, tracer) -> dict[str, list[Sample]]:
    samples: dict[str, list[Sample]] = {}
    for op in order:
        done = samples.setdefault(op.name, [])
        if tracer is None:
            modes = (False,)
        else:  # alternate which of the two goes first
            modes = (False, True) if len(done) % 4 == 0 else (True, False)
        for traced in modes:
            s = run_once(op, tracer if traced else None)
            done.append(s)
            if s.error is not None and len(done) == 1:
                detail = traceback.format_exception_only(type(s.error), s.error)
                print(f"op {op.name} raised: {detail[-1].strip()[:300]}", file=sys.stderr)
    return samples


def per_pass(samples: dict[str, list[Sample]], traced: bool, value, names=None) -> float:
    """Sum over inputs of the median of value(sample)."""
    total = 0.0
    for name, op_samples in samples.items():
        if names is None or name in names:
            total += statistics.median(value(s) for s in op_samples if s.traced == traced)
    return total


def layer_metrics(wl, ops, samples, setups, missing) -> tuple[dict, list[str]]:
    """Per-layer metrics; times are normalized like wall_s."""
    out: dict[str, dict] = {}
    absent: list[str] = []

    def put(name, unit, value, needs=()):
        if missing.intersection(needs):
            absent.append(name)
            value = 0
        out[name] = {"value": value, "unit": unit}

    for name, (unit, get, needs) in layers.TIMED_METRICS.items():
        if unit == "s":
            value = per_pass(samples, True, lambda s: get(s.snap) * s.scale)
        else:
            value = per_pass(samples, True, lambda s: get(s.snap))
        put(name, unit, value, needs)
    closures = per_pass(samples, True, lambda s: s.snap.enum_closures)
    elements = per_pass(samples, True, lambda s: s.snap.enum_elements)
    put("lattice.elements_per_closure", "ratio", elements / closures if closures else 0,
        (layers.ENUMERATE,) + layers.CLOSURES)
    for name, (unit, get, needs) in layers.SETUP_METRICS.items():
        put(name, unit, statistics.median(get(snap) * scale for _, scale, snap in setups), needs)
    untraced = per_pass(samples, False, lambda s: s.norm_wall)
    put("trace.overhead_frac", "ratio",
        per_pass(samples, True, lambda s: s.norm_wall) / untraced - 1)
    for other in workloads.WORKLOADS.values():
        for group in other.op_groups:
            value = 0.0
            if other.name == wl.name:
                names = {op.name for op in ops if op.group == group}
                value = per_pass(samples, False, lambda s: s.norm_wall, names)
            put(f"op_s.{other.name}.{group}", "s", value)
    return out, absent


def print_table(ops, samples) -> None:
    print(f"{'input':32} {'runs':>4} {'raw_wall_s':>10} {'raw_cpu_s':>10} "
          f"{'wall_s':>10} {'failed':>6}")
    for op in ops:
        plain = [s for s in samples[op.name] if not s.traced]
        print(f"{op.name:32} {len(plain):4d} "
              f"{statistics.median(s.wall for s in plain):10.4f} "
              f"{statistics.median(s.cpu for s in plain):10.4f} "
              f"{statistics.median(s.norm_wall for s in plain):10.4f} "
              f"{sum(s.failed for s in samples[op.name]):6d}")
        for s in samples[op.name]:
            if s.problem:
                print(f"  wrong answer: {s.problem[:300]}")
                break


def run_setups(wl, R, seed, work_dir, tracer):
    """Run the workload's set-up wl.setup_reps times.

    Returns the ops of the last set-up, one (raw seconds, scale, traced
    aggregates) triple per set-up, and the names the tracer did not find.
    """
    setups = []
    missing: set[str] = set()
    ops = None
    for _ in range(wl.setup_reps):
        ops = None  # free the previous set-up's inputs before building new ones
        if tracer:
            tracer.install()
            tracer.begin("setup")
        with Meter() as meter:
            ops, child = wl.setup(R, seed, work_dir, tracer is not None)
        snap = None
        if tracer:
            snap = tracer.end()
            tracer.uninstall()
            missing.update(tracer.missing)
            if child and child["snapshot"]:
                snap.merge(layers.Snapshot(**child["snapshot"]))
                missing.update(child["missing"])
        # the child normalized its own build steps; scale the rest here
        child_raw, child_norm = (child["raw_s"], child["norm_s"]) if child else (0.0, 0.0)
        norm = (meter.wall - child_raw) * meter.scale + child_norm
        setups.append((meter.wall, norm / meter.wall, snap))
    return ops, setups, missing


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        R = bootstrap.load_rackle()
    except bootstrap.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    env = bootstrap.environment(name, seed)
    print("env " + json.dumps(env))
    tracer = layers.Tracer() if trace else None
    bootstrap.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=bootstrap.OUT))
    try:
        ops, setups, missing = run_setups(wl, R, seed, work_dir, tracer)
        samples = run_planned(plan(ops, seconds, wl.nominal), tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}: {wl.why}")
    print("raw set-up times: " + ", ".join(f"{t:.4f}" for t, _, _ in setups) + " s")
    print_table(ops, samples)
    every = [s for ss in samples.values() for s in ss]
    attempted, failed = len(every), sum(s.failed for s in every)
    correct = not any(s.problem for s in every)
    metrics = {
        "wall_s": per_pass(samples, False, lambda s: s.norm_wall),
        "cpu_s": per_pass(samples, False, lambda s: s.norm_cpu),
        "setup_s": statistics.median(t * scale for t, scale, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{'raw wall_s':16} {per_pass(samples, False, lambda s: s.wall):.6g} s")
    for key, value in metrics.items():
        print(f"{key:16} {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"{'ops_failed_frac':16} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if trace:
        result_metrics, absent = layer_metrics(wl, ops, samples, setups,
                                               missing | set(tracer.missing))
        if absent:
            print("absent (function not found, reported as 0): " + ", ".join(absent))
        trace_path = bootstrap.OUT / f"trace-{name}-seed{seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans written to {trace_path.relative_to(bootstrap.ROOT)}")
    else:
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, one after the other."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"\n{'metric':36}" + "".join(f"{w:>14}" for w in results) + "  unit")
    for metric in names:
        cells = [r["metrics"].get(metric) for r in results.values()]
        unit = next(c["unit"] for c in cells if c)
        print(f"{metric:36}" + "".join(
            f"{c['value']:14.6g}" if c else f"{'-':>14}" for c in cells) + f"  {unit}")
    print(f"{'ops_failed_frac':36}" + "".join(
        f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()) + "  ratio")
    combined = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
