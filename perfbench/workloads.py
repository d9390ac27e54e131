"""The three workloads: their inputs, set-up, operations and answer checks.

Every operation goes through names that ``rackle/__init__.py`` exports. An
operation returns None when its answer matches the oracle computed in set-up,
or a one-line description of the disagreement; an exception is left to the
runner, which counts the operation as failed.

Why these inputs (see README.md for the measurements behind them):

* derive: the paper's headline path on groups where enumeration dominates
  (A5, D12) and on Z2^4, where every closure is canonical, so an
  enumeration-pruning change should show no gain there.
* invariants: lattice-only layers on stored ``.lat`` files; the timed region
  holds no enumeration. A5 is absent because writing its Hasse diagram takes
  14 s of set-up.
* verify: the group-side oracles, the coset-join sweep, the pair scan (order
  12: at 16 one Boolean pair check would take hours) and two isomorphism
  compares, one of which overflows the recursion of ``are_isomorphic``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

DERIVE_GROUPS = ("S4", "sl23", "Z2xD4", "Z2xQ8", "D12", "A5", "Z2xZ2xZ2xZ2")
INVARIANT_GROUPS = ("S4", "sl23", "D8", "Q16", "Z2xD4", "Z2xQ8", "D12", "Z2xZ2xZ2xZ2")
STALL = "stall"
VERIFY_ORDER_MAX = 12
VERIFY_EXTRA = ("S4", "sl23")
PAIRS_ORDER_MAX = 12
COMPARE_PAIRS = (("D8", "Q16"), ("Z2xD4", "Z2xQ8"))

# Facts about the bundled stall fixture (no group behind it): class sizes,
# maximal-Boolean and normal-abelian atom counts, and 3 classes, so mu = -1.
STALL_CLASS_SIZES = [1, 3, 3]
STALL_BOOLEAN_ATOMS = [1] * 7
STALL_NORMAL_ABELIAN_ATOMS = [1]


@dataclass
class Op:
    name: str                      # input name, unique in the workload
    group: str                     # op_s.<workload>.<group> sums these ops
    run: Callable[[], str | None]


def make_group(R, name: str):
    """Catalog groups by name, as ``rackle derive --group`` resolves them."""
    if name == "D12":
        return R.dihedral(24)
    return R.named_group(name)


def limits_for(R, name: str):
    """A5 needs the enumeration ground cap raised, while that cap exists."""
    fields = {f.name for f in dataclasses.fields(R.Limits)}
    if name == "A5" and "ground_cap" in fields:
        return dataclasses.replace(R.DEFAULT_LIMITS, ground_cap=60)
    return R.DEFAULT_LIMITS


# ---------------------------------------------------------------------------
# derive: group_rack -> enumerate -> to_abstract(seed) -> derived length


def _derive_op(R, g, limits, seed, expected) -> str | None:
    lat = R.enumerate_subrack_lattice(R.group_rack(g), limits=limits)
    ab = R.to_abstract(lat, seed=seed)
    dl = R.lattice_derived_length(ab, limits=limits)
    if dl == expected:  # NOT_SOLVABLE is a singleton, equal only to itself
        return None
    return f"lattice derived length {dl}, oracle {expected}"


def setup_derive(R, seed: int, work_dir: Path, trace: bool) -> tuple[list[Op], dict | None]:
    rng = random.Random(seed)
    ops = []
    for name in DERIVE_GROUPS:
        g = make_group(R, name)
        _, expected = R.derived_length_oracle(g)
        run = partial(_derive_op, R, g, limits_for(R, name), rng.randrange(1 << 30), expected)
        ops.append(Op(name, name, run))
    return ops, None


# ---------------------------------------------------------------------------
# invariants: load .lat -> to_abstract(seed) -> classes, Boolean, normal
# abelian, derived length, Mobius


def _build_lattice(R, name: str, path: Path) -> None:
    lat = R.enumerate_subrack_lattice(R.group_rack(make_group(R, name)))
    R.save_lattice(str(path), lat)


def _save_stall(R, path: Path) -> None:
    R.save_lattice(str(path), R.stall_lattice())


def lattice_builds(R, work_dir: Path) -> list[Callable[[], None]]:
    """The set-up proper: ``rackle lattice build`` for every input, as steps."""
    steps = [partial(_build_lattice, R, name, work_dir / f"{name}.lat")
             for name in INVARIANT_GROUPS]
    return steps + [partial(_save_stall, R, work_dir / f"{STALL}.lat")]


def _invariant_oracle(R, g) -> tuple:
    cc = R.conjugacy_classes(g)
    return (
        sorted(cc.sizes()),
        sorted(len(h) for h in R.maximal_abelian_subgroups(g)),
        sorted(len(h) for h in R.maximal_normal_abelian_oracle(g)),
        R.derived_length_oracle(g)[1],
        (-1) ** cc.count,
    )


def _invariants_op(R, path: str, seed: int, expected: tuple) -> str | None:
    lat = R.load_lattice(path)
    ab = R.to_abstract(lat, seed=seed) if isinstance(lat, R.SubrackLattice) else lat
    ctx = R.ReconstructionContext(ab)
    classes = R.recover_classes(ctx)
    boolean = R.maximal_boolean_elements(ctx)
    normal = R.max_normal_abelian(ctx, classes)
    dl = R.lattice_derived_length(ab)
    mu = R.mobius_bottom_top(ab)
    got = (
        sorted(classes.sizes()),
        sorted(len(ab.atoms_below(x)) for x in boolean),
        sorted(len(ab.atoms_below(x)) for x in normal),
        dl,
        mu,
    )
    labels = ("class sizes", "maximal Boolean atoms", "normal abelian atoms",
              "derived length", "mu")
    bad = [
        f"{label} {g} vs oracle {e}"
        for label, g, e in zip(labels, got, expected)
        if g != e
    ]
    return "; ".join(bad) or None


def setup_invariants(R, seed: int, work_dir: Path, trace: bool) -> tuple[list[Op], dict | None]:
    """Write the .lat files in a child process, then compute the oracles here.

    The child keeps the set-up's memory out of this process, so the peak RSS
    of this process is that of loading and reconstructing.
    """
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("build_lattices.py")),
         str(work_dir), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"lattice set-up failed: {child.stderr.strip()[-2000:]}")
    child_trace = json.loads(child.stdout.strip().splitlines()[-1])
    rng = random.Random(seed)
    ops = []
    for name in INVARIANT_GROUPS:
        expected = _invariant_oracle(R, make_group(R, name))
        run = partial(_invariants_op, R, str(work_dir / f"{name}.lat"),
                      rng.randrange(1 << 30), expected)
        ops.append(Op(name, name, run))
    expected = (STALL_CLASS_SIZES, STALL_BOOLEAN_ATOMS, STALL_NORMAL_ABELIAN_ATOMS,
                R.NOT_SOLVABLE, (-1) ** len(STALL_CLASS_SIZES))
    ops.append(Op(STALL, STALL, partial(_invariants_op, R, str(work_dir / f"{STALL}.lat"),
                                        0, expected)))
    return ops, child_trace


# ---------------------------------------------------------------------------
# verify: group oracles, coset joins, pair scan, isomorphism search and check


def _verify_group_op(R, g, seed) -> str | None:
    fails = [ln for ln in R.verify_group(g, seed=seed) if ln.startswith("FAIL")]
    return "; ".join(fails) or None


def _pairs_op(R, seed) -> str | None:
    report = R.pairs_scan(PAIRS_ORDER_MAX, seed=seed)
    if not report.ok:
        return "; ".join(report.failures())
    witness = [ln for ln in report.lines
               if ln.startswith("PASS pair") and "Z2xZ2" in ln and "Z4 " in ln]
    return None if witness else "Z4 / Z2xZ2 witness pair not exhibited"


def _compare_op(R, a, b) -> str | None:
    """Both compared pairs have isomorphic lattices: a search must find a map
    and the check must accept it."""
    mapping = R.are_isomorphic(a, b)
    if mapping is None:
        return "no isomorphism found between isomorphic lattices"
    if not R.check_isomorphism(a, b, mapping):
        return "reported map is not an isomorphism"
    return None


def setup_verify(R, seed: int, work_dir: Path, trace: bool) -> tuple[list[Op], dict | None]:
    rng = random.Random(seed)
    ops = []
    groups = R.catalog_entries(VERIFY_ORDER_MAX) + [R.named_group(n) for n in VERIFY_EXTRA]
    for g in groups:
        ops.append(Op(f"verify_group.{g.name}", "groups",
                      partial(_verify_group_op, R, g, rng.randrange(1 << 30))))
    ops.append(Op(f"pairs_scan.{PAIRS_ORDER_MAX}", f"pairs_scan_{PAIRS_ORDER_MAX}",
                  partial(_pairs_op, R, rng.randrange(1 << 30))))
    for left, right in COMPARE_PAIRS:
        lats = [
            R.to_abstract(R.enumerate_subrack_lattice(R.group_rack(R.named_group(n))),
                          seed=rng.randrange(1 << 30))
            for n in (left, right)
        ]
        name = f"compare.{left}-{right}"
        ops.append(Op(name, name, partial(_compare_op, R, *lats)))
    return ops, None


# Normalized seconds of one run of each op at the seed (see reference.py),
# rounded. The runner plans the timed region from these, not from the
# times it measures, so every run of a workload attempts the same ops. An op
# not listed here counts as DEFAULT_NOMINAL_S.
DEFAULT_NOMINAL_S = 1.0
NOMINAL_S: dict[str, dict[str, float]] = {
    "derive": {
        "S4": 0.1, "sl23": 0.65, "Z2xD4": 0.16, "Z2xQ8": 0.16, "D12": 2.9,
        "A5": 3.8, "Z2xZ2xZ2xZ2": 0.65,
    },
    "invariants": {
        "S4": 0.05, "sl23": 0.6, "D8": 0.07, "Q16": 0.08, "Z2xD4": 0.8,
        "Z2xQ8": 0.8, "D12": 6.3, "Z2xZ2xZ2xZ2": 1.1, STALL: 0.001,
    },
    "verify": {
        "verify_group.triv": 0.001, "verify_group.Z2": 0.001,
        "verify_group.Z3": 0.001, "verify_group.Z2xZ2": 0.002,
        "verify_group.Z4": 0.002, "verify_group.Z5": 0.003,
        "verify_group.S3": 0.005, "verify_group.Z6": 0.006,
        "verify_group.Z7": 0.014, "verify_group.D4": 0.019,
        "verify_group.Q8": 0.019, "verify_group.Z2xZ2xZ2": 0.025,
        "verify_group.Z4xZ2": 0.018, "verify_group.Z8": 0.016,
        "verify_group.Z3xZ3": 0.034, "verify_group.Z9": 0.032,
        "verify_group.D5": 0.063, "verify_group.Z10": 0.073,
        "verify_group.Z11": 0.14, "verify_group.A4": 0.33,
        "verify_group.D6": 0.32, "verify_group.Dic3": 0.35,
        "verify_group.Z12": 0.18, "verify_group.Z6xZ2": 0.39,
        "verify_group.S4": 0.83, "verify_group.sl23": 1.9,
        f"pairs_scan.{PAIRS_ORDER_MAX}": 7.1, "compare.D8-Q16": 0.65,
        "compare.Z2xD4-Z2xQ8": 5.3,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    setup_reps: int            # set-ups per run; setup_s is their median
    op_groups: tuple[str, ...]  # op_s.<name>.<group> metrics

    @property
    def nominal(self) -> dict[str, float]:
        return NOMINAL_S[self.name]


WORKLOADS = {
    "derive": Workload(
        "derive",
        "rackle derive per group: enumeration-heavy (A5, D12) plus Z2^4, "
        "where pruning enumeration cannot help",
        setup_derive, 10, DERIVE_GROUPS),
    "invariants": Workload(
        "invariants",
        "rackle invariants + Mobius on stored .lat files: lattice-only layers, "
        "no enumeration in the timed region",
        setup_invariants, 1, INVARIANT_GROUPS + (STALL,)),
    "verify": Workload(
        "verify",
        "group oracles, coset joins, pair scan and isomorphism search and check, "
        "which no other workload runs",
        setup_verify, 5,
        ("groups", f"pairs_scan_{PAIRS_ORDER_MAX}")
        + tuple(f"compare.{a}-{b}" for a, b in COMPARE_PAIRS)),
}
