"""Per-layer tracing for the benchmark, from outside the package.

The tracer wraps each layer's public functions at every ``rackle`` module
attribute that is bound to them, so calls between modules (which look the
name up in the caller's module) go through the wrapper. No source file is
edited, and ``uninstall`` puts the original functions back.

Each wrapped call is a span. For every function the tracer keeps the call
count, the inclusive time (outermost call only, so recursion is not counted
twice) and the self time (duration minus the time of wrapped child spans).
For every layer it keeps the inclusive time. Hot leaf functions (closures,
the Boolean-interval test) are aggregated only; every other span is also
recorded as ``(op, id, parent, name, start, end)`` so a run can be replayed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# layer -> public functions timed at that layer's boundary
LAYERS: dict[str, tuple[str, ...]] = {
    "catalog": (
        "cyclic", "dihedral", "dicyclic", "symmetric", "alternating", "sl23",
        "stall_lattice", "catalog_entries", "named_group",
    ),
    "groups": (
        "conjugacy_classes", "derived_length_oracle", "normal_subgroups",
        "maximal_normal_abelian_oracle", "maximal_abelian_subgroups",
        "subgroups", "quotient", "group_invariants",
    ),
    "racks": ("group_rack", "closure_mask", "closure_extend", "rack_closure"),
    "lattice": (
        "enumerate_subrack_lattice", "to_abstract", "load_lattice",
        "save_lattice", "are_isomorphic", "check_isomorphism",
        "is_boolean_interval",
    ),
    "reconstruct": (
        "recover_classes", "maximal_boolean_elements", "max_normal_abelian",
        "find_coset_partition", "join_poset", "is_hypothetical_coset_partition",
        "lattice_derived_length",
    ),
    "topology": ("mobius_bottom_top", "reduced_euler_characteristic"),
    "scan": ("verify_group", "pairs_scan"),
}

# called thousands of times per op: aggregate, never record individually
HOT = frozenset({"racks.closure_mask", "racks.closure_extend", "lattice.is_boolean_interval"})

ENUMERATE = "lattice.enumerate_subrack_lattice"
CLOSURES = ("racks.closure_mask", "racks.closure_extend")


@dataclass
class Snapshot:
    """Aggregates of one region (one op, or one set-up)."""

    calls: dict[str, int] = field(default_factory=dict)
    incl: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    enum_closures: int = 0
    enum_elements: int = 0

    def merge(self, other: "Snapshot") -> None:
        for mine, theirs in (
            (self.calls, other.calls), (self.incl, other.incl),
            (self.self_s, other.self_s), (self.layer, other.layer),
        ):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        self.enum_closures += other.enum_closures
        self.enum_elements += other.enum_elements


class Tracer:
    def __init__(self) -> None:
        self.snap = Snapshot()
        self.spans: list[tuple] = []
        self.op = ""
        self.missing: list[str] = []        # "layer.function" names not found
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []        # [child_time, span_id] per open call
        self._depth: dict[str, int] = {}
        self._next_id = 1

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; note the ones that do not."""
        self.missing = []
        for layer, names in LAYERS.items():
            try:
                home = importlib.import_module(f"rackle.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "rackle":
                        continue
                    if vars(mod).get(name) is orig:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched = []

    # -- regions ------------------------------------------------------------

    def begin(self, op: str) -> None:
        self.snap = Snapshot()
        self.op = op

    def end(self) -> Snapshot:
        snap, self.snap = self.snap, Snapshot()
        return snap

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        tracer = self
        hot = key in HOT
        is_closure = key in CLOSURES
        is_enumerate = key == ENUMERATE
        depth = self._depth
        depth.setdefault(key, 0)
        depth.setdefault(layer, 0)
        depth.setdefault(ENUMERATE, 0)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = 0
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id or parent]
            stack.append(frame)
            depth[key] += 1
            depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                snap = tracer.snap
                snap.calls[key] = snap.calls.get(key, 0) + 1
                snap.self_s[key] = snap.self_s.get(key, 0.0) + d - frame[0]
                depth[key] -= 1
                if depth[key] == 0:
                    snap.incl[key] = snap.incl.get(key, 0.0) + d
                depth[layer] -= 1
                if depth[layer] == 0:
                    snap.layer[layer] = snap.layer.get(layer, 0.0) + d
                if is_closure and depth[ENUMERATE]:
                    snap.enum_closures += 1
                if not hot:
                    tracer.spans.append((tracer.op, span_id, parent, key, t0, t1))
            if is_enumerate:
                tracer.snap.enum_elements += getattr(result, "size", 0)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics of one region

def _incl(key):
    return lambda s: s.incl.get(key, 0.0)


def _self(key):
    return lambda s: s.self_s.get(key, 0.0)


def _calls(key):
    return lambda s: s.calls.get(key, 0)


def _sum(*getters):
    return lambda s: sum(g(s) for g in getters)


# name -> (unit, value from a Snapshot, functions it needs). Names ending in
# _s are inclusive times unless they say _self_s; these cover the timed ops.
TIMED_METRICS: dict[str, tuple[str, object, tuple[str, ...]]] = {
    "groups.oracle_s": ("s", lambda s: s.layer.get("groups", 0.0), tuple(
        f"groups.{n}" for n in LAYERS["groups"])),
    "groups.normal_subgroups_calls": ("count", _calls("groups.normal_subgroups"),
                                      ("groups.normal_subgroups",)),
    "racks.closure_s": ("s", _sum(*map(_incl, CLOSURES)), CLOSURES),
    "racks.closure_calls": ("count", _sum(*map(_calls, CLOSURES)), CLOSURES),
    "lattice.enumerate_s": ("s", _incl(ENUMERATE), (ENUMERATE,)),
    "lattice.load_s": ("s", _incl("lattice.load_lattice"), ("lattice.load_lattice",)),
    "lattice.to_abstract_s": ("s", _incl("lattice.to_abstract"), ("lattice.to_abstract",)),
    "lattice.iso_search_s": ("s", _incl("lattice.are_isomorphic"), ("lattice.are_isomorphic",)),
    "lattice.iso_check_s": ("s", _incl("lattice.check_isomorphism"),
                            ("lattice.check_isomorphism",)),
    "lattice.iso_calls": ("count", _calls("lattice.are_isomorphic"), ("lattice.are_isomorphic",)),
    "reconstruct.classes_s": ("s", _incl("reconstruct.recover_classes"),
                              ("reconstruct.recover_classes",)),
    "reconstruct.boolean_s": ("s", _incl("reconstruct.maximal_boolean_elements"),
                              ("reconstruct.maximal_boolean_elements",)),
    "reconstruct.normal_abelian_s": ("s", _incl("reconstruct.max_normal_abelian"),
                                     ("reconstruct.max_normal_abelian",)),
    "reconstruct.coset_partition_s": ("s", _incl("reconstruct.find_coset_partition"),
                                      ("reconstruct.find_coset_partition",)),
    "reconstruct.join_poset_s": ("s", _incl("reconstruct.join_poset"),
                                 ("reconstruct.join_poset",)),
    "reconstruct.derive_self_s": ("s", _self("reconstruct.lattice_derived_length"),
                                  ("reconstruct.lattice_derived_length",)),
    "reconstruct.derive_calls": ("count", _calls("reconstruct.lattice_derived_length"),
                                 ("reconstruct.lattice_derived_length",)),
    "reconstruct.hypothetical_s": ("s", _incl("reconstruct.is_hypothetical_coset_partition"),
                                   ("reconstruct.is_hypothetical_coset_partition",)),
    "topology.mobius_s": ("s", _incl("topology.mobius_bottom_top"),
                          ("topology.mobius_bottom_top",)),
    "topology.euler_s": ("s", _incl("topology.reduced_euler_characteristic"),
                         ("topology.reduced_euler_characteristic",)),
    "scan.verify_group_self_s": ("s", _self("scan.verify_group"), ("scan.verify_group",)),
    "scan.pairs_self_s": ("s", _self("scan.pairs_scan"), ("scan.pairs_scan",)),
}

# these cover one set-up (the median set-up of the run)
SETUP_METRICS: dict[str, tuple[str, object, tuple[str, ...]]] = {
    "catalog.build_s": ("s", lambda s: s.layer.get("catalog", 0.0), tuple(
        f"catalog.{n}" for n in LAYERS["catalog"])),
    "lattice.save_s": ("s", _incl("lattice.save_lattice"), ("lattice.save_lattice",)),
    "setup.lattice.enumerate_s": ("s", _incl(ENUMERATE), (ENUMERATE,)),
    "setup.racks.closure_s": ("s", _sum(*map(_incl, CLOSURES)), CLOSURES),
}
