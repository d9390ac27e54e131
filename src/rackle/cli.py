"""Command-line surface: build lattices, run the pipeline, verify everything.

Exit codes: 0 when every reported check passes, 1 when any check fails,
2 on unusable input (unknown name, bad file, over-cap request).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from .catalog import named_group
from .config import DEFAULT_LIMITS, Limits
from .errors import FormatError, RackleError, TooLarge, UnknownGroup
from .groups import (
    FiniteGroup,
    conjugacy_classes,
    derived_length_oracle,
    group_invariants,
    load_group,
)
from .lattice import (
    are_isomorphic,
    enumerate_subrack_lattice,
    load_lattice,
    save_lattice,
    to_abstract,
)
from .racks import ConjugationRack, group_rack, load_rack
from .reconstruct import (
    lattice_derived_length,
    max_normal_abelian,
    maximal_boolean_elements,
    recover_classes,
)
from .scan import full_verification
from .topology import mobius_bottom_top, reduced_euler_characteristic


# cap flag -> (Limits field, help, least value); each subcommand registers
# the flags it reads. A C3 check drawing no samples would pass having checked
# nothing, so --samples starts at 1; --budget 0 forces sampling.
_CAP_FLAGS = {
    "--lattice-cap": ("lattice_cap", "max number of lattice elements", 0),
    "--subgroup-cap": ("subgroup_cap", "max group order for subgroup enumeration", 0),
    "--iso-budget": ("iso_node_budget", "atom placements in the isomorphism search", 0),
    "--budget": ("tuple_budget", "exhaustive tuple checking up to this many tuples", 0),
    "--samples": ("sample_count", "sample count above the tuple budget", 1),
}


def _limits_from(args: argparse.Namespace) -> Limits:
    return DEFAULT_LIMITS.with_(**{
        field: val for field, _, _ in _CAP_FLAGS.values()
        if (val := getattr(args, field, None)) is not None
    })


def _at_least(least: int) -> Callable[[str], int]:
    def count(text: str) -> int:
        val = int(text)
        if val < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {val}")
        return val

    return count


def _add_cap_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        field, help_, least = _CAP_FLAGS[flag]
        p.add_argument(flag, type=_at_least(least), dest=field, help=help_)


def _resolve_group(ref: str, limits: Limits) -> FiniteGroup:
    """A catalog name, unless ref ends in .cay or .pgen, or names no catalog
    group and exists: then a group file. A missing .cay or .pgen fails as a
    missing file, so a file never shadows a catalog name."""
    if not ref.endswith((".cay", ".pgen")):
        try:
            return named_group(ref)
        except UnknownGroup:
            if not os.path.exists(ref):
                raise
    return load_group(ref, limits=limits)


def _resolve_rack(ref: str, limits: Limits) -> ConjugationRack:
    if ref.endswith(".rk"):
        return load_rack(ref)
    return group_rack(_resolve_group(ref, limits))


def _cmd_group_info(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    g = _resolve_group(args.group, limits)
    inv = group_invariants(g)
    cc = conjugacy_classes(g)
    print(f"group {g.name or args.group}")
    print(f"  {inv.summary()}")
    print(f"  conjugacy classes: {cc.count} with sizes {sorted(cc.sizes())}")
    hist = g.order_histogram()
    pretty = ", ".join(f"{k}:{v}" for k, v in sorted(hist.items()))
    print(f"  element orders: {pretty}")
    return 0


def _cmd_lattice_build(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    rack = _resolve_rack(args.infile, limits)
    lat = enumerate_subrack_lattice(rack, limits=limits)
    save_lattice(args.outfile, lat)
    print(f"wrote {args.outfile}: {lat.size} subracks over {lat.ground_size} points")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    ab = load_lattice(args.lattice)
    print(f"lattice {args.lattice}: {ab.size} elements, {len(ab.atoms)} atoms")
    classes = recover_classes(ab)
    print(f"  recovered classes: {classes.count} with sizes {sorted(classes.sizes())}")
    mb = maximal_boolean_elements(ab)
    print(
        "  maximal Boolean elements: "
        f"{len(mb)} with atom counts {sorted(ab.supports[x].bit_count() for x in mb)}"
    )
    mna = max_normal_abelian(ab, classes)
    print(
        "  maximal normal abelian candidates: "
        f"{sorted(ab.supports[x].bit_count() for x in mna)} atoms"
    )
    dl = lattice_derived_length(ab, limits=limits)
    print(f"  derived length (lattice only): {dl}")
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    g = _resolve_group(args.group, limits)
    lat = enumerate_subrack_lattice(group_rack(g), limits=limits)
    ab = to_abstract(lat, seed=args.seed)
    dl = lattice_derived_length(ab, limits=limits)
    print(f"derived length of {g.name or args.group} from the lattice: {dl}")
    if args.lattice_only:
        return 0
    _, oracle = derived_length_oracle(g)
    agree = dl == oracle
    verdict = "PASS" if agree else "FAIL"
    print(f"{verdict} derive {g.name or args.group} lattice={dl} oracle={oracle}")
    return 0 if agree else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    a = load_lattice(args.a)
    b = load_lattice(args.b)
    mapping = are_isomorphic(a, b, limits=limits)
    if mapping is None:
        print(f"not isomorphic: {args.a} ({a.size} elements) vs {args.b} ({b.size} elements)")
    else:
        print(f"isomorphic: {args.a} and {args.b} ({a.size} elements)")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    g = _resolve_group(args.group, limits)
    lat = enumerate_subrack_lattice(group_rack(g), limits=limits)
    cc = conjugacy_classes(g)
    mu = mobius_bottom_top(lat)
    print(f"mu(bottom, top) of the subrack lattice of {g.name}: {mu}")
    if lat.size - 2 <= limits.chain_count_cap:
        chi = reduced_euler_characteristic(lat, limits=limits)
        tag = "agrees with mu" if chi == mu else "DISAGREES with mu"
        print(f"reduced Euler characteristic of the proper part: {chi} ({tag})")
    else:
        print("proper part exceeds the chain-counting cap; Mobius value stands alone")
    ok = mu == (-1) ** cc.count
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} sphere {g.name} mu={mu} c={cc.count} expected={(-1) ** cc.count}")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    limits = _limits_from(args)
    report = full_verification(
        max_order=args.order_max,
        limits=limits,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackle",
        description="subrack lattices of finite-group conjugation racks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group inspection")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p_info = group_sub.add_parser("info", help="order, invariants, classes")
    p_info.add_argument("group", help="catalog name or .cay/.pgen file")
    p_info.set_defaults(func=_cmd_group_info)

    p_lat = sub.add_parser("lattice", help="lattice construction")
    lat_sub = p_lat.add_subparsers(dest="lattice_command", required=True)
    p_build = lat_sub.add_parser("build", help="enumerate all subracks")
    p_build.add_argument("--in", dest="infile", required=True,
                         help="group name, group file, or .rk rack file")
    p_build.add_argument("--out", dest="outfile", required=True)
    _add_cap_flags(p_build, "--lattice-cap")
    p_build.set_defaults(func=_cmd_lattice_build)

    p_inv = sub.add_parser("invariants", help="lattice-only reconstruction")
    p_inv.add_argument("--lattice", required=True, help=".lat file")
    _add_cap_flags(p_inv, "--budget", "--samples")
    p_inv.set_defaults(func=_cmd_invariants)

    p_der = sub.add_parser("derive", help="derived length from the lattice")
    p_der.add_argument("--group", required=True)
    p_der.add_argument("--lattice-only", action="store_true")
    p_der.add_argument("--seed", type=int, default=None,
                       help="shuffle seed for the abstract lattice")
    _add_cap_flags(p_der, "--lattice-cap", "--budget", "--samples")
    p_der.set_defaults(func=_cmd_derive)

    p_cmp = sub.add_parser("compare", help="poset isomorphism of two lattices")
    p_cmp.add_argument("a", help="first .lat file")
    p_cmp.add_argument("b", help="second .lat file")
    _add_cap_flags(p_cmp, "--iso-budget")
    p_cmp.set_defaults(func=_cmd_compare)

    p_top = sub.add_parser("topology", help="Mobius and Euler characteristics")
    p_top.add_argument("--group", required=True)
    _add_cap_flags(p_top, "--lattice-cap")
    p_top.set_defaults(func=_cmd_topology)

    p_ver = sub.add_parser("verify", help="full catalog verification report")
    p_ver.add_argument("--order-max", type=_at_least(1), default=12, dest="order_max")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--exhaustive", action="store_true",
                       help="never sample; sweep every representative tuple")
    _add_cap_flags(
        p_ver, "--lattice-cap", "--subgroup-cap", "--iso-budget", "--budget", "--samples"
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, UnknownGroup, OSError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RackleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
