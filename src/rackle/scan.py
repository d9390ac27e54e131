"""Per-group verification pipeline and the lattice-isomorphic pair scan.

Every check emits one `PASS|FAIL <check> <witness>` line; reports carry the
seed and configuration that produced them so a rerun is byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .closedsets import bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import RackleError, TooLarge
from .groups import (
    FiniteGroup,
    conjugacy_classes,
    derived_length_oracle,
    group_invariants,
    maximal_abelian_subgroups,
    maximal_normal_abelian_oracle,
    normal_subgroups,
    quotient,
)
from .lattice import (
    are_isomorphic,
    brute_force_closed_masks,
    check_isomorphism,
    enumerate_subrack_lattice,
    to_abstract,
)
from .racks import group_rack, memo_closure
from .reconstruct import (
    c3_tuples,
    c3_witness,
    coset_partition_of,
    is_hypothetical_coset_partition,
    lattice_derived_length,
    max_normal_abelian,
    maximal_boolean_elements,
    quotient_steps,
    recover_classes,
)
from .topology import mobius_bottom_top, reduced_euler_characteristic


@dataclass
class ScanReport:
    seed: int
    config: str
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(ln.startswith("FAIL") for ln in self.lines)

    def failures(self) -> list[str]:
        return [ln for ln in self.lines if ln.startswith("FAIL")]

    def text(self) -> str:
        head = [f"# seed={self.seed} {self.config}"]
        return "\n".join(head + self.lines) + "\n"


def verify_group(
    g: FiniteGroup,
    limits: Limits = DEFAULT_LIMITS,
    seed: int = 0,
    exhaustive: bool = False,
) -> list[str]:
    """Run the whole pipeline on one group; one report line per check."""
    lines: list[str] = []
    name = g.name or f"order{g.order}"

    rack = group_rack(g)
    try:
        lat = enumerate_subrack_lattice(rack, limits=limits)
    except TooLarge as exc:
        lines.append(f"FAIL enumerate {name} {exc}")
        return lines
    note = ""
    if g.order <= 12:
        if brute_force_closed_masks(rack) == lat.elements:
            note = ", brute-force scan agrees"
        else:
            lines.append(f"FAIL enumerate {name} lectic and brute-force outputs differ")
            return lines
    lines.append(f"PASS enumerate {name} {lat.size} elements{note}")

    def compare(check: str, got: set[int], want: set[int], passed: str) -> None:
        """One line: PASS when the lattice's masks are the oracle's, else FAIL
        naming both sets."""
        lines.append(f"PASS {check} {name} {passed}" if got == want else
                     f"FAIL {check} {name} lattice {sorted(got)} vs oracle {sorted(want)}")

    cc = conjugacy_classes(g)
    class_masks = set(map(mask_of, cc.classes))
    full = (1 << g.order) - 1
    # a group rack is a quandle: support bit p is the atom {p}, ground element p
    compare("coatoms", {lat.supports[x] for x in lat.proper_maximal},
            {full ^ c for c in class_masks}, f"c={cc.count} class complements")
    mb = maximal_boolean_elements(lat)
    if g.order <= limits.subgroup_cap:
        compare("boolean-elements", {lat.supports[x] for x in mb},
                set(map(mask_of, maximal_abelian_subgroups(g, limits))),
                f"{len(mb)} maximal abelian")
    else:
        lines.append(f"SKIP boolean-elements {name} order over subgroup cap")
    classes = recover_classes(lat)
    compare("classes", set(classes.blocks), class_masks, "blocks match conjugacy classes")
    mna = max_normal_abelian(lat, classes)
    oracle_mna = set(map(mask_of, maximal_normal_abelian_oracle(g)))
    compare("normal-abelian", {lat.supports[x] for x in mna}, oracle_mna,
            f"{len(mna)} candidates")

    lines.append(_coset_join_check(g, name, limits, seed, exhaustive))

    for nmask in sorted(oracle_mna):
        rep = is_hypothetical_coset_partition(
            lat, _cosets_as_masks(g, frozenset(bits(nmask))), exhaustive=exhaustive,
            seed=seed, limits=limits,
        )
        if not rep.ok:
            lines.append(f"FAIL hypothetical {name} N={bits(nmask)}: " + "; ".join(rep.lines))
            break
    else:
        lines.append(f"PASS hypothetical {name} coset partitions satisfy the conditions")

    # the recursion's own quotient steps, on the labelled lattice: support bit
    # p is group element p, so each N and its join poset name G/N
    try:
        steps = list(quotient_steps(lat, limits))
    except RackleError as exc:
        lines.append(f"FAIL quotient-poset {name} {type(exc).__name__}: {exc}")
    else:
        for nmask, _, jp in steps:
            q, _ = quotient(g, frozenset(bits(nmask)))
            q_lat = to_abstract(
                enumerate_subrack_lattice(group_rack(q), limits=limits), seed=seed
            )
            mapping = are_isomorphic(jp, q_lat, limits=limits)
            if mapping is None or not check_isomorphism(jp, q_lat, mapping):
                lines.append(f"FAIL quotient-poset {name} N={bits(nmask)}: "
                             "join poset not isomorphic to quotient lattice")
                break
        else:
            lines.append(f"PASS quotient-poset {name} {len(steps)} quotients match join posets")

    _, dl_oracle = derived_length_oracle(g)
    try:
        dl_lat = lattice_derived_length(to_abstract(lat, seed=seed), limits=limits)
    except RackleError as exc:
        dl_lat = repr(exc)               # never the oracle's length: a FAIL
    verdict = "PASS" if dl_lat == dl_oracle else "FAIL"
    lines.append(f"{verdict} derive {name} lattice={dl_lat} oracle={dl_oracle}")

    mu = mobius_bottom_top(lat)
    sphere_ok = mu == (-1) ** cc.count
    chi_note = ""
    if lat.size - 2 <= limits.chain_count_cap:
        chi = reduced_euler_characteristic(lat, limits=limits)
        if chi != mu:
            lines.append(f"FAIL sphere {name} mu={mu} chain-count={chi}")
            return lines
        chi_note = ", chain count agrees"
    if sphere_ok:
        lines.append(f"PASS sphere {name} mu={mu} c={cc.count}{chi_note}")
    else:
        lines.append(f"FAIL sphere {name} mu={mu} expected {(-1) ** cc.count}")
    return lines


def _cosets_as_masks(g: FiniteGroup, members: frozenset[int]) -> list[int]:
    return [mask_of(c) for c in coset_partition_of(g, members)]


def _coset_join_check(
    g: FiniteGroup, name: str, limits: Limits, seed: int, exhaustive: bool
) -> str:
    """Coset-join sweep: joins of coset subsets over all normal subgroups.

    Condition C3 on the cosets, with closures computed on the group rack,
    not read off the lattice: one memo shared by every normal subgroup, so
    seeds with common high bits share their work. One rng serves them all.

    The trivial subgroup is counted, not checked: its parts are singletons,
    so the reps are the whole union U and join = predicted = close(U), one
    closure of one mask. Its stream is never read: it draws nothing from rng.
    """
    close = memo_closure(group_rack(g).op)
    rng = random.Random(seed)
    checked = 0
    normals = normal_subgroups(g)
    for members in normals:
        cosets = _cosets_as_masks(g, members)
        space, sampled, tuples = c3_tuples(cosets, rng, exhaustive, limits)
        witness = c3_witness(cosets, close, tuples) if len(members) > 1 else None
        if witness is not None:
            _, reps, join, predicted = witness
            return (
                f"FAIL coset-joins {name} N={sorted(members)} reps={reps}: "
                f"join {join:b} vs predicted {predicted:b}"
            )
        checked += limits.sample_count if sampled else space
    return f"PASS coset-joins {name} {checked} tuples across {len(normals)} normal subgroups"


# ---------------------------------------------------------------------------
# pair scan


def pairs_scan(
    max_order: int = 12,
    limits: Limits = DEFAULT_LIMITS,
    seed: int = 0,
) -> ScanReport:
    """Compare invariants across every lattice-isomorphic catalog pair."""
    from .catalog import catalog_entries

    report = ScanReport(seed=seed, config=f"order_max={max_order}")
    groups = catalog_entries(max_order)
    lats = []
    for i, g in enumerate(groups):
        lat = enumerate_subrack_lattice(group_rack(g), limits=limits)
        lats.append(to_abstract(lat, seed=seed + i))
        report.lines.append(
            f"INFO group {g.name} order={g.order} lattice={lat.size}"
        )
    iso_pairs = 0
    invariants = {}                      # group index -> its invariants, on first use
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            a, b = lats[i], lats[j]
            if a.size != b.size or len(a.atoms) != len(b.atoms):
                continue
            mapping = are_isomorphic(a, b, limits=limits)
            if mapping is None:
                report.lines.append(
                    f"INFO pair {groups[i].name} {groups[j].name} same size, not isomorphic"
                )
                continue
            if not check_isomorphism(a, b, mapping):
                report.lines.append(
                    f"FAIL pair {groups[i].name} {groups[j].name} reported map is not an isomorphism"
                )
                continue
            iso_pairs += 1
            for k in (i, j):
                if k not in invariants:
                    invariants[k] = group_invariants(groups[k])
            inv_a, inv_b = invariants[i], invariants[j]
            # what isomorphic lattices must share; the nilpotency class itself need not agree
            shared = [(v.is_abelian, v.nilpotency_class is None, v.is_solvable,
                       v.derived_length, v.is_simple) for v in (inv_a, inv_b)]
            if shared[0] == shared[1]:
                report.lines.append(
                    f"PASS pair {groups[i].name} {groups[j].name} isomorphic lattices, "
                    f"invariants agree (dl={inv_a.derived_length})"
                )
            else:
                report.lines.append(
                    f"FAIL pair {groups[i].name} {groups[j].name} isomorphic lattices "
                    f"but invariants differ: {inv_a.summary()} vs {inv_b.summary()}"
                )
            if inv_a.nilpotency_class != inv_b.nilpotency_class:
                report.lines.append(
                    f"INFO pair {groups[i].name} {groups[j].name} nilpotency classes "
                    f"{inv_a.nilpotency_class} vs {inv_b.nilpotency_class}"
                )
    verdict = "PASS" if report.ok else "FAIL"
    report.lines.append(
        f"{verdict} pairs-scan {len(groups)} groups, {iso_pairs} isomorphic pairs, "
        f"{len(report.failures())} violations"
    )
    return report


def full_verification(
    max_order: int = 12,
    limits: Limits = DEFAULT_LIMITS,
    seed: int = 0,
    exhaustive: bool = False,
) -> ScanReport:
    """The pair scan's report, with verify_group's lines for the catalog in front
    and the settings of their C3 checks in its header."""
    from .catalog import catalog_entries

    report = pairs_scan(max_order, limits=limits, seed=seed)
    report.config += f" exhaustive={exhaustive} tuple_budget={limits.tuple_budget}"
    groups = catalog_entries(max_order)
    report.lines[:0] = [ln for g in groups for ln in verify_group(g, limits, seed, exhaustive)]
    return report
