"""Per-group verification pipeline and the lattice-isomorphic pair scan.

Every check emits one `PASS|FAIL <check> <witness>` line; reports carry the
seed and configuration that produced them so a rerun is byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
from .racks import bits, group_rack, mask_of, memo_closure
from .reconstruct import (
    HypotheticalCosetPartition,
    c3_tuples,
    c3_witness,
    coset_partition_of,
    find_coset_partition,
    is_hypothetical_coset_partition,
    join_poset,
    lattice_derived_length,
    max_normal_abelian,
    maximal_boolean_elements,
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

    cc = conjugacy_classes(g)
    full = (1 << g.order) - 1
    complements = {full ^ mask_of(c) for c in cc.classes}
    # a group rack is a quandle: support bit p is the atom {p}, ground element p
    agree = {lat.elements[x] for x in lat.proper_maximal} == complements
    if agree:
        lines.append(f"PASS coatoms {name} c={cc.count} class complements")
    else:
        lines.append(f"FAIL coatoms {name} coatoms do not match class complements")

    mb = maximal_boolean_elements(lat)
    mb_supports = {lat.supports[x] for x in mb}
    if g.order <= limits.subgroup_cap:
        oracle_ab = {mask_of(h) for h in maximal_abelian_subgroups(g, limits)}
        if mb_supports == oracle_ab:
            lines.append(f"PASS boolean-elements {name} {len(mb)} maximal abelian")
        else:
            lines.append(
                f"FAIL boolean-elements {name} lattice {sorted(mb_supports)} "
                f"vs oracle {sorted(oracle_ab)}"
            )
    else:
        lines.append(f"SKIP boolean-elements {name} order over subgroup cap")

    classes = recover_classes(lat)
    class_masks = {mask_of(c) for c in cc.classes}
    if {b for b in classes.blocks} == class_masks:
        lines.append(f"PASS classes {name} blocks match conjugacy classes")
    else:
        lines.append(f"FAIL classes {name} blocks differ from conjugacy classes")

    mna = max_normal_abelian(lat, classes)
    mna_supports = {lat.supports[x] for x in mna}
    oracle_mna = {mask_of(h) for h in maximal_normal_abelian_oracle(g)}
    if mna_supports == oracle_mna:
        lines.append(f"PASS normal-abelian {name} {len(mna)} candidates")
    else:
        lines.append(
            f"FAIL normal-abelian {name} lattice {sorted(mna_supports)} "
            f"vs oracle {sorted(oracle_mna)}"
        )

    lines.append(_coset_join_check(g, name, limits, seed, exhaustive))

    hyp_fail = None
    quot_fail = None
    quot_count = 0
    for nmask in sorted(oracle_mna):
        members = frozenset(bits(nmask))
        parts_group = _cosets_as_masks(g, members)
        partition = HypotheticalCosetPartition(parts=tuple(parts_group))
        rep = is_hypothetical_coset_partition(
            lat, partition, classes=classes, exhaustive=exhaustive, seed=seed,
            limits=limits,
        )
        if not rep.ok:
            hyp_fail = f"N={sorted(members)}: " + "; ".join(rep.lines)
            break
        n_elem = lat.support_index[nmask]
        try:
            found = find_coset_partition(lat, n_elem, classes, limits=limits)
            jp = join_poset(lat, found)
        except RackleError as exc:
            quot_fail = f"N={sorted(members)}: {exc}"
            break
        q, _ = quotient(g, members)
        q_lat = to_abstract(
            enumerate_subrack_lattice(group_rack(q), limits=limits), seed=seed
        )
        mapping = are_isomorphic(jp, q_lat, limits=limits)
        if mapping is None or not check_isomorphism(jp, q_lat, mapping):
            quot_fail = f"N={sorted(members)}: join poset not isomorphic to quotient lattice"
            break
        quot_count += 1
    if hyp_fail:
        lines.append(f"FAIL hypothetical {name} {hyp_fail}")
    else:
        lines.append(f"PASS hypothetical {name} coset partitions satisfy the conditions")
    if quot_fail:
        lines.append(f"FAIL quotient-poset {name} {quot_fail}")
    else:
        lines.append(
            f"PASS quotient-poset {name} {quot_count} quotients match join posets"
        )

    shuffled = to_abstract(lat, seed=seed)
    dl_lat = lattice_derived_length(shuffled, limits=limits)
    _, dl_oracle = derived_length_oracle(g)
    if dl_lat == dl_oracle:
        lines.append(f"PASS derive {name} lattice={dl_lat} oracle={dl_oracle}")
    else:
        lines.append(f"FAIL derive {name} lattice={dl_lat} oracle={dl_oracle}")

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
    """
    close = memo_closure(group_rack(g).op)
    rng = random.Random(seed)
    checked = 0
    normals = normal_subgroups(g)
    for members in normals:
        cosets = _cosets_as_masks(g, members)
        space, sampled, tuples = c3_tuples(cosets, rng, exhaustive, limits)
        witness = c3_witness(cosets, close, tuples)
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
    exhaustive: bool = False,
) -> ScanReport:
    """Compare invariants across every lattice-isomorphic catalog pair."""
    from .catalog import catalog_entries

    config = (
        f"order_max={max_order} exhaustive={exhaustive} "
        f"tuple_budget={limits.tuple_budget}"
    )
    report = ScanReport(seed=seed, config=config)
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
            agree = (
                inv_a.is_abelian == inv_b.is_abelian
                and (inv_a.nilpotency_class is None) == (inv_b.nilpotency_class is None)
                and inv_a.is_solvable == inv_b.is_solvable
                and inv_a.derived_length == inv_b.derived_length
                and inv_a.is_simple == inv_b.is_simple
            )
            if agree:
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
    """verify_group over the catalog, then the pair scan, in one report."""
    from .catalog import catalog_entries

    config = (
        f"order_max={max_order} exhaustive={exhaustive} "
        f"tuple_budget={limits.tuple_budget}"
    )
    report = ScanReport(seed=seed, config=config)
    for g in catalog_entries(max_order):
        report.lines.extend(verify_group(g, limits=limits, seed=seed, exhaustive=exhaustive))
    pair_report = pairs_scan(max_order, limits=limits, seed=seed, exhaustive=exhaustive)
    report.lines.extend(pair_report.lines)
    return report
