"""Acceptance gate: eleven criteria, one printed verdict line each.

Every criterion prints exactly one line, PASS or FAIL, even when the
underlying check dies unexpectedly; the assertion carries the same line so
the pytest summary and the printed report agree.
"""

import random
import time

from rackle import (
    NOT_SOLVABLE,
    are_isomorphic,
    check_isomorphism,
    conjugacy_classes,
    derived_length_oracle,
    find_coset_partition,
    group_rack,
    lattice_derived_length,
    matching_bijection_oracle,
    max_normal_abelian,
    maximal_abelian_subgroups,
    maximal_boolean_elements,
    mobius_bottom_top,
    partition_bijection,
    reduced_euler_characteristic,
    to_abstract,
)
from rackle.catalog import catalog_entries, named_group, stall_lattice
from rackle.errors import TooLarge
from rackle.groups import maximal_normal_abelian_oracle, quotient
from rackle.lattice import (
    brute_force_closed_masks,
    enumerate_closed_masks,
    enumerate_subrack_lattice,
)
from rackle.racks import conjugacy_class_rack
from rackle.scan import _coset_join_check, pairs_scan

from conftest import get_abstract, get_group, get_lattice, is_closed_mask

GROUND_CAP = 30   # largest group order the catalog criteria sweep


def _report(capsys, num, description, failures):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {description}"
    if failures:
        line += f" | {len(failures)} failure(s), first: {failures[0]}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _mask_of(members):
    m = 0
    for x in members:
        m |= 1 << x
    return m


def _entries(max_order=GROUND_CAP):
    return [g for g in catalog_entries(10_000) if g.order <= max_order]


def test_criterion_01_lattice_sizes(capsys):
    failures = []
    try:
        for g in _entries(16):
            if not g.is_abelian():
                continue
            rack = group_rack(g)
            t0 = time.perf_counter()
            masks = enumerate_closed_masks(rack)
            dt = time.perf_counter() - t0
            if len(masks) != 1 << g.order:
                failures.append(f"{g.name}: {len(masks)} != 2^{g.order}")
            if dt >= 1.0:
                failures.append(f"{g.name}: enumeration took {dt:.2f}s")

        s3 = get_group("S3")
        t0 = time.perf_counter()
        s3_masks = enumerate_closed_masks(group_rack(s3))
        dt = time.perf_counter() - t0
        if len(s3_masks) != 18:
            failures.append(f"S3: {len(s3_masks)} != 18")
        if dt >= 1.0:
            failures.append(f"S3 enumeration took {dt:.2f}s")

        part = conjugacy_classes(s3)
        idx = next(i for i, c in enumerate(part.classes) if len(c) == 3)
        crack = conjugacy_class_rack(s3, idx)
        t0 = time.perf_counter()
        class_masks = enumerate_closed_masks(crack)
        dt = time.perf_counter() - t0
        if len(class_masks) != 5:
            failures.append(f"S3 transposition class rack: {len(class_masks)} != 5")
        if dt >= 1.0:
            failures.append(f"class rack enumeration took {dt:.2f}s")
        if class_masks != brute_force_closed_masks(crack):
            failures.append("class rack: lectic and brute force disagree")

        for g in _entries(12):
            rack = group_rack(g)
            t0 = time.perf_counter()
            lectic = enumerate_closed_masks(rack)
            brute = brute_force_closed_masks(rack)
            dt = time.perf_counter() - t0
            if lectic != brute:
                failures.append(f"{g.name}: lectic and brute force disagree")
            if dt >= 1.0:
                failures.append(f"{g.name}: both-roads check took {dt:.2f}s")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 1,
            "lattice sizes exact (abelian 2^|G|, S3 18, class rack 5; "
            "lectic = brute force through order 12; < 1 s each)", failures)


def test_criterion_02_coatom_class_duality(capsys):
    failures = []
    try:
        for g in _entries():
            # CPU time of this process, so a busy host does not count
            t0 = time.process_time()
            rack = group_rack(g)
            lat = enumerate_subrack_lattice(rack)
            classes = conjugacy_classes(g)
            full = (1 << g.order) - 1
            expected = {full & ~_mask_of(c) for c in classes.classes}
            if lat.size <= 5000:
                got = {lat.elements[c] for c in lat.proper_maximal}
                if got != expected:
                    failures.append(f"{g.name}: coatom set mismatch")
            else:
                # big Boolean lattices: complements of singletons, directly
                elems = set(lat.elements)
                near_top = sum(
                    1 for m in lat.elements if m.bit_count() == g.order - 1)
                if near_top != classes.count:
                    failures.append(
                        f"{g.name}: {near_top} coatoms vs {classes.count} classes")
                for comp in expected:
                    if comp not in elems or not is_closed_mask(rack.op, comp):
                        failures.append(f"{g.name}: complement {comp:b} missing")
            dt = time.process_time() - t0
            if dt >= 1.0:
                failures.append(f"{g.name}: duality check took {dt:.2f}s")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 2,
            "coatoms are exactly the complements of single conjugacy classes "
            "(every catalog group, < 1 s each)", failures)


def test_criterion_03_maximal_boolean_elements(capsys):
    failures = []
    try:
        names = [g.name for g in _entries(16)] + ["S4"]
        for name in names:
            g = get_group(name)
            ab = get_abstract(name)   # unshuffled: atom i is ground element i
            got = {frozenset(
                i for i in range(ab.n_atoms) if ab.supports[x] >> i & 1)
                for x in maximal_boolean_elements(ab)}
            want = {frozenset(h) for h in maximal_abelian_subgroups(g)}
            if got != want:
                failures.append(f"{name}: {sorted(map(sorted, got))} "
                                f"vs oracle {sorted(map(sorted, want))}")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 3,
            "maximal Boolean intervals name exactly the maximal abelian "
            "subgroups (catalog through order 16, plus S4)", failures)


def test_criterion_04_max_normal_abelian(capsys):
    failures = []
    try:
        for g in _entries():
            ab = get_abstract(g.name)
            got = {frozenset(
                i for i in range(ab.n_atoms) if ab.supports[x] >> i & 1)
                for x in max_normal_abelian(ab)}
            want = {frozenset(h) for h in maximal_normal_abelian_oracle(g)}
            if got != want:
                failures.append(f"{g.name}: lattice {sorted(map(sorted, got))} "
                                f"vs oracle {sorted(map(sorted, want))}")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 4,
            "lattice-side maximal normal abelian candidates match the "
            "group oracle (every catalog group)", failures)


def test_criterion_05_coset_joins(capsys):
    failures = []
    try:
        for g in _entries():
            line = _coset_join_check(g, g.name or f"order{g.order}")
            if not line.startswith("PASS"):
                failures.append(line)
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 5,
            "the cosets of every normal subgroup form a rack congruence, "
            "so coset joins equal the predicted unions (C3, exactly)", failures)


def test_criterion_06_partition_bijections(capsys):
    failures = []
    elapsed = 0.0
    try:
        rng = random.Random(20240823)
        t0 = time.perf_counter()
        for trial in range(10_000):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            items = list(range(m * n))
            rng.shuffle(items)
            ps = [items[i * n:(i + 1) * n] for i in range(m)]
            rng.shuffle(items)
            qs = [items[i * n:(i + 1) * n] for i in range(m)]
            f = partition_bijection(ps, qs)
            if sorted(f) != list(range(m)):
                failures.append(f"trial {trial}: not a bijection")
                break
            if any(not set(ps[i]) & set(qs[f[i]]) for i in range(m)):
                failures.append(f"trial {trial}: empty intersection")
                break
            if matching_bijection_oracle(
                    [frozenset(p) for p in ps],
                    [frozenset(q) for q in qs]) is None:
                failures.append(f"trial {trial}: oracle denies existence")
                break
        elapsed = time.perf_counter() - t0
        if elapsed >= 10.0:
            failures.append(f"10^4 instances took {elapsed:.1f}s")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 6,
            f"10^4 random partition pairs (parts, sizes <= 8) all yield valid "
            f"bijections, oracle-confirmed, in {elapsed:.1f}s", failures)


def test_criterion_07_quotient_posets(capsys):
    failures = []
    try:
        for g in _entries():
            lat = get_lattice(g.name)
            ab = get_abstract(g.name)
            for nsub in maximal_normal_abelian_oracle(g):
                elem = ab.support_index.get(_mask_of(nsub))
                if elem is None:
                    failures.append(f"{g.name}: no element for N={sorted(nsub)}")
                    continue
                _, jp = find_coset_partition(ab, elem)
                q, _ = quotient(g, nsub)
                target = to_abstract(enumerate_subrack_lattice(group_rack(q)))
                mapping = are_isomorphic(jp, target)
                if mapping is None or not check_isomorphism(jp, target, mapping):
                    failures.append(
                        f"{g.name} N={sorted(nsub)}: join poset is not "
                        f"R(G/N) ({jp.size} vs {target.size} elements)")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 7,
            "join poset of the recovered coset partition is isomorphic to "
            "the quotient's subrack lattice (every catalog pair)", failures)


def test_criterion_08_derived_length(capsys):
    failures = []
    s4_elapsed = 0.0
    lengths_seen = set()
    try:
        for g in _entries():
            _, want = derived_length_oracle(g)
            if want is NOT_SOLVABLE:
                continue
            got = lattice_derived_length(get_abstract(g.name))
            if got != want:
                failures.append(f"{g.name}: lattice {got!r} vs oracle {want}")
            else:
                lengths_seen.add(want)
        for name in ("S3", "D4", "Q8", "A4"):
            for seed in (1, 2):
                got = lattice_derived_length(get_abstract(name, seed=seed))
                if got != 2:
                    failures.append(f"{name} seed={seed}: {got!r} != 2")
        t0 = time.perf_counter()
        s4 = named_group("S4")
        s4_lat = enumerate_subrack_lattice(group_rack(s4))
        for seed in (None, 3):
            got = lattice_derived_length(to_abstract(s4_lat, seed=seed))
            if got != 3:
                failures.append(f"S4 seed={seed}: {got!r} != 3")
        s4_elapsed = time.perf_counter() - t0
        if s4_elapsed >= 300.0:
            failures.append(f"S4 end-to-end took {s4_elapsed:.0f}s")
        if not {1, 2, 3} <= lengths_seen:
            failures.append(f"derived lengths exercised: {sorted(lengths_seen)}")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 8,
            f"lattice-only derived length equals the oracle on every solvable "
            f"catalog group, relabeling-invariant (S4 in {s4_elapsed:.1f}s)",
            failures)


def test_criterion_09_pair_scan(capsys):
    failures = []
    elapsed = 0.0
    try:
        t0 = time.perf_counter()
        report = pairs_scan(12)
        elapsed = time.perf_counter() - t0
        failures.extend(report.failures())
        witness = [ln for ln in report.lines
                   if ln.startswith("PASS pair") and "Z2xZ2" in ln and "Z4 " in ln]
        if not witness:
            failures.append("Z4 / Z2xZ2 witness pair not exhibited")
        if elapsed >= 600.0:
            failures.append(f"pair scan took {elapsed:.0f}s")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 9,
            f"all lattice-isomorphic pairs through order 12 agree on "
            f"solvability invariants, Z4/Z2xZ2 exhibited ({elapsed:.1f}s)",
            failures)


def test_criterion_10_sphere(capsys):
    failures = []
    try:
        for g in _entries():
            ab = get_abstract(g.name)
            mu = mobius_bottom_top(ab)
            c = conjugacy_classes(g).count
            if mu != (-1) ** c:
                failures.append(f"{g.name}: mu {mu} vs (-1)^{c}")
            if ab.size <= 200:
                chi = reduced_euler_characteristic(ab)
                if chi != mu:
                    failures.append(f"{g.name}: chi {chi} vs mu {mu}")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 10,
            "mu(bottom, top) = (-1)^classes on every catalog lattice; "
            "chain-count Euler characteristic agrees up to 200 elements",
            failures)


def test_criterion_11_nonsolvable_detection(capsys):
    failures = []
    detail = ""
    try:
        a5 = named_group("A5")
        try:
            lat = enumerate_subrack_lattice(group_rack(a5))
        except TooLarge:
            lat = None
        if lat is not None:
            verdict = lattice_derived_length(to_abstract(lat))
            detail = "A5 lattice enumerated directly"
        else:
            verdict = lattice_derived_length(stall_lattice())
            detail = ("A5 exceeds the enumeration caps; bundled stall fixture "
                      "exercises the single-atom path")
        if verdict is not NOT_SOLVABLE:
            failures.append(f"verdict {verdict!r} is not NOT_SOLVABLE")
    except Exception as exc:
        failures.append(f"unexpected error {exc!r}")
    _report(capsys, 11, f"nonsolvable verdict reached ({detail})", failures)
