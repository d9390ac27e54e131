"""The verification scan and the command-line interface."""

import dataclasses
from functools import cached_property
from pathlib import Path

import pytest

from rackle import full_verification, pairs_scan, verify_group
from rackle import cli, scan
from rackle.cli import main
from rackle.config import DEFAULT_LIMITS
from rackle.errors import NoPartition
from rackle.groups import ConjClassPartition, FiniteGroup, cosets, load_group
from rackle.lattice import AbstractLattice
from rackle.reconstruct import AtomClassPartition
from rackle.scan import _congruence_witness, _coset_join_check

from conftest import GL23_PATH, get_group


class TestVerifyGroup:
    def test_s3_all_pass(self):
        lines = verify_group(get_group("S3"))
        assert lines
        assert all(ln.startswith(("PASS", "INFO")) for ln in lines), lines

    def test_a4_all_pass(self):
        lines = verify_group(get_group("A4"))
        assert not [ln for ln in lines if ln.startswith("FAIL")]

    def test_oversized_group_skips(self):
        # A5 (60 points) runs every check; only the subgroup oracle is over its
        # cap. The whole report is pinned: it is the nonsolvable verdict through
        # verify, and A5's one normal abelian candidate is the identity, a
        # single atom, so the recursion takes no quotient step
        assert verify_group(get_group("A5")) == [
            "PASS enumerate A5 490 elements",
            "PASS coatoms A5 c=5 class complements",
            "SKIP boolean-elements A5 order over subgroup cap",
            "PASS classes A5 blocks match conjugacy classes",
            "PASS normal-abelian A5 1 candidates",
            "PASS coset-joins A5 cosets of 2 normal subgroups are rack congruences",
            "PASS hypothetical A5 coset partitions satisfy the conditions",
            "PASS quotient-poset A5 0 quotients match join posets",
            "PASS derive A5 lattice=NOT_SOLVABLE oracle=NOT_SOLVABLE",
            "PASS sphere A5 mu=-1 c=5",
        ]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: on unseeded labels the coset-partition search returns, "
        "for N = Z(GL(2,3)), a 24-part partition that is not the coset "
        "partition; it passes C1, C2 and C3, but its join poset has "
        "252 elements against S4's 212, so quotient-poset FAILs"))
    def test_gl23_all_pass(self):
        g = load_group(GL23_PATH)
        lines = verify_group(g)
        assert not [ln for ln in lines if ln.startswith("FAIL")]

    def test_gl23_coset_joins(self):
        g = load_group(GL23_PATH)
        line = _coset_join_check(g, "gl23")
        assert line == "PASS coset-joins gl23 cosets of 5 normal subgroups are rack congruences"

    def test_congruence_takes_one_conj_per_pair(self, monkeypatch):
        # the cosets of A3 = {0, 2, 5} in S3: 6² products, no closure
        g = get_group("S3")
        parts = cosets(g, frozenset({0, 2, 5}))
        calls = []
        conj = FiniteGroup.conj
        monkeypatch.setattr(FiniteGroup, "conj",
                            lambda g, a, b: calls.append((a, b)) or conj(g, a, b))
        assert _congruence_witness(g, parts) is None
        assert sorted(calls) == [(x, y) for x in range(6) for y in range(6)]

    def test_deterministic(self):
        a = verify_group(get_group("D4"), seed=5)
        b = verify_group(get_group("D4"), seed=5)
        assert a == b


def _raise(exc):
    raise exc


# scan's own oracles, for fakes that alter what the real one returns
REAL = {name: getattr(scan, name) for name in ("coset_partition_of", "group_invariants")}
# S3: identity 0, transpositions {1, 3, 4}, 3-cycles {2, 5}; A3 = {0, 2, 5} is mask 37
S3_FAILS = [
    pytest.param({"brute_force_closed_masks": lambda rack: []}, DEFAULT_LIMITS,
                 ["FAIL enumerate S3 lectic and brute-force outputs differ"], id="enumerate"),
    pytest.param({}, DEFAULT_LIMITS.with_(lattice_cap=5),
                 ["FAIL enumerate S3 lattice exceeds cap of 5 elements"], id="enumerate-cap"),
    # the identity merged into the transpositions' class: two classes, so the
    # sphere's expected sign flips too
    pytest.param({"conjugacy_classes": lambda g: ConjClassPartition(
        ((0, 1, 3, 4), (2, 5)), (0, 0, 1, 0, 0, 1))}, DEFAULT_LIMITS,
                 ["FAIL coatoms S3 lattice [27, 37, 62] vs oracle [27, 36]",
                  "FAIL classes S3 lattice [1, 26, 36] vs oracle [27, 36]",
                  "FAIL sphere S3 mu=-1 expected 1"], id="coatoms"),
    pytest.param({"maximal_abelian_subgroups": lambda g, limits: []}, DEFAULT_LIMITS,
                 ["FAIL boolean-elements S3 lattice [3, 9, 17, 37] vs oracle []"],
                 id="boolean-elements"),
    # blocks {0, 1, 3, 4} and {2, 5}: the 3-cycles alone are the candidate
    pytest.param({"recover_classes": lambda lat: AtomClassPartition((27, 36))}, DEFAULT_LIMITS,
                 ["FAIL classes S3 lattice [27, 36] vs oracle [1, 26, 36]",
                  "FAIL normal-abelian S3 lattice [36] vs oracle [37]"], id="classes"),
    pytest.param({"maximal_normal_abelian_oracle": lambda g: []}, DEFAULT_LIMITS,
                 ["FAIL normal-abelian S3 lattice [37] vs oracle []"], id="normal-abelian"),
    # the transposition coset first: a class union with no central atom
    pytest.param({"coset_partition_of": lambda g, n: REAL["coset_partition_of"](g, n)[::-1]},
                 DEFAULT_LIMITS,
                 ["FAIL hypothetical S3 N=[0, 2, 5]: PASS C1 2 parts of size 3; FAIL C2 "
                  "distinguished part has no central atom; PASS C3 sat(S) is an element for "
                  "all 18 S, and the 4 joins of parts are unions of parts"],
                 id="hypothetical"),
    # the quotient step itself raises: on the labelled lattice and in the recursion
    pytest.param({"rackle.reconstruct.find_coset_partition":
                  lambda lat, n: _raise(NoPartition("none"))},
                 DEFAULT_LIMITS, ["FAIL quotient-poset S3 NoPartition: none",
                                  "FAIL derive S3 lattice=NoPartition('none') oracle=2"],
                 id="quotient-poset-raises"),
    pytest.param({"quotient": lambda g, n: (g, ())}, DEFAULT_LIMITS,
                 ["FAIL quotient-poset S3 N=[0, 2, 5]: join poset not isomorphic to "
                  "quotient lattice"], id="quotient-poset-not-isomorphic"),
    pytest.param({"derived_length_oracle": lambda g: ([], 3)}, DEFAULT_LIMITS,
                 ["FAIL derive S3 lattice=2 oracle=3"], id="derive"),
    pytest.param({"lattice_derived_length": lambda lat: _raise(NoPartition("none"))},
                 DEFAULT_LIMITS, ["FAIL derive S3 lattice=NoPartition('none') oracle=2"],
                 id="derive-raises"),
    pytest.param({"reduced_euler_characteristic": lambda lat, limits: 0}, DEFAULT_LIMITS,
                 ["FAIL sphere S3 mu=-1 chain-count=0"], id="sphere-chain-count"),
    pytest.param({"mobius_bottom_top": lambda lat: 1,
                  "reduced_euler_characteristic": lambda lat, limits: 1}, DEFAULT_LIMITS,
                 ["FAIL sphere S3 mu=1 expected -1"], id="sphere-sign"),
    # every normal subgroup's cosets are replaced by pairs that are no cosets:
    # the identity 0 with transposition 1, the 3-cycle 2 with transposition 3
    pytest.param({"cosets": lambda g, n: [frozenset({0, 1}), frozenset({2, 3}),
                                          frozenset({4, 5})]}, DEFAULT_LIMITS,
                 ["FAIL coset-joins S3 N=[0]: 0 ▷ 2 = 2 and 1 ▷ 2 = 5 lie in different parts"],
                 id="coset-joins"),
]


@pytest.mark.parametrize("fakes, limits, fails", S3_FAILS)
def test_each_check_names_its_failure(monkeypatch, fakes, limits, fails):
    # one oracle (or lattice step) in scan, or a dotted name where it lives, is
    # replaced by a wrong one, and the report's non-PASS lines are exactly the
    # checks that must catch it
    for name, fake in fakes.items():
        if "." in name:
            monkeypatch.setattr(name, fake)
        else:
            monkeypatch.setattr(scan, name, fake)
    lines = verify_group(get_group("S3"), limits)
    assert [ln for ln in lines if not ln.startswith("PASS")] == fails


@pytest.mark.parametrize("name, fake, line", [
    # the hypothetical line checks the oracle's N and the quotient-poset line
    # the recursion's steps: a FAIL on one leaves the other checked
    pytest.param("coset_partition_of", lambda g, n: REAL["coset_partition_of"](g, n)[::-1],
                 "PASS quotient-poset S3 1 quotients match join posets", id="hypothetical"),
    # a raise in the lattice-only recursion is a FAIL line, and the report goes on
    pytest.param("lattice_derived_length", lambda lat: _raise(NoPartition("none")),
                 "PASS sphere S3 mu=-1 c=3, chain count agrees", id="derive-raises"),
])
def test_a_failure_leaves_the_later_checks(monkeypatch, name, fake, line):
    monkeypatch.setattr(scan, name, fake)
    assert line in verify_group(get_group("S3"))


def _q8_invariants(**changes):
    def fake(g):
        inv = REAL["group_invariants"](g)
        return dataclasses.replace(inv, **changes) if g.name == "Q8" else inv
    return fake


ORDER8_PAIRS = (("Z2xZ2", "Z4"), ("D4", "Q8"), ("Z2xZ2xZ2", "Z4xZ2"), ("Z2xZ2xZ2", "Z8"),
                ("Z4xZ2", "Z8"))
PASS_PAIRS = [f"PASS pair {a} {b} isomorphic lattices, invariants agree "
              f"(dl={2 if a == 'D4' else 1})" for a, b in ORDER8_PAIRS]


@pytest.mark.parametrize("fakes, lines", [
    pytest.param({"are_isomorphic": lambda a, b, limits: None},
                 [f"INFO pair {a} {b} same size, not isomorphic" for a, b in ORDER8_PAIRS]
                 + ["PASS pairs-scan 14 groups, 0 isomorphic pairs, 0 violations"],
                 id="not-isomorphic"),
    pytest.param({"check_isomorphism": lambda a, b, mapping: False},
                 [f"FAIL pair {a} {b} reported map is not an isomorphism" for a, b in ORDER8_PAIRS]
                 + ["FAIL pairs-scan 14 groups, 0 isomorphic pairs, 5 violations"],
                 id="bad-map"),
    pytest.param({"group_invariants": _q8_invariants(is_simple=True)},
                 [*PASS_PAIRS[:1],
                  "FAIL pair D4 Q8 isomorphic lattices but invariants differ: order=8, "
                  "nonabelian, nilpotent(class 2), solvable(derived length 2) vs order=8, "
                  "nonabelian, nilpotent(class 2), solvable(derived length 2), simple",
                  *PASS_PAIRS[2:], "FAIL pairs-scan 14 groups, 5 isomorphic pairs, 1 violations"],
                 id="invariants-differ"),
    pytest.param({"group_invariants": _q8_invariants(nilpotency_class=3)},
                 [*PASS_PAIRS[:2], "INFO pair D4 Q8 nilpotency classes 2 vs 3", *PASS_PAIRS[2:],
                  "PASS pairs-scan 14 groups, 5 isomorphic pairs, 0 violations"],
                 id="nilpotency-classes"),
])
def test_pairs_scan_lines(monkeypatch, fakes, lines):
    for name, fake in fakes.items():
        monkeypatch.setattr(scan, name, fake)
    report = pairs_scan(8)
    assert [ln for ln in report.lines if not ln.startswith("INFO group")] == lines
    assert report.ok == lines[-1].startswith("PASS")


class TestPairsScan:
    def test_order8_pairs(self):
        report = pairs_scan(8)
        assert report.ok, report.failures()
        text = report.text()
        assert "Z2xZ2" in text and "Z4" in text    # the Boolean twins
        assert "D4" in text and "Q8" in text       # the order-8 twins
        assert "seed=0" in text

    def test_failures_empty_on_ok(self):
        report = pairs_scan(6)
        assert report.ok and report.failures() == []


class TestFullVerification:
    def test_small_catalog(self):
        report = full_verification(6)
        assert report.ok, report.failures()
        assert any("pairs-scan" in ln for ln in report.lines)


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_group_info(self, capsys):
        assert run_cli("group", "info", "S3") == 0
        out = capsys.readouterr().out
        assert "order=6" in out and "solvable" in out

    def test_group_info_from_file(self, tmp_path, capsys):
        from rackle.groups import format_cayley
        p = tmp_path / "g.cay"
        p.write_text(format_cayley(get_group("Z4")))
        assert run_cli("group", "info", str(p)) == 0
        assert "abelian" in capsys.readouterr().out

    def test_unknown_group(self, capsys):
        assert run_cli("group", "info", "NoSuchGroup") == 2

    @pytest.mark.parametrize("make", [Path.touch, Path.mkdir], ids=["file", "directory"])
    def test_path_does_not_shadow_a_catalog_name(self, tmp_path, monkeypatch, capsys, make):
        # a catalog name is looked up first; only a name outside the catalog
        # is read as a path
        monkeypatch.chdir(tmp_path)
        make(tmp_path / "S3")
        assert run_cli("group", "info", "S3") == 0
        assert run_cli("derive", "--group", "S3") == 0
        out = capsys.readouterr().out
        assert out.startswith("group S3\n") and "PASS derive S3 lattice=2 oracle=2" in out

    def test_lattice_build_and_invariants(self, tmp_path, capsys):
        out = tmp_path / "s3.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(out)) == 0
        assert out.exists()
        capsys.readouterr()
        assert run_cli("invariants", "--lattice", str(out)) == 0
        text = capsys.readouterr().out
        assert "classes" in text and "derived" in text

    def test_invariants_reads_maximal_boolean_once(self, tmp_path, capsys, monkeypatch):
        # cli invariants, max_normal_abelian and the derived-length recursion
        # all read the maximal Boolean elements; each lattice computes them once
        calls = []
        compute = AbstractLattice.maximal_boolean.func

        def counted(lat):
            calls.append(lat)
            return compute(lat)

        prop = cached_property(counted)
        prop.__set_name__(AbstractLattice, "maximal_boolean")
        monkeypatch.setattr(AbstractLattice, "maximal_boolean", prop)
        out = tmp_path / "s4.lat"
        assert run_cli("lattice", "build", "--in", "S4", "--out", str(out)) == 0
        assert run_cli("invariants", "--lattice", str(out)) == 0
        assert "derived length (lattice only): 3" in capsys.readouterr().out
        # the file's lattice and the quotient lattices of the recursion
        assert len(calls) > 1
        assert len({id(lat) for lat in calls}) == len(calls)

    def test_derive_agreement(self, capsys):
        assert run_cli("derive", "--group", "S3") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "2" in out

    def test_derive_lattice_only(self, capsys):
        assert run_cli("derive", "--group", "D4", "--lattice-only") == 0

    def test_compare_isomorphic(self, tmp_path, capsys):
        a = tmp_path / "d4.lat"
        b = tmp_path / "q8.lat"
        assert run_cli("lattice", "build", "--in", "D4", "--out", str(a)) == 0
        assert run_cli("lattice", "build", "--in", "Q8", "--out", str(b)) == 0
        capsys.readouterr()
        assert run_cli("compare", str(a), str(b)) == 0
        assert "isomorphic" in capsys.readouterr().out.lower()

    def test_compare_not_isomorphic(self, tmp_path, capsys):
        a = tmp_path / "s3.lat"
        b = tmp_path / "z6.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(a)) == 0
        assert run_cli("lattice", "build", "--in", "Z6", "--out", str(b)) == 0
        capsys.readouterr()
        assert run_cli("compare", str(a), str(b)) == 0
        assert "not isomorphic" in capsys.readouterr().out.lower()

    def test_topology(self, capsys):
        assert run_cli("topology", "--group", "S3") == 0
        out = capsys.readouterr().out
        assert "mobius" in out.lower() or "mu" in out.lower()

    def test_verify_small(self, capsys):
        assert run_cli("verify", "--order-max", "6") == 0
        out = capsys.readouterr().out
        assert "pairs-scan" in out

    def test_too_large_exit_code(self):
        assert run_cli("lattice", "build", "--in", "A5", "--out", "/dev/null",
                       "--lattice-cap", "100") == 2

    def test_iso_budget_exhausted_exit_code(self, tmp_path, capsys):
        # an exhausted search is a resource cap like any other
        a, b = tmp_path / "d4.lat", tmp_path / "q8.lat"
        assert run_cli("lattice", "build", "--in", "D4", "--out", str(a)) == 0
        assert run_cli("lattice", "build", "--in", "Q8", "--out", str(b)) == 0
        assert run_cli("compare", str(a), str(b), "--iso-budget", "0") == 2
        assert run_cli("verify", "--order-max", "6", "--iso-budget", "0") == 2
        err = capsys.readouterr().err
        assert err.count("error: isomorphism search exceeded 0 nodes") == 2

    def test_verify_output_is_unchanged(self, capsys):
        # the whole report, byte for byte: seeds, shuffles and line order
        assert run_cli("verify", "--order-max", "12") == 0
        expected = (Path(__file__).parent / "verify_order12.txt").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    def test_non_atomistic_lattice_is_bad_input(self, tmp_path, capsys):
        concrete = tmp_path / "chain.lat"
        concrete.write_text("3 2\n0 0\n1 1 0\n2 2 0 1\nHASSE\n0 1\n1 2\n")
        assert run_cli("invariants", "--lattice", str(concrete)) == 2
        assert "not atomistic" in capsys.readouterr().err

    def test_malformed_lattice_is_bad_input(self, tmp_path, capsys):
        texts = [
            "x 3\n",
            "0 0\n",
            "2 1\n0 0\n1 1 zz\nHASSE\n0 1\n",
            "2 1\n0 0 -\n1 1 -\nHASSE\n0 1\n",  # the dropped HASSE form
            "1 1\n0 1 0\n",                    # no empty subrack
            "3 2\n0 0\n1 1 0\n2 1 1\n",      # no top
            "4 2\n0 0\n1 1 0\n2 1 1\n3 3 0 1 1\n",  # a repeated member
            "2 100000000\n0 0\n1 1 99999999\n",   # ground size the file cannot list
        ]
        good = tmp_path / "s3.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(good)) == 0
        for i, text in enumerate(texts):
            bad = tmp_path / f"bad{i}.lat"
            bad.write_text(text)
            assert run_cli("invariants", "--lattice", str(bad)) == 2, text
            assert run_cli("compare", str(good), str(bad)) == 2, text
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 * len(texts)
        assert err.count("the HASSE form of .lat is no longer read") == 2

    def test_missing_file(self):
        assert run_cli("group", "info", "/no/such/file.cay") == 2

    @pytest.mark.parametrize("argv, path", [
        (("derive", "--group", "missing.cay"), "missing.cay"),
        (("group", "info", "missing.pgen"), "missing.pgen"),
        (("lattice", "build", "--in", "missing.rk", "--out", "x.lat"), "missing.rk"),
    ], ids=["cay", "pgen", "rk"])
    def test_missing_file_is_no_catalog_name(self, tmp_path, monkeypatch, capsys, argv, path):
        # a file reference that does not exist fails as a file, not as a
        # catalog lookup of its name
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"
        assert not (tmp_path / "x.lat").exists()

    def test_lattice_that_is_no_group_lattice_exits_1(self, tmp_path, capsys):
        # ∅, {0}, {1}, {2}, {0,1,2} loads, but its coatoms are the three atoms,
        # whose complements overlap: no group's classes
        path = tmp_path / "overlap.lat"
        path.write_text("5 3\n0 0\n1 1 0\n2 1 1\n3 1 2\n4 3 0 1 2\n")
        assert run_cli("invariants", "--lattice", str(path)) == 1
        assert capsys.readouterr().err == "error: coatom complements overlap\n"

    def test_topology_over_the_chain_count_cap(self, capsys):
        # S4's 212 elements leave 210 in the proper part, over the cap of 200
        assert run_cli("topology", "--group", "S4") == 0
        assert capsys.readouterr().out.splitlines() == [
            "mu(bottom, top) of the subrack lattice of S4: -1",
            "proper part exceeds the chain-counting cap; Mobius value stands alone",
            "PASS sphere S4 mu=-1 c=5 expected=-1",
        ]

    def test_lattice_build_from_rack_file(self, tmp_path, capsys):
        # a ▷ b = b + 1 mod 3 is a rack and no quandle; any point generates all three
        rk, out = tmp_path / "perm.rk", tmp_path / "perm.lat"
        rk.write_text("3\n1 2 0\n1 2 0\n1 2 0\n")
        assert run_cli("lattice", "build", "--in", str(rk), "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote {out}: 2 subracks over 3 points\n"
        assert out.read_text() == "2 3\n0 0\n1 3 0 1 2\n"

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_file_is_bad_input(self, tmp_path, capsys, kind):
        good = tmp_path / "s3.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(good)) == 0
        capsys.readouterr()
        paths = {}
        for ext in (".lat", ".cay", ".rk"):
            path = paths[ext] = tmp_path / f"x{ext}"
            if kind == "directory":
                path.mkdir()
            else:
                path.write_bytes(b"\xff\xfe")
        calls = [
            ("invariants", "--lattice", str(paths[".lat"])),
            ("compare", str(good), str(paths[".lat"])),
            ("compare", str(paths[".lat"]), str(good)),
            ("derive", "--group", str(paths[".cay"])),
            ("lattice", "build", "--in", str(paths[".rk"]), "--out", str(tmp_path / "o.lat")),
        ]
        for argv in calls:
            assert run_cli(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, argv

    @pytest.mark.parametrize("name, text, message", [
        ("bad.cay", "2\n0 1\n1 1\n", "table is not a group: row 1 is not a permutation"),
        ("bad.cay", "2\n0 1\n1\n", "row '1' is not 2 indices in [0,2)"),
        ("bad.pgen", "-3\n", "negative degree -3"),
        ("bad.cay", "2\n0 1\n0 1\n", "table is not a group: column 0 is not a permutation"),
        ("bad.cay", "0\n", "table is not a group: empty table"),
        ("bad.pgen", "3\n(1 2 1)\n", "point 1 repeated in '(1 2 1)'"),
        ("bad.pgen", "3\n(1 5)\n", "point 5 outside degree 3"),
        ("bad.pgen", "3\n(1 2) x\n", "stray text 'x' in permutation '(1 2) x'"),
        ("bad.pgen", "# a comment and no degree\n", "empty generator file"),
        ("bad.pgen", "3\n,\n", "empty permutation line"),
        ("bad.txt", "3\n(1 2)\n", "unknown group file extension on 'bad.txt'"),
    ], ids=["not-latin", "ragged", "negative-degree", "column", "empty-table",
            "repeated-point", "beyond-degree", "stray-text", "no-degree", "empty-permutation",
            "extension"])
    def test_malformed_group_file_is_bad_input(self, tmp_path, capsys, name, text, message):
        bad = tmp_path / name
        bad.write_text(text)
        assert run_cli("group", "info", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cap_flag_throttles(self, capsys):
        # the subgroup cap limits which groups get the subgroup oracle
        assert run_cli("verify", "--order-max", "6", "--subgroup-cap", "4") == 0
        assert "SKIP boolean-elements S3 order over subgroup cap" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flags", [
        pytest.param(["group", "info", "S3"], (), id="group-info"),
        pytest.param(["lattice", "build", "--in", "S3", "--out", "s3.lat"],
                     ("--lattice-cap",), id="lattice-build"),
        pytest.param(["invariants", "--lattice", "s3.lat"], (), id="invariants"),
        pytest.param(["derive", "--group", "S3"], ("--lattice-cap",), id="derive"),
        pytest.param(["compare", "a.lat", "b.lat"], ("--iso-budget",), id="compare"),
        pytest.param(["topology", "--group", "S3"], ("--lattice-cap",), id="topology"),
        pytest.param(["verify"], ("--lattice-cap", "--subgroup-cap", "--iso-budget"),
                     id="verify"),
    ])
    def test_cap_flags_per_subcommand(self, argv, flags, capsys):
        # a subcommand takes exactly the cap flags its code path reads; the
        # removed --ground-cap is unknown everywhere
        parser = cli.build_parser()
        for flag in ("--ground-cap", "--lattice-cap", "--subgroup-cap", "--iso-budget"):
            if flag in flags:
                limits = cli._limits_from(parser.parse_args([*argv, flag, "7"]))
                assert limits != DEFAULT_LIMITS and 7 in vars(limits).values()
            else:
                with pytest.raises(SystemExit) as exc:
                    run_cli(*argv, flag, "7")
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, removed", [
        pytest.param([cmd, *args], [flag, "7"], id=f"{cmd}{flag}")
        for cmd, args in (("invariants", ["--lattice", "s3.lat"]),
                          ("derive", ["--group", "S3"]), ("verify", []))
        for flag in ("--budget", "--samples")
    ] + [pytest.param(["verify"], ["--exhaustive"], id="verify--exhaustive")])
    def test_c3_sampler_flags_are_unknown(self, argv, removed, capsys):
        # C3 is checked exactly, so the sampler's flags went with it; the
        # subcommands that took them now refuse them as unknown
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *removed)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--lattice-cap", "-1"], "--lattice-cap"),
        (["--subgroup-cap", "-1"], "--subgroup-cap"),
        (["--iso-budget", "-1"], "--iso-budget"),
        (["--order-max", "0"], "--order-max"),
        (["--order-max", "-5"], "--order-max"),
    ], ids=["negative-lattice-cap", "negative-subgroup-cap", "negative-iso-budget",
            "zero-order-max", "negative-order-max"])
    def test_cap_flag_below_its_least_is_a_usage_error(self, argv, flag, capsys):
        # a sweep over no groups would report a pass having checked nothing
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--order-max", "6", *argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err

    def test_unknown_derive_group(self, capsys):
        assert run_cli("derive", "--group", "NoSuchGroup") == 2
        assert "no catalog group named 'NoSuchGroup'" in capsys.readouterr().err

    def test_internal_key_error_is_not_bad_input(self, monkeypatch):
        def broken(g):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "group_invariants", broken)
        with pytest.raises(KeyError):
            run_cli("group", "info", "S3")

    def test_derive_gl23_from_file(self, capsys):
        assert run_cli("derive", "--group", GL23_PATH) == 0
        assert "PASS derive gl23 lattice=4 oracle=4" in capsys.readouterr().out

    def test_derive_a5_not_solvable(self, capsys):
        assert run_cli("derive", "--group", "A5") == 0
        assert "PASS derive A5 lattice=NOT_SOLVABLE oracle=NOT_SOLVABLE" in capsys.readouterr().out
