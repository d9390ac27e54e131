"""The verification scan and the command-line interface."""

import pytest

from rackle import full_verification, pairs_scan, verify_group
from rackle import cli
from rackle.cli import main
from rackle.config import DEFAULT_LIMITS
from rackle.groups import load_group
from rackle.scan import _coset_join_check

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
        lines = verify_group(get_group("A5"))
        assert len(lines) == 1 and lines[0].startswith("SKIP")

    def test_exhaustive_mode(self):
        lines = verify_group(get_group("S3"), exhaustive=True)
        assert not [ln for ln in lines if ln.startswith("FAIL")]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: on unseeded labels the coset-partition search returns, "
        "for N = Z(GL(2,3)), a 24-part partition that is not the coset "
        "partition; it passes C1, C2 and sampled C3, but its join poset has "
        "252 elements against S4's 212, so quotient-poset FAILs"))
    def test_gl23_all_pass(self):
        g = load_group(GL23_PATH)
        lines = verify_group(g, limits=DEFAULT_LIMITS.with_(ground_cap=48))
        assert not [ln for ln in lines if ln.startswith("FAIL")]

    def test_gl23_coset_joins(self):
        g = load_group(GL23_PATH)
        line = _coset_join_check(g, "gl23", DEFAULT_LIMITS.with_(ground_cap=48),
                                 seed=0, exhaustive=False)
        assert line == "PASS coset-joins gl23 3672 tuples across 5 normal subgroups"

    def test_deterministic(self):
        a = verify_group(get_group("D4"), seed=5)
        b = verify_group(get_group("D4"), seed=5)
        assert a == b


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

    def test_lattice_build_and_invariants(self, tmp_path, capsys):
        out = tmp_path / "s3.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(out)) == 0
        assert out.exists()
        capsys.readouterr()
        assert run_cli("invariants", "--lattice", str(out)) == 0
        text = capsys.readouterr().out
        assert "classes" in text and "derived" in text

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

    def test_non_atomistic_lattice_is_bad_input(self, tmp_path, capsys):
        concrete = tmp_path / "chain.lat"
        concrete.write_text("3 2\n0 0\n1 1 0\n2 2 0 1\nHASSE\n0 1\n1 2\n")
        abstract = tmp_path / "chain_abstract.lat"
        abstract.write_text("3 1\n0 0 -\n1 1 -\n2 1 -\nHASSE\n0 1\n1 2\n")
        for path in (concrete, abstract):
            assert run_cli("invariants", "--lattice", str(path)) == 2
            assert "not atomistic" in capsys.readouterr().err

    def test_malformed_lattice_is_bad_input(self, tmp_path, capsys):
        texts = [
            "x 3\n",
            "0 0\n",
            "2 1\n0 0\n1 1 zz\nHASSE\n0 1\n",
            "2 1\n0 0 -\n1 1 -\nHASSE\n0 a\n",
            "2 1\n0 0 -\n1 1 -\nHASSE\n0 5\n",
            "1 1\n0 1 0\n",                    # no empty subrack
            "3 2\n0 0\n1 1 0\n2 1 1\n",      # no top
        ]
        good = tmp_path / "s3.lat"
        assert run_cli("lattice", "build", "--in", "S3", "--out", str(good)) == 0
        for i, text in enumerate(texts):
            bad = tmp_path / f"bad{i}.lat"
            bad.write_text(text)
            assert run_cli("invariants", "--lattice", str(bad)) == 2, text
            assert run_cli("compare", str(good), str(bad)) == 2, text
        assert capsys.readouterr().err.count("error: ") == 2 * len(texts)

    def test_missing_file(self):
        assert run_cli("group", "info", "/no/such/file.cay") == 2

    def test_cap_flag_throttles(self, capsys):
        # the ground cap limits which catalog groups the sweep enumerates
        assert run_cli("verify", "--order-max", "6", "--ground-cap", "4") == 0
        assert "SKIP enumerate S3 ground set 6 over cap 4" in capsys.readouterr().out

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
