"""Command-line interface tests: exit codes, serialization, determinism."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from ellfam import cli, families, heights, localdata, scan
from ellfam.cli import main
from ellfam.curves import CurvePoint
from ellfam.families import catalog


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["catalog"], ["specialize", "--u", "3"], ["sections"], ["torsion", "--u", "3"],
         ["rootnumber", "--u", "1"]],
        ids=lambda command: command[0],
    )
    def test_unknown_catalog_label(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], "Z9", *command[1:]])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "unknown catalog label: Z9\n")

    def test_derivation_error_is_not_an_unknown_label(self, capsys, monkeypatch):
        # the label is looked up in the table before its entry is derived,
        # so a KeyError raised while deriving propagates as itself
        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(families, "_CATALOG", None)
        monkeypatch.setattr(families, "substitute_parameter", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["rootnumber", "Z8-1", "--u", "3"])
        assert capsys.readouterr().err == ""

    def test_unknown_scan_name(self, capsys):
        code, _out, err = run(capsys, "scan", "--name", "bogus", "--radius", "1")
        assert code == 2
        assert "bogus" in err

    def test_bad_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--budget", "banana", "catalog"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("budget", ["-5,0", "100,-1"])
    def test_negative_budget_is_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main([f"--budget={budget}", "catalog"])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["specialize", "Z8"], "--u", "-3/4"),
            (["rootnumber"], "--curve", "-1,0,0,0,1"),
            (["heights", "--curve", "0,0,0,-25,0"], "--points", "-4,6"),
        ],
        ids=["specialize", "rootnumber", "heights"],
    )
    def test_negative_value_after_option(self, capsys, command, option, value):
        # a value that starts with "-" and a digit is a value, not an option
        code, out, _ = run(capsys, *command, option, value)
        assert code == 0
        assert (code, out) == run(capsys, *command, f"{option}={value}")[:2]

    def test_option_like_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["specialize", "Z8", "--u", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["specialize", "rootnumber"])
    def test_singular_member_is_usage_error(self, capsys, command):
        # B vanishes at u = 15 on Z2x6R2-3
        code, _out, err = run(capsys, command, "Z2x6R2-3", "--u", "15")
        assert code == 2
        assert "Z2x6R2-3" in err and "15" in err

    def test_text_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--format", "text"])
        assert exc.value.code == 2
        assert "text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv", "scan", "--name", "Z8-scan-2"],
            ["--format", "csv", "heights", "Z8R2-1", "--u", "22"],
        ],
    )
    def test_format_only_on_scan(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "csv" in capsys.readouterr().err

    @pytest.mark.parametrize("prime", ["1", "15", "-5"])
    def test_local_prime_must_be_prime(self, capsys, prime):
        # p = 1 would never leave valuation(n, 1); a composite p would
        # yield a made-up fiber
        with pytest.raises(SystemExit) as exc:
            main(["local", "--curve", "0,0,0,-25,0", f"--prime={prime}"])
        assert exc.value.code == 2
        assert "not a prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "2", "catalog"],
            ["local", "--all", "--curve", "0,0,0,-1,0"],
            ["--eps", "1", "catalog"],
            ["--threshold", "1", "catalog"],
        ],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["heights", "--curve", "0,0,0,0,-2", "--points", "1,2"], "(1, 2) is not on the curve"),
            (["heights", "--curve", "0,0,0,0,-2", "--points", "1,2,3"], "must be 'x,y'"),
            (["heights", "--curve", "0,0,0,0,-2", "--points", "a,b"], "'a' is not a rational"),
            (["torsion", "--curve", "0,0,0,0,0"], "singular"),
            (["torsion", "Z8R2-1", "--u", "abc"], "'abc' is not a rational"),
            (["torsion"], "a catalog label or --curve is required"),
        ],
        ids=["off-curve", "three-coordinates", "not-rational", "singular", "bad-u", "no-curve"],
    )
    def test_bad_input_is_usage_error(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rootnumber", "Z8R2-1", "--curve", "0,0,0,-25,0"],
            ["rootnumber", "--curve", "0,0,0,-25,0", "--u", "22"],
            ["local", "--curve", "0,0,0,-25,0", "--u", "5"],
            ["local", "Z8", "--curve", "0,0,0,-25,0", "--prime", "2"],
            ["torsion", "Z8", "--u", "3", "--curve", "0,0,0,-25,0"],
            ["torsion", "--curve", "0,0,0,-25,0", "--u", "3"],
            ["heights", "Z8R2-1", "--u", "22", "--curve", "0,0,0,0,100", "--points", "5,15"],
            ["heights", "Z8R2-1", "--curve", "0,0,0,0,100", "--points", "5,15"],
        ],
    )
    def test_curve_with_label_or_u_is_usage_error(self, capsys, argv):
        # --curve names the curve alone: with a catalog label or --u it
        # would silently override them
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "--curve cannot be combined with a catalog label or --u\n"

    def test_environment_does_not_set_the_budget(self, capsys, monkeypatch):
        # --budget, else the built-in budget: no variable of the
        # environment reaches a command or its output
        argvs = (["catalog"], ["torsion", "--curve", "0,0,0,0,16"])
        expected = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setenv("ELLFAM_BUDGET", "not-a-budget")
        for argv, (code, out, err) in zip(argvs, expected):
            assert code == 0
            assert run(capsys, *argv) == (code, out, err)
        assert json.loads(expected[1][1])["structure"] == [3]


class TestCatalog:
    def test_listing_is_deterministic_json(self, capsys):
        code1, out1, _ = run(capsys, "catalog")
        code2, out2, _ = run(capsys, "catalog")
        assert code1 == code2 == 0
        assert out1 == out2
        rows = json.loads(out1)
        labels = [r["label"] for r in rows]
        assert "Z8-1" in labels and "Z2x6R2-5" in labels

    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "Z8R2-1")
        assert code == 0
        row = json.loads(out)
        assert row["torsion"] == "Z/8"
        assert row["rank"] == 2
        assert len(row["sections_x"]) == 2


class TestSpecialize:
    def test_rational_parameter_roundtrip(self, capsys):
        code, out, _ = run(capsys, "specialize", "Z8R2-1", "--u", "22")
        assert code == 0
        payload = json.loads(out)
        assert payload["u"] == "22"
        # coordinates are exact p/q strings
        for pt in payload["points"]:
            assert all("/" in c or c.lstrip("-").isdigit() for c in pt)

    def test_fractional_u(self, capsys):
        code, out, _ = run(capsys, "specialize", "Z2x6R2-1", "--u=-5/6")
        assert code == 0
        assert json.loads(out)["u"] == "-5/6"

    def test_unfactored_denominator(self, capsys):
        # 1022117 = 1009 * 1013 is not split at this budget; A and B are
        # still l^2 A(u) and l^4 B(u) for one rational l
        u = Fraction(3, 1022117)
        code, out, _ = run(capsys, "--budget", "10,0", "specialize", "Z8R2-1", "--u", str(u))
        assert code == 0
        payload = json.loads(out)
        A, B = int(payload["A"]), int(payload["B"])
        fam = catalog()["Z8R2-1"]
        lam2 = A / fam.A(u)
        assert B == lam2 * lam2 * fam.B(u)
        assert all(math.isqrt(x) ** 2 == x for x in (lam2.numerator, lam2.denominator))
        code, out, _ = run(capsys, "--budget", "10,0", "rootnumber", "Z8R2-1", "--u", str(u))
        assert code == 0
        assert json.loads(out)["complete"] is False

    def test_budget_leaves_the_member_unchanged(self, capsys):
        # the budget only limits the square strip of gcd(A', B'), and the
        # denominator 1009 * 1013 of u is not needed there
        args = ["specialize", "Z8R2-1", "--u", "3/1022117"]
        assert run(capsys, "--budget", "10,0", *args) == run(capsys, *args)


class TestTorsion:
    def test_catalog_member(self, capsys):
        code, out, _ = run(capsys, "torsion", "Z8R2-1", "--u", "22")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"] == [8]
        assert payload["order"] == 8

    def test_explicit_curve(self, capsys):
        code, out, _ = run(capsys, "torsion", "--curve", "0,0,0,-1,0")
        assert code == 0
        assert json.loads(out)["structure"] == [2, 2]


class TestLocalAndRootNumber:
    def test_local_places(self, capsys):
        code, out, _ = run(capsys, "local", "--curve", "0,0,0,-1,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert payload["places"][0]["p"] == 2
        assert payload["places"][0]["kodaira"] == "III"

    def test_local_factors_discriminant_in_parts(self, capsys):
        # disc = 16 P^2 (P-1)^4 with P = 2^89-1: without rho the whole
        # number stops at P^2 * 2931542417^4, while a4 = P and
        # a2^2 - 4 a4 = (P-1)^2 give every prime
        P = 2**89 - 1
        code, out, _ = run(
            capsys, "--budget", "10000,0", "local", "--curve", f"0,{P + 1},0,{P},0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert [pl["p"] for pl in payload["places"]][-2:] == [2931542417, P]

    def test_local_runs_one_pass(self, capsys, monkeypatch):
        # one minimization, and Tate's algorithm once per bad prime
        calls = {"minimize": 0, "tate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(localdata, "_minimize_at", counted("minimize", localdata._minimize_at))
        monkeypatch.setattr(localdata, "_tate_ints", counted("tate", localdata._tate_ints))
        code, out, _ = run(capsys, "local", "--curve", "0,0,0,-25,0")
        assert code == 0
        places = json.loads(out)["places"]
        assert [(pl["p"], pl["kodaira"]) for pl in places] == [(2, "III"), (5, "I0*")]
        assert calls == {"minimize": 1, "tate": 2}

    def test_local_when_minimality_uncertified(self, capsys):
        # a4 = -M with M = M61 * M89: without rho the discriminant 64 M^3
        # keeps the residue M^3, which could hide a scalable prime
        M = (2**61 - 1) * (2**89 - 1)
        code, out, _ = run(
            capsys, "--budget", "1000,0", "local", "--curve", f"0,0,0,{-M},0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is False
        assert [pl["p"] for pl in payload["places"]] == [2]

    def test_single_prime(self, capsys):
        code, out, _ = run(capsys, "local", "--curve", "0,0,0,0,16", "--prime", "3")
        assert code == 0
        payload = json.loads(out)
        assert [pl["p"] for pl in payload["places"]] == [3]

    def test_root_number(self, capsys):
        code, out, _ = run(capsys, "rootnumber", "--curve", "0,0,0,0,16")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        assert payload["complete"] is True
        assert payload["local"] == {"3": -1}


class TestHeights:
    def test_independent_point(self, capsys):
        code, out, _ = run(
            capsys, "heights", "--curve", "0,0,0,0,-2", "--points", "3,5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"] == "independent"
        assert float(payload["heights"][0]) > 0

    def test_one_pairing_matrix(self, capsys, monkeypatch):
        calls = []
        original = heights.pairing_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(heights, "pairing_matrix", counted)
        code, out, _ = run(
            capsys, "heights", "--curve", "0,0,0,-25,0", "--points=-4,6;45,300"
        )
        assert code == 0
        assert len(calls) == 1
        E, pts = calls[0][0], calls[0][1]
        M = original(E, pts)
        assert json.loads(out) == {
            "heights": [f"{M.entries[i][i]:.12f}" for i in range(2)],
            "pairing": [[f"{e:.12f}" for e in row] for row in M.entries],
            "determinant": f"{M.gram_determinant():.12e}",
            "certificate": M.certificate(),
        }

    def test_no_points_is_usage_error(self, capsys):
        code, _out, err = run(capsys, "heights", "--curve", "0,0,0,0,-2")
        assert code == 2
        assert "no points" in err


class TestSections:
    def test_verified_family(self, capsys):
        code, out, _ = run(capsys, "sections", "Z2x6R2-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["points_on_curve"] is True
        assert all(s["verified"] for s in payload["sections"])

    def test_unliftable_section_is_reported(self, capsys, monkeypatch):
        fam = catalog()["Z8R2-1"]
        P = fam.sections[0]
        wrong = fam._replace(sections=(CurvePoint(P.x + 1, P.y),) + fam.sections[1:])
        monkeypatch.setattr(cli, "catalog", lambda: {"Z8R2-1": wrong})
        code, out, _ = run(capsys, "sections", "Z8R2-1")
        assert code == 1
        payload = json.loads(out)
        assert [s["verified"] for s in payload["sections"]] == [False] + [
            True
        ] * (len(fam.sections) - 1)


class TestScan:
    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _out, err = run(
            capsys,
            "--budget", "10000,10000",
            "scan", "--format", "csv", "--name", "Z8-scan-2", "--radius", "1",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n,m,root,complete,skipped"
        assert len(lines) == 10
        summary = json.loads(err.strip().split("\n")[-1])
        assert summary["symmetry_violations"] == 0
        assert summary["isomorphism_failures"] == 0

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_is_usage_error(self, capsys, monkeypatch, tmp_path, where):
        # the path is tried before the scan runs: exit 2 and one line
        # naming it, no traceback after a whole scan
        path = str(tmp_path if where == "directory" else tmp_path / "absent" / "grid.csv")

        def no_scan(spec):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(scan, "lattice_scan", no_scan)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--name", "Z8-scan-2", "--radius", "1", "--out", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and path in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--radius", "1"],
            ["scan", "--name", "Z8-scan-2", "--negate"],
            ["scan", "--spec", "spec.json"],
            ["scan", "--name", "Z8-scan-2", "--radius", "-1"],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestVerifyAll:
    def test_unexpected_error_propagates(self, monkeypatch):
        # only SingularMember and Unfactored become FAIL lines; any other
        # exception is a bug and must not read as a failed check
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "torsion_subgroup", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["verify-all"])


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ellfam.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("catalog", "specialize", "torsion", "local", "rootnumber",
                "heights", "sections", "scan", "verify-all"):
        assert sub in proc.stdout


def test_queries_import_neither_sympy_nor_mpmath():
    # a fresh interpreter in which importing sympy or dataclasses raises
    # runs all nine commands: catalog, rootnumber, sections, torsion
    # (Z/2 x Z/6 and Z/8), specialize and local without mpmath either, and
    # catalog and rootnumber without inspect, verify-all and heights with
    # mpmath, and each built-in scan at radius 1, factoring its family's
    # discriminant, as CSV and as JSON
    script = """
import contextlib, io, sys
# from here on, "import sympy" and "import dataclasses" raise ImportError
sys.modules["sympy"] = sys.modules["dataclasses"] = None
from ellfam import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return [m for m in ("mpmath",) if m in sys.modules]

print(run("catalog"), run("rootnumber", "Z8R2-1", "--u", "22"), "inspect" in sys.modules)
print(run("sections", "Z8R2-4"))
print(run("torsion", "Z2x6R2-3", "--u", "22"), run("torsion", "Z8R2-1", "--u", "22"))
print(run("specialize", "Z8R2-1", "--u", "22"), run("local", "--curve", "0,-1,1,-10,-20"))
print(run("verify-all"))
print(run("heights", "Z8R2-1", "--u", "22"))
for name in ("Z8-scan-1", "Z8-scan-2", "Z2x6-scan-1"):
    for fmt in ("csv", "json"):
        run("--budget", "100000,200000", "scan", "--format", fmt, "--name", name, "--radius", "1")
    print(name, sys.modules["sympy"])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] [] False", "[]", "[] []", "[] []", "['mpmath']", "['mpmath']",
        "Z8-scan-1 None", "Z8-scan-2 None", "Z2x6-scan-1 None",
    ]


def test_each_command_loads_only_its_layers():
    # a fresh interpreter: importing the CLI and answering catalog load the
    # layers every command needs; rootnumber adds local data, root numbers
    # and their tables, and heights then adds heights
    script = """
import contextlib, io, sys

def loaded():
    return {m for m in sys.modules if m == "ellfam" or m.startswith("ellfam.")}

def run(*argv):
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    print(sorted(loaded() - before))

from ellfam import cli
print(sorted(loaded()))
run("catalog")
run("rootnumber", "Z8R2-1", "--u", "22")
run("heights", "Z8R2-1", "--u", "22")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['ellfam', 'ellfam.arith', 'ellfam.cli', 'ellfam.curves', "
        "'ellfam.families', 'ellfam.polyq']",
        "[]",
        "['ellfam._rootnum_tables', 'ellfam.localdata', 'ellfam.rootnum']",
        "['ellfam.heights']",
    ]


def test_each_command_derives_only_its_parent_chain():
    # a fresh interpreter: catalog lists the table and derives no family;
    # rootnumber derives its entry's parent chain, and heights on the same
    # entry derives nothing more
    script = """
import contextlib, io
from ellfam import cli, families

derived = []

def counted(real):
    def wrapper(*args, **kwargs):
        fam = real(*args, **kwargs)
        derived.append(fam.label)
        return fam
    return wrapper

for name in ("_tate_base_model", "substitute_parameter"):
    setattr(families, name, counted(getattr(families, name)))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    print(derived)
    derived.clear()

run("catalog")
run("rootnumber", "Z8R2-1", "--u", "22")
run("heights", "Z8R2-1", "--u", "22")
run("catalog", "Z2x6")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['Z8', 'Z8-3', 'Z8R2-1']", "[]", "['Z6', 'Z2x6']",
    ]
