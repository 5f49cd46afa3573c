"""The command-line interface, driven in process through main()."""

import contextlib
import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import cli, convergence
from effmeas.cli import REPORT_HEADER, _decimal, _parse_nlist, main
from effmeas.prokhorov import NOT_IN_CUT

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, module="effmeas.cli"):
    """(exit code, stdout, stderr) of ``python -m module argv`` in a new process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def rows_of(out: str):
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert tuple(rows[0]) == REPORT_HEADER
    return rows[1:]


def decimal_fraction_oracle(q: Fraction, digits: int = 20) -> str:
    """``cli._decimal`` as it was, on Fraction arithmetic: the oracle of the
    divmod version."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    frac = q - whole
    digits_str = (
        str((frac.numerator * 10**digits) // frac.denominator).rjust(digits, "0")
        if frac
        else "0" * digits
    )
    return f"{sign}{whole}.{digits_str}"


class TestHelpers:
    @given(
        q=st.fractions() | st.integers(-10**30, 10**30).map(Fraction),
        digits=st.integers(0, 30),
    )
    @example(q=Fraction(0), digits=0)
    @example(q=Fraction(0), digits=20)
    @example(q=Fraction(-3), digits=0)
    @example(q=Fraction(-1, 3), digits=0)
    @example(q=Fraction(-7, 2), digits=3)
    @example(q=Fraction(10**40 + 1, 10**40), digits=20)
    def test_decimal_matches_fraction_oracle(self, q, digits):
        assert _decimal(q, digits) == decimal_fraction_oracle(q, digits)

    def test_decimal_truncation(self):
        assert _decimal(Fraction(1, 3), 5) == "0.33333"
        assert _decimal(Fraction(-7, 2), 3) == "-3.500"
        assert _decimal(Fraction(4), 2) == "4.00"

    def test_parse_nlist(self):
        assert _parse_nlist("1..4") == [1, 2, 3, 4]
        assert _parse_nlist("1,3,5") == [1, 3, 5]
        assert _parse_nlist("2") == [2]


class TestProkhorovCommand:
    def test_exact_between_builtins(self, capsys):
        code, out, _ = run(capsys, "prokhorov", "delta0", "halfhalf")
        assert code == 0
        assert out.splitlines()[0] == "1/2"
        assert out.splitlines()[1].startswith("0.5000")

    def test_exact_between_files(self, capsys, tmp_path):
        a = tmp_path / "a.measure"
        b = tmp_path / "b.measure"
        a.write_text("discrete\natom 0 1\n")
        b.write_text("discrete\natom 0 1/2\natom 1 1/2\n")
        code, out, _ = run(capsys, "prokhorov", str(a), str(b))
        assert code == 0 and out.splitlines()[0] == "1/2"

    def test_identical_measures(self, capsys):
        code, out, _ = run(capsys, "prokhorov", "delta0", "delta0")
        assert code == 0 and out.splitlines()[0] == "0/1"

    def test_bounds_path_for_density(self, capsys, tmp_path):
        u = tmp_path / "uniform.measure"
        u.write_text("polydensity\n0 0\n1/1024 1\n1023/1024 1\n1 0\n")
        code, out, _ = run(capsys, "prokhorov", str(u), "delta0", "--precision", "3")
        assert code == 0
        lo, hi = (Fraction(t) for t in out.splitlines()[0].split())
        assert lo <= hi and hi - lo <= Fraction(1, 8) + Fraction(1, 2)  # pitch slack

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.measure"
        bad.write_text("discrete\natom x 1\n")
        code, _, err = run(capsys, "prokhorov", str(bad), "delta0")
        assert code == 3 and "parse error" in err

    def test_parse_error_names_the_bad_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.measure"
        bad.write_text("polydensity\n0 0\n1 -1\n2 1\n3 0\n")
        code, out, err = run(capsys, "prokhorov", str(bad), "delta0")
        assert code == 3 and out == ""
        assert err.startswith("parse error: line 3: density must be nonnegative"), err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "prokhorov", "nosuch", "delta0")
        assert code == 3


class TestDemoSpecker:
    def test_identity_enumeration_rows(self, capsys):
        code, out, _ = run(capsys, "demo", "specker", "--fuel", "8")
        assert code == 0
        rows = rows_of(out)
        assert all(r[-1] == "pass" for r in rows)
        idx = int(rows[0][1])
        # beyond the modulus index the integral is frozen exactly
        late = [r for r in rows if int(r[2]) >= idx]
        assert late and all(r[3] == "0" for r in late)
        assert "total-mass lower bounds" in out

    def test_enum_file(self, capsys, tmp_path):
        e = tmp_path / "enum.txt"
        e.write_text("0\n2\n1\n5\n3\n4\n6\n7\n8\n9\n10\n")
        code, out, _ = run(capsys, "demo", "specker", "--enum", str(e), "--fuel", "4")
        assert code == 0

    @pytest.mark.parametrize("values", [[0, 2, 1], [0, 2, 1, 3]], ids=["past the end", "vacuous"])
    def test_short_enumeration_is_a_parse_error(self, capsys, tmp_path, values):
        # the default hat's modulus index is 4: the limit value reads values
        # 0..3 and the first row checked is 4, so 5 values are needed
        e = tmp_path / "enum.txt"
        e.write_text("".join(f"{v}\n" for v in values))
        code, out, err = run(capsys, "demo", "specker", "--enum", str(e))
        assert (code, out) == (3, "")
        assert err == f"parse error: enumeration {str(e)!r} holds {len(values)} values, needs 5\n"

    def test_lower_bounds_stop_at_the_last_value(self, capsys, tmp_path):
        e = tmp_path / "enum.txt"
        e.write_text("0\n2\n1\n3\n4\n")
        code, out, _ = run(capsys, "demo", "specker", "--enum", str(e), "--fuel", "10")
        assert code == 0 and [r[2] for r in rows_of(out)] == ["0", "1", "2", "3", "4"]
        assert out.splitlines()[-3:] == ["#   fuel 0: 1/2", "#   fuel 2: 7/8", "#   fuel 4: 31/32"]

    def test_trailing_zero_vertex_reads_no_value_past_the_support(self, tmp_path):
        # the support ends at 3 and the last vertex at 50: the index is 4, so
        # 5 values are enough, and the limit value reads values 0..3 alone
        f = tmp_path / "f.poly"
        f.write_text("polyfunc zero-outside\n1 0\n2 1\n3 0\n50 0\n")
        e = tmp_path / "enum.txt"
        e.write_text("0\n2\n1\n3\n4\n")
        code, out, err = run_process("demo", "specker", "--enum", str(e), "--function", str(f))
        assert (code, err) == (0, "")
        assert rows_of(out) == [
            ["0", "4", str(n), q, "0", "pass"] for n, q in enumerate(["1/4", "1/4", "0", "0", "0"])
        ]

    def test_huge_value_is_a_parse_error(self, capsys, tmp_path):
        # weight 2^-(10^5000 + 1) cannot be built: refused at the file's line
        e = tmp_path / "enum.txt"
        e.write_text(FILES["@huge-enum"])
        code, out, err = run(capsys, "demo", "specker", "--enum", str(e))
        assert (code, out) == (3, "")
        bits = (10**5000).bit_length()
        assert err == f"parse error: line 5: enumeration value of {bits} bits is above the 16-bit cap\n"

    def test_duplicate_enumeration_fails(self, capsys, tmp_path):
        e = tmp_path / "enum.txt"
        e.write_text("0\n1\n1\n2\n3\n4\n5\n")
        code, _, err = run(capsys, "demo", "specker", "--enum", str(e))
        assert code == 1 and "certificate error" in err


class TestZeroSupportBytes:
    """The zero polygon has an empty support: its Specker index is 1, and the
    demo's limit value reads atom 0 alone.  Bytes pinned from the CLI as it
    was when oracles still took a ``SupportedFunc``."""

    def test_demo_specker_zero_function(self, capsys):
        code, out, err = run(capsys, "demo", "specker", "--function", "zero")
        rows = "".join(f"0,1,{n},0,0,pass\n" for n in range(12))
        bounds = "".join(f"#   fuel {k}: {2 ** (k + 1) - 1}/{2 ** (k + 1)}\n" for k in range(0, 11, 2))
        assert (code, err) == (0, "")
        assert out == (
            "N,index,checked_n,quantity,bound,result\n" + rows
            + "# total-mass lower bounds (hidden oracle; strictly partial):\n" + bounds
        )

    def test_verify_vague_specker_zero(self, capsys):
        code, out, err = run(capsys, "verify", "vague", "specker", "zero", "zero", "1..3")
        rows = "".join(f"{N},1,{n},0,1/{2 ** N},pass\n" for N in (1, 2, 3) for n in range(1, 12))
        assert (code, out, err) == (0, "N,index,checked_n,quantity,bound,result\n" + rows, "")


class TestVerify:
    def test_weak_constructed(self, capsys):
        code, out, _ = run(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "1..4"
        )
        assert code == 0
        rows = rows_of(out)
        assert {int(r[0]) for r in rows} == {1, 2, 3, 4}
        assert all(r[-1] == "pass" for r in rows)

    def test_weak_with_good_and_bad_certificates(self, capsys, tmp_path):
        good = tmp_path / "good.modulus"
        good.write_text("modulus\n2 8\n4 10\n")
        code, out, _ = run(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "2,4",
            "--certificate", str(good),
        )
        assert code == 0
        bad = tmp_path / "bad.modulus"
        bad.write_text("modulus\n2 0\n4 0\n")
        code, out, _ = run(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "2,4",
            "--certificate", str(bad),
        )
        assert code == 1
        assert any(r[-1] == "fail" for r in rows_of(out))

    def test_vague_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "vague", "mixture", "halfhalf", "hat", "1..3")
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))

    def test_vague_to_weak_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "vague-to-weak", "mixture", "halfhalf",
            "constant-one", "1..3",
        )
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))

    def test_eps_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "eps", "deltashrink", "delta0", "1..3")
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))

    def test_eps_mode_at_high_precision(self, capsys):
        # the ball walk to mixture's atom at 1 ran out of balls from N = 12 on
        code, out, _ = run(capsys, "verify", "eps", "mixture", "halfhalf", "12..20")
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))

    def test_witness_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "witness", "deltadrift", "delta1", "1..2")
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))

    def test_divergence_exit_code(self, capsys):
        code, _, err = run(capsys, "verify", "weak", "deltan", "zero", "constant-one", "2")
        assert code == 2 and "diverg" in err.lower()

    def test_vague_to_weak_validates_total_mass_once(self, capsys, monkeypatch):
        # the check reads only seq and tm, which every N of the list shares
        calls = []
        real = convergence.validate_total_mass_modulus

        def counting(seq, tm):
            calls.append(tm)
            return real(seq, tm)

        monkeypatch.setattr(convergence, "validate_total_mass_modulus", counting)
        monkeypatch.setattr(cli, "validate_total_mass_modulus", counting)
        code, out, _ = run(
            capsys, "verify", "vague-to-weak", "mixture", "halfhalf", "constant-one", "1..6"
        )
        assert code == 0 and all(r[-1] == "pass" for r in rows_of(out))
        assert len(calls) == 1

    def test_vague_to_weak_divergence_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "vague-to-weak", "deltan", "zero", "constant-one", "3"
        )
        assert code == 2 and "diverg" in err.lower()

    @pytest.mark.parametrize("seq, limit", [("deltashrink", "delta0"), ("deltadrift", "delta1")])
    def test_vague_to_weak_over_ten_precisions(self, capsys, seq, limit):
        code, out, _ = run(capsys, "verify", "vague-to-weak", seq, limit, "constant-one", "1..10")
        rows = rows_of(out)
        assert code == 0
        assert {int(r[0]) for r in rows} == set(range(1, 11))
        assert all(r[-1] == "pass" for r in rows)

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_precision_flag_sets_nlist(self, capsys):
        code, out, _ = run(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat",
            "--precision", "2,5",
        )
        assert code == 0
        assert {int(r[0]) for r in rows_of(out)} == {2, 5}


class TestFailClosed:
    """Vacuous or out-of-range input ends in exit 3, never in a pass."""

    def assert_parse_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith("parse error:"), (code, out, err)
        assert out == ""

    def test_empty_nlist(self, capsys):
        self.assert_parse_error(capsys, "verify", "weak", "deltashrink", "delta0", "hat", "5..2")
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "--precision", "1,5..2"
        )

    def test_malformed_precision_nlist(self, capsys):
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "--precision", "x"
        )

    def test_negative_fuel(self, capsys):
        self.assert_parse_error(capsys, "demo", "specker", "--fuel", "-1")
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "2", "--fuel", "-1"
        )

    def test_negative_precision(self, capsys):
        self.assert_parse_error(capsys, "prokhorov", "delta0", "halfhalf", "--precision", "-1")

    def test_certificate_without_usable_row(self, capsys, tmp_path):
        cert = tmp_path / "short.modulus"
        cert.write_text("modulus\n1 3\n")
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "1..5",
            "--certificate", str(cert),
        )

    def test_second_function_token(self, capsys):
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "constant-one", "1..2"
        )

    def test_second_nlist(self, capsys):
        self.assert_parse_error(capsys, "verify", "weak", "deltashrink", "delta0", "1..2", "1..3")

    def test_positional_nlist_next_to_precision(self, capsys):
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "1..2", "--precision", "1..5"
        )

    def test_witness_without_ball_moduli(self, capsys):
        # deltan is a builtin corpus; what it lacks is ball moduli
        code, out, err = run(capsys, "verify", "witness", "deltan", "delta0", "hat", "1")
        assert (code, out) == (3, "")
        assert err == "parse error: witness verification needs a builtin corpus with ball moduli\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("prokhorov", "no-such-measure", "delta0"),
            ("verify", "weak", "deltashrink", "delta0", "no-such-function", "1"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "5..2"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "1", "--fuel", "-1"),
            ("verify", "vague", "deltashrink", "delta0", "constant-one", "1"),
            ("verify", "vague-to-weak", "specker", "delta0", "constant-one", "1"),
            ("verify", "eps", "deltan", "delta0", "hat", "1"),
            ("demo", "specker", "--function", "constant-one"),
        ],
    )
    def test_argument_errors_name_no_line(self, capsys, argv):
        # a command-line token is at fault, not a line of any file
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("parse error: ")
        assert not err.startswith("parse error: line ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "weak", "nosuch", "delta0", "hat", "1"), "unknown corpus 'nosuch'"),
            (("verify", "weak", "specker:nosuch", "delta0", "hat", "1"),
             "unknown corpus 'specker:nosuch'"),
            (("verify", "weak", "specker:", "delta0", "hat", "1"), "unknown corpus 'specker:'"),
            (("verify", "weak", "speckerfoo", "zero", "hat", "1"), "unknown corpus 'speckerfoo'"),
            (("demo", "specker", "--enum", "nosuch"), "unknown enumeration 'nosuch'"),
            (("verify", "eps", "deltashrink", "delta0", "hat", "1"),
             "eps verification takes no function 'hat'"),
            (("verify", "witness", "deltadrift", "delta1", "hat", "1"),
             "witness verification takes no function 'hat'"),
            (("verify", "weak", "deltashrink", "delta0", "hat", "1", "--construct"),
             "effmeas: unrecognized arguments: --construct"),
        ],
    )
    def test_unknown_name_or_unused_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and err.startswith(f"parse error: {message}"), err

    @pytest.mark.parametrize("mode", ["witness", "vague-to-weak"])
    @pytest.mark.parametrize("cert", ["modulus\n1 0\n", None], ids=["bad", "missing"])
    def test_certificate_refused_before_it_is_read(self, capsys, tmp_path, mode, cert):
        # these modes construct what they check and read no certificate
        path = tmp_path / "cert.modulus"
        if cert is not None:
            path.write_text(cert)
        code, out, err = run(
            capsys, "verify", mode, "deltadrift", "delta1", "1", "--certificate", str(path)
        )
        assert (code, out) == (3, "")
        assert err == f"parse error: {mode} verification reads no certificate\n"

    def test_certificate_with_repeated_row(self, capsys, tmp_path):
        cert = tmp_path / "dup.modulus"
        cert.write_text("modulus\n1 3\n1 5\n")
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "1",
            "--certificate", str(cert),
        )

    def test_certificate_with_negative_index(self, capsys, tmp_path):
        # index 0 fails at member 0; -5 would vouch for members -5..-3, which do not exist
        cert = tmp_path / "neg.modulus"
        cert.write_text("modulus\n1 -5\n2 -5\n")
        self.assert_parse_error(
            capsys, "verify", "weak", "deltashrink", "delta0", "hat", "1..1",
            "--certificate", str(cert), "--fuel", "2",
        )


class TestReportBytes:
    """The exact CSV bytes on stdout and in ``--out``, with the exit code.

    Pinned from the implementation before the report rows became
    ``CheckRow``s, so a change to the report path shows as a byte
    difference, not only as a different pass/fail count.
    """

    CASES = [
        (("verify", "weak", "deltashrink", "delta0", "hat", "1..2", "--fuel", "2"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,1,1,2/5,1/2,pass\n'
            '1,1,2,1/5,1/2,pass\n'
            '1,1,3,1/10,1/2,pass\n'
            '2,2,2,1/5,1/4,pass\n'
            '2,2,3,1/10,1/4,pass\n'
            '2,2,4,1/20,1/4,pass\n'
        )),
        (("verify", "vague", "mixture", "halfhalf", "hat", "1..2", "--fuel", "2"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,1,1,0,1/2,pass\n'
            '1,1,2,1/10,1/2,pass\n'
            '1,1,3,1/20,1/2,pass\n'
            '2,2,2,1/10,1/4,pass\n'
            '2,2,3,1/20,1/4,pass\n'
            '2,2,4,1/40,1/4,pass\n'
        )),
        (("verify", "eps", "deltashrink", "delta0", "1..2", "--fuel", "2"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,6,6,1/64,1/2,pass\n'
            '1,6,7,1/128,1/2,pass\n'
            '1,6,8,1/256,1/2,pass\n'
            '2,7,7,1/128,1/4,pass\n'
            '2,7,8,1/256,1/4,pass\n'
            '2,7,9,1/512,1/4,pass\n'
        )),
        (("verify", "witness", "deltadrift", "delta1", "1..2", "--fuel", "2"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,8,8,0,3/2,pass\n'
            '1,8,9,0,3/2,pass\n'
            '1,8,10,0,3/2,pass\n'
            '2,9,9,0,5/4,pass\n'
            '2,9,10,0,5/4,pass\n'
            '2,9,11,0,5/4,pass\n'
        )),
        (("verify", "vague-to-weak", "mixture", "halfhalf", "constant-one", "1..2", "--fuel", "2"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,11,11,0,1/2,pass\n'
            '1,11,12,0,1/2,pass\n'
            '1,11,13,0,1/2,pass\n'
            '2,12,12,0,1/4,pass\n'
            '2,12,13,0,1/4,pass\n'
            '2,12,14,0,1/4,pass\n'
        )),
        (("demo", "specker", "--fuel", "4"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '0,4,0,1/4,0,pass\n'
            '0,4,1,1/20,0,pass\n'
            '0,4,2,0,0,pass\n'
            '0,4,3,0,0,pass\n'
            '0,4,4,0,0,pass\n'
            '0,4,5,0,0,pass\n'
            '0,4,6,0,0,pass\n'
            '0,4,7,0,0,pass\n'
            '0,4,8,0,0,pass\n'
            '# total-mass lower bounds (hidden oracle; strictly partial):\n'
            '#   fuel 0: 1/2\n'
            '#   fuel 1: 3/4\n'
            '#   fuel 2: 7/8\n'
            '#   fuel 3: 15/16\n'
            '#   fuel 4: 31/32\n'
        )),
        # the Specker route, pinned from the CLI before Specker was a Corpus
        (("verify", "vague", "specker:squares", "zero", "hat", "1..3", "--fuel", "2"), 1, (
            'N,index,checked_n,quantity,bound,result\n'
            '1,4,4,17/80,1/2,pass\n'
            '1,4,5,17/80,1/2,pass\n'
            '1,4,6,17/80,1/2,pass\n'
            '2,4,4,17/80,1/4,pass\n'
            '2,4,5,17/80,1/4,pass\n'
            '2,4,6,17/80,1/4,pass\n'
            '3,4,4,17/80,1/8,fail\n'
            '3,4,5,17/80,1/8,fail\n'
            '3,4,6,17/80,1/8,fail\n'
        )),
        # no report: the scan for a weak modulus of a sequence that does not
        # converge to the zero measure runs out
        (("verify", "weak", "specker", "zero", "hat", "1..2", "--fuel", "1"), 1, "",
         "error: insufficient name progress: no stable index below 128\n"),
        (("demo", "specker", "--enum", "squares", "--fuel", "4"), 0, (
            'N,index,checked_n,quantity,bound,result\n'
            '0,4,0,17/80,0,pass\n'
            '0,4,1,1/80,0,pass\n'
            '0,4,2,0,0,pass\n'
            '0,4,3,0,0,pass\n'
            '0,4,4,0,0,pass\n'
            '0,4,5,0,0,pass\n'
            '0,4,6,0,0,pass\n'
            '0,4,7,0,0,pass\n'
            '0,4,8,0,0,pass\n'
            '# total-mass lower bounds (hidden oracle; strictly partial):\n'
            '#   fuel 0: 1/2\n'
            '#   fuel 1: 3/4\n'
            '#   fuel 2: 25/32\n'
            '#   fuel 3: 801/1024\n'
            '#   fuel 4: 102529/131072\n'
        )),
    ]

    @staticmethod
    def assert_bytes(capsys, tmp_path, argv, code, expect, expect_err=""):
        out_path = tmp_path / "report.csv"
        got, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (got, out, err) == (code, expect, expect_err)
        table = "".join(ln for ln in expect.splitlines(True) if not ln.startswith("#"))
        assert (out_path.read_bytes() if out_path.exists() else b"") == table.encode()

    @staticmethod
    def case_ids(cases):
        """The mode or demo name; a name seen before gets the whole command."""
        seen, ids = set(), []
        for argv, *_ in cases:
            ids.append(argv[1] if argv[1] not in seen else " ".join(argv[1:]))
            seen.add(argv[1])
        return ids

    @pytest.mark.parametrize(
        "argv, code, lines, err", [(*c, "")[:4] for c in CASES], ids=case_ids(CASES)
    )
    def test_report(self, capsys, tmp_path, argv, code, lines, err):
        self.assert_bytes(capsys, tmp_path, argv, code, "".join(lines), err)

    def test_witness_not_in_cut_row(self, capsys, tmp_path, monkeypatch):
        # r = mu(C) + 2^-N clears the cut at every N, so the -1,-1 row needs
        # a witness that has not cleared it yet: here at r = 3/2 only
        real = cli.witness_from_eps

        def not_yet(seq, limit, eps, C, r):
            return NOT_IN_CUT if r > Fraction(4, 3) else real(seq, limit, eps, C, r)

        monkeypatch.setattr(cli, "witness_from_eps", not_yet)
        self.assert_bytes(
            capsys, tmp_path,
            ("verify", "witness", "deltadrift", "delta1", "1..2", "--fuel", "1"), 1,
            "N,index,checked_n,quantity,bound,result\n"
            "1,-1,-1,3/2,1,fail\n"
            "2,9,9,0,5/4,pass\n"
            "2,9,10,0,5/4,pass\n",
        )

    def test_fail_rows(self, capsys, tmp_path):
        cert = tmp_path / "bad.modulus"
        cert.write_text("modulus\n2 0\n4 0\n")
        self.assert_bytes(
            capsys, tmp_path,
            ("verify", "weak", "deltashrink", "delta0", "hat", "2,4", "--fuel", "2",
             "--certificate", str(cert)), 1,
            "N,index,checked_n,quantity,bound,result\n"
            "2,0,0,4/5,1/4,fail\n"
            "2,0,1,2/5,1/4,fail\n"
            "2,0,2,1/5,1/4,pass\n"
            "4,0,0,4/5,1/16,fail\n"
            "4,0,1,2/5,1/16,fail\n"
            "4,0,2,1/5,1/16,fail\n",
        )

    def test_eps_fail_rows(self, capsys, tmp_path):
        # 1/2,1/2 and 1/8,1/8: a distance equal to the bound fails
        cert = tmp_path / "bad.modulus"
        cert.write_text("modulus\n1 0\n3 2\n")
        self.assert_bytes(
            capsys, tmp_path,
            ("verify", "eps", "deltashrink", "delta0", "1,3", "--fuel", "1",
             "--certificate", str(cert)), 1,
            "N,index,checked_n,quantity,bound,result\n"
            "1,0,0,1,1/2,fail\n"
            "1,0,1,1/2,1/2,fail\n"
            "3,2,2,1/4,1/8,fail\n"
            "3,2,3,1/8,1/8,fail\n",
        )


class TestUnreadablePaths:
    """A path that cannot be read or written as text is a parse error, not a traceback."""

    @pytest.fixture
    def paths(self, tmp_path):
        d = tmp_path / "dir"
        d.mkdir()
        b = tmp_path / "binary"
        b.write_bytes(b"\xff\xfe\x00discrete\n")
        return {"dir": str(d), "binary": str(b), "missing": str(tmp_path / "no" / "x.csv")}

    @pytest.mark.parametrize(
        "argv",
        [
            ("prokhorov", "delta0", "{dir}"),
            ("prokhorov", "{binary}", "delta0"),
            ("verify", "weak", "deltashrink", "{binary}", "hat", "1"),
            ("verify", "weak", "deltashrink", "delta0", "{dir}", "1"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "1", "--certificate", "{dir}"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "1", "--certificate", "{binary}"),
            ("demo", "specker", "--enum", "{dir}"),
            ("demo", "specker", "--function", "{binary}"),
        ],
    )
    def test_unreadable_input(self, capsys, paths, argv):
        argv = [a.format(**paths) for a in argv]
        path = next(a for a in argv if a in paths.values())
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith(f"parse error: cannot read {path!r}: "), err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "weak", "deltashrink", "delta0", "hat", "1", "--out", "{dir}"),
            ("demo", "specker", "--out", "{missing}"),
        ],
    )
    def test_unwritable_out(self, capsys, paths, argv):
        argv = [a.format(**paths) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith(f"parse error: cannot write {argv[-1]!r}: "), err
        assert out == ""


class TestUsageErrors:
    """argparse usage errors end in exit 3, never in 2 (certified divergence)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("prokhorov", "delta0"),
            ("prokhorov", "delta0", "delta1", "--precision", "x"),
            ("bogus",),
            ("prokhorov", "delta0", "delta1", "extra"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "1..2", "--bogus"),
        ],
    )
    def test_usage_error_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("argv", [("--help",), ("prokhorov", "--help")])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(list(argv))
        assert e.value.code == 0
        assert "usage: effmeas" in capsys.readouterr().out


class TestOneParserPerProcess:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        bad = tmp_path / "bad.measure"
        bad.write_text("discrete\natom x 1\n")
        calls = [
            ("prokhorov", "delta0", "halfhalf"),
            ("verify", "weak", "deltashrink", "delta0", "hat", "1..2"),
            ("prokhorov", "delta0"),
            ("prokhorov", str(bad), "delta0"),
            ("prokhorov", "delta0", "halfhalf"),
        ]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        assert [code for code, _ in in_process] == [0, 0, 3, 3, 0]
        assert in_process == [run_process(*argv)[:2] for argv in calls]

    def test_rebound_subcommand_is_called(self, capsys, monkeypatch):
        assert run(capsys, "prokhorov", "delta0", "halfhalf")[0] == 0
        seen = []

        def fake(args):
            seen.append((args.file_a, args.file_b))
            return 0

        monkeypatch.setattr(cli, "cmd_prokhorov", fake)
        assert run(capsys, "prokhorov", "delta0", "halfhalf") == (0, "", "")
        assert seen == [("delta0", "halfhalf")]


class TestPackageMain:
    def test_python_m_effmeas_exit_codes(self):
        code, out, _ = run_process("prokhorov", "delta0", "halfhalf", module="effmeas")
        assert code == 0 and out.splitlines()[0] == "1/2"
        code, _, err = run_process("prokhorov", "delta0", module="effmeas")
        assert code == 3 and err.startswith("parse error: ")


class TestInputResolution:
    """A measure, function or enumeration token is read as a file in one
    ``open``; a path naming no file falls back to the builtin names."""

    def test_no_existence_check_before_the_read(self, capsys, tmp_path, monkeypatch):
        a = tmp_path / "a.measure"
        a.write_text("discrete\natom 0 1/2\natom 1 1/2\n")
        f = tmp_path / "f.poly"
        f.write_text("polyfunc zero-outside\n-1 0\n0 1\n1 0\n")
        e = tmp_path / "enum"
        e.write_text("0\n2\n1\n5\n3\n4\n6\n7\n8\n9\n10\n")
        checked, exists = [], os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda p: checked.append(p) or exists(p))
        code, out, _ = run(capsys, "prokhorov", str(a), "delta0")
        code2, _, _ = run(
            capsys, "demo", "specker", "--enum", str(e), "--function", str(f), "--fuel", "4"
        )
        monkeypatch.undo()
        assert code == 0 and out.splitlines()[0] == "1/2" and code2 in (0, 1)
        assert checked == []

    @pytest.mark.parametrize("kind", ["missing", "under-a-file"])
    def test_no_such_file_is_an_unknown_builtin(self, capsys, tmp_path, kind):
        plain = tmp_path / "plain"
        plain.write_text("discrete\natom 0 1\n")
        token = str(tmp_path / "none") if kind == "missing" else str(plain / "delta0")
        code, out, err = run(capsys, "prokhorov", token, "delta0")
        assert code == 3 and out == ""
        assert err == f"parse error: unknown measure {token!r} (no such file or builtin)\n"
        code, _, err = run(capsys, "demo", "specker", "--function", token)
        assert code == 3 and "unknown function" in err

    def test_a_file_shadows_a_builtin_name(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "halfhalf").write_text("discrete\natom 5 1\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "prokhorov", "halfhalf", "delta0")
        assert code == 0 and out.splitlines()[0] == "1/1"


# Files for the property over main, by the token that stands for each in a
# generated argv; "@dir" is a directory, "@binary" is not text.
FILES = {
    "@discrete": "discrete\natom 0 1/2\natom 1 1/2\n",
    "@density": "polydensity\n0 0\n1/2 1\n1 0\n",
    "@truncated-measure": "discrete\natom 0 1/2\natom 1 1/",
    "@polyfunc": "polyfunc zero-outside\n-1 0\n0 1\n1 0\n",
    "@bounded-polyfunc": "polyfunc constant\n-1 0\n1 1\n",
    "@wide-polyfunc": "polyfunc zero-outside\n0 0\n1 1\n130 0\n",
    "@truncated-function": "polyfunc zero-outside\n-1 0\n0 ",
    "@enum": "0\n2\n1\n5\n3\n4\n6\n7\n8\n9\n10\n",
    "@short-enum": "0\n2\n1\n",
    "@huge-enum": "0\n1\n2\n3\n1" + "0" * 5000 + "\n5\n6\n",  # 10^5000 on line 5
    "@cert": "modulus\n0 6\n1 7\n2 8\n3 9\n4 10\n",
    "@bad-cert": "modulus\n0 0\n1 0\n2 0\n3 0\n4 0\n",
    "@short-cert": "modulus\n1 3\n",
    "@truncated-cert": "modulus\n1 3\n2 ",
}
UNREADABLE = ["@binary", "@dir"]
BAD_NAMES = {"nosuch", "speckerfoo", "specker:nosuch", "specker:"}
# (well-formed tokens, tokens to refuse) for each slot of a command line
MEASURE_TOKENS = (["delta0", "delta1", "zero", "halfhalf", "@discrete", "@density"],
                  ["nosuch", "speckerfoo", "@truncated-measure", *UNREADABLE])
FUNCTION_TOKENS = (["hat", "zero", "constant-one", "clamped-identity", "@polyfunc",
                    "@bounded-polyfunc", "@wide-polyfunc"],
                   ["nosuch", "@truncated-function", *UNREADABLE])
ENUM_TOKENS = (["identity", "squares", "@enum"],
               ["nosuch", "specker:nosuch", "@short-enum", *UNREADABLE])
SEQ_TOKENS = (["deltashrink", "deltan", "mixture", "deltadrift", "specker", "specker:identity",
               "specker:squares"],
              sorted(BAD_NAMES))
CERT_TOKENS = (["@cert", "@bad-cert"], ["@short-cert", "@truncated-cert", *UNREADABLE])
FUEL_TOKENS = (["0", "1", "2"], ["-1"])
MODES = ["weak", "vague", "eps", "witness", "vague-to-weak"]


@st.composite
def command_lines(draw):
    """An argv over every subcommand and mode, with "@..." file tokens.
    Each slot holds a token to refuse one time in four, and each optional
    input is given one time in four.  N-lists hold at most three values,
    each at most 4, and ``--fuel`` is at most 2, so that one run stays
    cheap."""

    def pick(slot):
        good, bad = slot
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))

    def maybe():
        return draw(st.integers(0, 3)) == 3

    fuel = ["--fuel", pick(FUEL_TOKENS)]
    command = draw(st.sampled_from(["prokhorov", "demo", "verify"]))
    if command == "prokhorov":
        argv = ["prokhorov", pick(MEASURE_TOKENS), pick(MEASURE_TOKENS)]
        if maybe():
            argv += ["--precision", pick(FUEL_TOKENS)]
        return argv
    if command == "demo":
        argv = ["demo", "specker", *fuel]
        if draw(st.booleans()):
            argv += ["--enum", pick(ENUM_TOKENS)]
        if draw(st.booleans()):
            argv += ["--function", pick(FUNCTION_TOKENS)]
        return argv
    argv = ["verify", draw(st.sampled_from(MODES)), pick(SEQ_TOKENS), pick(MEASURE_TOKENS)]
    if draw(st.booleans()):
        argv.append(pick(FUNCTION_TOKENS))
    ns = ",".join(map(str, draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))))
    argv += [ns, *fuel] if draw(st.booleans()) else ["--precision", ns, *fuel]
    if maybe():
        argv += ["--certificate", pick(CERT_TOKENS)]
    if maybe():
        argv.append("--construct")
    return argv


def must_refuse(argv) -> bool:
    """An unknown name, or an input the mode would not use."""
    if BAD_NAMES & set(argv) or "--construct" in argv:
        return True
    if argv[0] != "verify":
        return False
    has_function = len(argv) > 4 and argv[4] in sum(FUNCTION_TOKENS, [])  # after LIMIT
    return (argv[1] in ("witness", "vague-to-weak") and "--certificate" in argv) or (
        argv[1] in ("eps", "witness") and has_function
    )


class TestMainProperty:
    """``main`` over generated command lines ends in a documented exit code."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        paths = {}
        for token, text in FILES.items():
            paths[token] = root / token[1:]
            paths[token].write_text(text)
        paths["@binary"] = root / "binary"
        paths["@binary"].write_bytes(b"\xff\xfe\x00discrete\n")
        paths["@dir"] = root / "dir"
        paths["@dir"].mkdir()
        return {token: str(path) for token, path in paths.items()}

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    # the reproducers: each leaked a traceback or passed (nosuch, specker:nosuch,
    # --enum nosuch: KeyError; speckerfoo ran Specker; a certificate or
    # --construct was taken and never checked)
    @example(argv=["verify", "weak", "nosuch", "delta0", "hat", "1"])
    @example(argv=["verify", "weak", "specker:nosuch", "delta0", "hat", "1"])
    @example(argv=["demo", "specker", "--enum", "nosuch"])
    @example(argv=["demo", "specker", "--enum", "@huge-enum"])
    @example(argv=["verify", "weak", "speckerfoo", "zero", "hat", "1"])
    @example(argv=["verify", "witness", "deltadrift", "delta1", "1", "--certificate", "@bad-cert"])
    @example(argv=["verify", "vague-to-weak", "deltashrink", "delta0", "1",
                   "--certificate", "@bad-cert"])
    @example(argv=["verify", "eps", "deltashrink", "delta0", "hat", "1"])
    @example(argv=["verify", "weak", "deltashrink", "delta0", "hat", "1", "--construct"])
    # rationals past the interpreter's 4,300-digit limit: in a divergence
    # message, and in a report row
    @example(argv=["verify", "weak", "specker:squares", "delta0", "--precision", "3",
                   "--fuel", "0"])
    @example(argv=["verify", "vague", "specker:squares", "zero", "@wide-polyfunc", "1",
                   "--fuel", "0"])
    def test_documented_exit_codes(self, paths, argv):
        refuse = must_refuse(argv)
        argv = [paths.get(t, t) for t in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        read_a_file = any(a in paths.values() for a in argv)
        assert code in (0, 1, 2, 3), (code, out, err)
        if code == 0 and argv[0] != "prokhorov":
            rows = rows_of(out)
            assert rows and all(r[-1] == "pass" for r in rows), out
        if code == 0 and argv[0] == "prokhorov":
            assert len(out.splitlines()) == 2 and err == ""
        if code in (1, 2):
            assert err or any(r[-1] == "fail" for r in rows_of(out)), (code, out)
        if code == 3:
            assert err.startswith("parse error: ") and out == "", (out, err)
            assert read_a_file or not err.startswith("parse error: line "), err
        if refuse:
            assert code == 3, (argv, code, out, err)

    def test_digit_limit_restored(self, paths):
        limit = sys.get_int_max_str_digits()
        argv = ["verify", "vague", "specker:squares", "zero", paths["@wide-polyfunc"], "1"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--fuel", "0"]) == 0
        # 2^-(130^2 + 1) and smaller weights: denominators of over 5,000 digits
        assert len(rows_of(out.getvalue())[0][3]) > 5000
        assert sys.get_int_max_str_digits() == limit
