"""Command-line interface: wire formats, commands, exit codes."""

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import Box, Ellipsoid, GaugeValue, Lattice, Matrix, verify
from latmin.cli import (CSV_COLUMNS, ParseError, build_parser, format_rational,
                        gauge_from_json, gauge_to_json, main, parse_instance,
                        parse_rational, report_to_json)

from strategies import rationals

F = Fraction

BOX13_DOC = {"dim": 2, "body": {"kind": "box", "halfwidths": ["1", "3"]}}
DISK_SKEW_DOC = {
    "dim": 2,
    "body": {"kind": "ellipsoid", "gram": [["1", "0"], ["0", "1"]]},
    "lattice": {"basis": [["1", "1"], ["0", "2"]]},
}


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


class TestRationalWireFormat:
    def test_parse(self):
        assert parse_rational(3, "$") == 3
        assert parse_rational("3/2", "$") == F(3, 2)
        assert parse_rational(" -7 ", "$") == -7
        assert parse_rational("-4/6", "$") == F(-2, 3)

    def test_parse_rejections(self):
        with pytest.raises(ParseError, match="boolean"):
            parse_rational(True, "$")
        with pytest.raises(ParseError, match="floats are not accepted"):
            parse_rational(1.5, "$")
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational("3/2/1", "$")
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational("1/0", "$")
        with pytest.raises(ParseError, match="expected a rational"):
            parse_rational([1], "$")

    @given(rationals(50, 20))
    def test_round_trip(self, f):
        assert parse_rational(format_rational(f), "$") == f

    def test_gauge_round_trip(self):
        for g in (GaugeValue.rational(F(3, 2)), GaugeValue.sqrt_of(F(7, 4)),
                  GaugeValue.rational(0)):
            back = gauge_from_json(gauge_to_json(g), "$")
            assert back == g and back.is_sqrt == g.is_sqrt
        assert gauge_to_json(GaugeValue.sqrt_of(2)) == {"sqrt": "2"}
        with pytest.raises(ParseError, match="sqrt"):
            gauge_from_json({"root": "2"}, "$")
        with pytest.raises(ParseError, match=r"\$\.sqrt: must be nonneg"):
            gauge_from_json({"sqrt": "-1/2"}, "$")
        with pytest.raises(ParseError, match="must be nonnegative"):
            gauge_from_json("-3", "$")


class TestInstanceParsing:
    def test_box_document(self):
        body, lattice = parse_instance(BOX13_DOC)
        assert body == Box((F(1), F(3)))
        assert lattice.is_standard

    def test_lattice_document(self):
        body, lattice = parse_instance(DISK_SKEW_DOC)
        assert body == Ellipsoid(Matrix.identity(2))
        assert lattice == Lattice(Matrix.from_rows([[1, 1], [0, 2]]))

    def test_error_paths_are_precise(self):
        with pytest.raises(ParseError, match=r"\$: instance file must"):
            parse_instance([1])
        with pytest.raises(ParseError, match=r"\$: missing key 'body'"):
            parse_instance({"dim": 2})
        with pytest.raises(ParseError, match=r"\$\.dim: expected an integer"):
            parse_instance({"dim": True, "body": {}})
        with pytest.raises(ParseError, match=r"\$\.dim: must be in"):
            parse_instance({"dim": 0, "body": {}})
        with pytest.raises(ParseError, match=r"\$\.body\.kind"):
            parse_instance({"dim": 2, "body": {"kind": "simplex"}})
        with pytest.raises(ParseError,
                           match=r"\$\.body\.halfwidths\[1\]: zero denominator"
                                 r" in '1/0'"):
            parse_instance({"dim": 2, "body": {"kind": "box",
                                               "halfwidths": ["1", "1/0"]}})
        with pytest.raises(ParseError, match="expected an array of 2"):
            parse_instance({"dim": 2, "body": {"kind": "box",
                                               "halfwidths": ["1"]}})
        with pytest.raises(ParseError, match="unknown key 'extra'"):
            parse_instance({"dim": 2, "extra": 1, "body": BOX13_DOC["body"]})
        with pytest.raises(ParseError, match=r"\$\.body\.gram: expected 2"):
            parse_instance({"dim": 2,
                            "body": {"kind": "ellipsoid", "gram": [["1"]]}})
        # A matrix entry and a matrix row are named by their full index
        # path, and the first of two faults is the one reported.
        with pytest.raises(ParseError, match=r"^\$\.lattice\.basis\[1\]\[0\]:"
                                             r" expected a rational string$"):
            parse_instance({"dim": 2, "body": BOX13_DOC["body"],
                            "lattice": {"basis": [["1", "0"], [None, "x"]]}})
        with pytest.raises(ParseError, match=r"^\$\.body\.normals\[2\]: "
                                             r"expected an array of 2"):
            parse_instance({"dim": 2, "body": {
                "kind": "hpolytope",
                "normals": [["1", "0"], ["0", "1"], ["1"], [1.5, "1"]]}})


class TestReportSerialization:
    def test_round_trip(self):
        report = verify(Box((F(1), F(3))), Lattice.standard(2))
        doc = report_to_json(report)
        assert doc["count"] == "21"
        assert doc["bounds"] == {"first": "49", "conjecture": "21",
                                 "main": "42"}
        assert doc["tightness_ratio"] == "1/2"


class TestCountCommand:
    def test_counts_from_stdin(self, monkeypatch, capsys):
        rc, out, err = run_cli(monkeypatch, capsys, ["count"],
                               json.dumps(BOX13_DOC))
        assert (rc, out) == (0, '{"count":"21"}\n')

    def test_dilation_and_strict_flags(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(BOX13_DOC))
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["count", "--input", str(path), "--mu", "2"])
        assert (rc, out) == (0, '{"count":"65"}\n')
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["count", "--input", str(path), "--mu", "1/2"])
        assert (rc, out) == (0, '{"count":"3"}\n')
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["count", "--input", str(path), "--strict"])
        assert (rc, out) == (0, '{"count":"5"}\n')

    def test_input_errors_exit_2(self, monkeypatch, capsys, tmp_path):
        rc, _, err = run_cli(monkeypatch, capsys, ["count"], "not json")
        assert rc == 2 and "input error" in err
        rc, _, err = run_cli(monkeypatch, capsys,
                             ["count", "--input", str(tmp_path / "absent")])
        assert rc == 2
        doc = {"dim": 2, "body": {"kind": "box", "halfwidths": [1.5, "1"]}}
        rc, _, err = run_cli(monkeypatch, capsys, ["count"], json.dumps(doc))
        assert rc == 2 and "floats are not accepted" in err
        rc, _, err = run_cli(monkeypatch, capsys,
                             ["count", "--mu", "x"], json.dumps(BOX13_DOC))
        assert rc == 2 and "--mu" in err
        rc, _, err = run_cli(monkeypatch, capsys,
                             ["count", "--mu=-1"], json.dumps(BOX13_DOC))
        assert rc == 2 and err.startswith("input error: --mu")
        assert len(err.splitlines()) == 1
        # Seeds are reduced modulo 2^64 by the instance stream, so the ones
        # outside 0..2^64-1 would rerun another seed's campaign.
        for seed in ("-1", str(1 << 64)):
            rc, out, err = run_cli(monkeypatch, capsys,
                                   ["fuzz", "--seed", seed, "--count", "1"])
            assert (rc, out) == (2, "")
            assert err.startswith("input error: --seed: ")
            assert len(err.splitlines()) == 1

    def test_undecodable_input_exits_2(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" +
                         json.dumps(BOX13_DOC).encode("utf-16-le"))
        rc, out, err = run_cli(monkeypatch, capsys,
                               ["count", "--input", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("input error: input is not UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_deeply_nested_input_exits_2(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        for argv, stdin_text in ((["count", "--input", str(path)], ""),
                                 (["count"], "[" * 100_000)):
            rc, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
            assert (rc, out) == (2, "")
            assert err == "input error: invalid JSON: nested too deeply\n"
        rc, out, err = run_cli(monkeypatch, capsys,
                               ["count", "--mu", '{"sqrt":' + "[" * 20_000],
                               json.dumps(BOX13_DOC))
        assert (rc, out) == (2, "")
        assert err == "input error: --mu: invalid JSON: nested too deeply\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    def test_integer_past_the_digit_limit_exits_2(self, monkeypatch, capsys):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        doc = '{"dim": %s, "body": {}}' % digits
        for argv, stdin_text in ((["count"], doc),
                                 (["count", "--mu", '{"sqrt": %s}' % digits],
                                  json.dumps(BOX13_DOC))):
            rc, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
            assert (rc, out) == (2, "")
            prefix = "input error: --mu: " if "--mu" in argv else \
                "input error: "
            assert err.startswith(prefix + "invalid JSON: ")
            assert len(err.splitlines()) == 1

    @staticmethod
    def _past_the_digit_limit(monkeypatch, capsys, argv, stdin_text, path):
        # A well-formed rational string too long for int() is not reported
        # as malformed, and the message echoes only a prefix of it.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer string conversion is unlimited")
        digits = "7" * (limit + 1)
        rc, out, err = run_cli(monkeypatch, capsys,
                               [a.replace("DIGITS", digits) for a in argv],
                               stdin_text.replace("DIGITS", digits))
        assert (rc, out) == (2, "")
        assert err == (f"input error: {path}: rational '{'7' * 32}'... "
                       f"({limit + 1} characters) has more digits than the "
                       f"interpreter's limit of {limit}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    def test_rational_past_the_digit_limit_exits_2(self, monkeypatch, capsys):
        doc = '{"dim": 1, "body": {"kind": "box", "halfwidths": ["DIGITS"]}}'
        self._past_the_digit_limit(monkeypatch, capsys, ["count"], doc,
                                   "$.body.halfwidths[0]")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    def test_mu_past_the_digit_limit_exits_2(self, monkeypatch, capsys):
        self._past_the_digit_limit(monkeypatch, capsys,
                                   ["count", "--mu", "DIGITS"],
                                   json.dumps(BOX13_DOC), "--mu")

    def test_box_counts_past_the_word_size(self, monkeypatch, capsys):
        # 2*m + 1 points per axis, past what len(range) can report.
        n = 10 ** 20
        rc, out, _ = run_cli(monkeypatch, capsys, ["count", "--mu", str(n)],
                             json.dumps(BOX13_DOC))
        assert (rc, out) == (0, '{"count":"%d"}\n' % ((2 * n + 1)
                                                       * (6 * n + 1)))
        doc = json.dumps({"dim": 1, "body": {"kind": "box",
                                             "halfwidths": [str(n)]}})
        rc, out, _ = run_cli(monkeypatch, capsys, ["count"], doc)
        assert (rc, out) == (0, '{"count":"%d"}\n' % (2 * n + 1))
        rc, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
        assert rc == 0 and json.loads(out)["count"] == str(2 * n + 1)

    def test_sqrt_dilation(self, monkeypatch, capsys):
        doc = json.dumps(BOX13_DOC)
        for mu, count in (('{"sqrt": "2"}', "27"), ('{"sqrt":"4"}', "65"),
                          ('{"sqrt": "0"}', "1")):
            rc, out, _ = run_cli(monkeypatch, capsys, ["count", "--mu", mu],
                                 doc)
            assert (rc, out) == (0, f'{{"count":"{count}"}}\n')

    def test_succmin_minimum_passes_back_as_mu(self, monkeypatch, capsys):
        doc = json.dumps({"dim": 2, "body": {
            "kind": "ellipsoid", "gram": [["2", "1"], ["1", "3"]]}})
        rc, out, _ = run_cli(monkeypatch, capsys, ["succmin"], doc)
        last = json.loads(out)["minima"][-1]
        assert (rc, last) == (0, {"sqrt": "3"})
        # 2x^2 + 2xy + 3y^2 <= 3 at 0, +-(1, 0), +-(0, 1) and +-(1, -1).
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["count", "--mu", json.dumps(last)], doc)
        assert (rc, out) == (0, '{"count":"7"}\n')
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["count", "--mu", json.dumps(last), "--strict"],
                             doc)
        assert (rc, out) == (0, '{"count":"3"}\n')

    def test_sqrt_dilation_errors_exit_2(self, monkeypatch, capsys):
        for mu in ('{"sqrt": "2"', '{"sqrt": "-2"}', '{"root": "2"}',
                   '{"sqrt": 1.5}'):
            rc, _, err = run_cli(monkeypatch, capsys, ["count", "--mu", mu],
                                 json.dumps(BOX13_DOC))
            assert rc == 2 and err.startswith("input error: --mu")
            assert len(err.splitlines()) == 1

    def test_internal_errors_exit_4(self, monkeypatch, capsys):
        def broken(body, lattice):
            raise AssertionError("self-check failed")

        monkeypatch.setattr("latmin.cli.successive_minima", broken)
        rc, out, err = run_cli(monkeypatch, capsys, ["succmin"],
                               json.dumps(BOX13_DOC))
        assert rc == 4 and out == ""
        assert err == "internal error: AssertionError: self-check failed\n"

    def test_invariant_violations_exit_3(self, monkeypatch, capsys):
        doc = {"dim": 2, "body": {"kind": "hpolytope",
                                  "normals": [["1", "0"], ["2", "0"]]}}
        rc, _, err = run_cli(monkeypatch, capsys, ["count"], json.dumps(doc))
        assert rc == 3 and "invariant violation" in err


class TestSuccminCommand:
    def test_box(self, monkeypatch, capsys):
        rc, out, _ = run_cli(monkeypatch, capsys, ["succmin"],
                             json.dumps(BOX13_DOC))
        assert rc == 0
        assert out == ('{"minima":["1/3","1"],'
                       '"witnesses":[[0,1],[1,0]]}\n')

    def test_irrational_minima(self, monkeypatch, capsys):
        rc, out, _ = run_cli(monkeypatch, capsys, ["succmin"],
                             json.dumps(DISK_SKEW_DOC))
        assert rc == 0
        assert out == ('{"minima":[{"sqrt":"1"},{"sqrt":"4"}],'
                       '"witnesses":[[1,0],[1,-1]]}\n')


class TestVerifyCommand:
    def test_report_matches_library(self, monkeypatch, capsys):
        rc, out, _ = run_cli(monkeypatch, capsys, ["verify"],
                             json.dumps(BOX13_DOC))
        assert rc == 0
        expected = report_to_json(verify(Box((F(1), F(3))),
                                         Lattice.standard(2)))
        assert json.loads(out) == expected
        # Output is compact JSON with a trailing newline.
        assert out == json.dumps(json.loads(out),
                                 separators=(",", ":")) + "\n"

    def test_estimate_mode(self, monkeypatch, capsys):
        rc, out, _ = run_cli(monkeypatch, capsys,
                             ["verify", "--minkowski", "estimate"],
                             json.dumps(DISK_SKEW_DOC))
        assert rc == 0
        doc = json.loads(out)
        assert doc["checks"]["mink-1"] == "pass"
        assert doc["checks"]["mink-2"] == "pass"


class TestFuzzCommand:
    def test_zero_count_is_a_no_op(self, monkeypatch, capsys):
        rc, out, err = run_cli(monkeypatch, capsys, ["fuzz", "--count", "0"])
        assert (rc, out, err) == (0, "", "")

    def test_csv_shape_and_summary(self, monkeypatch, capsys):
        rc, out, err = run_cli(monkeypatch, capsys,
                               ["fuzz", "--seed", "42", "--count", "12",
                                "--dim", "1,2", "--range", "3"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 13
        assert err.startswith("fuzz: total=12 failures=0 alarms=0")
        assert "oracle=ok n=12" in err

    def test_runs_are_reproducible(self, monkeypatch, capsys):
        argv = ["fuzz", "--seed", "7", "--count", "10", "--dim", "2,3",
                "--range", "4"]
        first = run_cli(monkeypatch, capsys, argv)
        second = run_cli(monkeypatch, capsys, argv)
        assert first == second

    def test_json_rows_round_trip(self, monkeypatch, capsys):
        # Each JSON row carries the fields of the CSV row of the same
        # campaign.
        argv = ["fuzz", "--seed", "3", "--count", "6", "--dim", "2",
                "--range", "3"]
        rc, out, _ = run_cli(monkeypatch, capsys, argv + ["--out", "json"])
        assert rc == 0
        docs = json.loads(out)["reports"]
        rc, out, _ = run_cli(monkeypatch, capsys, argv)
        assert rc == 0
        rows = [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in out.splitlines()[1:]]
        assert len(docs) == len(rows) == 6
        for doc, row in zip(docs, rows):
            assert doc["instance"]["seed"] == row["seed"]
            assert doc["count"] == row["count"]
            assert doc["lemma"] == {"lhs": row["lemma_lhs"],
                                    "rhs": row["lemma_rhs"]}
            assert "|".join(map(str, doc["chain"])) == row["chain"]
            assert doc["checks"] == {name: row[name]
                                     for name in doc["checks"]}

    def test_flag_validation_exits_2(self, monkeypatch, capsys):
        rc, _, err = run_cli(monkeypatch, capsys, ["fuzz", "--dim", "7"])
        assert rc == 2 and "--dim: 7 is outside 1..6" in err
        rc, _, err = run_cli(monkeypatch, capsys, ["fuzz", "--dim", "x"])
        assert rc == 2
        rc, _, err = run_cli(monkeypatch, capsys, ["fuzz", "--range", "0"])
        assert rc == 2 and "--range" in err
        rc, _, err = run_cli(monkeypatch, capsys, ["fuzz", "--count", "-1"])
        assert rc == 2 and "--count" in err

    def test_unknown_kind_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fuzz", "--kind", "torus"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        cmd = [shutil.which("latmin") or sys.executable]
        if cmd == [sys.executable]:
            cmd += ["-m", "latmin.cli"]
        path = tmp_path / "box.json"
        path.write_text(json.dumps(BOX13_DOC))
        proc = subprocess.run(cmd + ["count", "--input", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"count":"21"}\n'
