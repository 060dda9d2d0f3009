"""Command-line front-end: instance I/O, four commands, report serialization.

Commands
    count    exact number of lattice points in a dilate of the body
    succmin  successive minima with deterministic witnesses
    verify   full verification pipeline, report as JSON
    fuzz     seeded randomized campaign, CSV or JSON rows plus a summary

Wire format notes
    * Every rational travels as a string ``"p"`` or ``"p/q"`` (or a JSON
      integer on input); floats are rejected so the pipeline stays exact
      end to end.
    * Square-root gauge values serialize as ``{"sqrt": "p/q"}``.
    * Counts and bounds serialize as strings so consumers without big
      integers cannot silently truncate them.
    * Key order is fixed, output is compact JSON with a trailing newline;
      identical invocations produce byte-identical stdout.

Exit codes
    0 success / all asserted checks pass
    1 an asserted check failed (or the oracle cross-check disagreed)
    2 input error (a file or ``--mu`` that is not UTF-8 or cannot be
      decoded as JSON, malformed data, a bad flag value)
    3 invariant violation (rank-deficient normals, singular basis, ...)
    4 bug alarm (a kernel check failed, contradicting the proof machinery)
      or internal error (a failed self-check or any other unexpected
      exception, reported as one ``internal error: <Type>: <msg>`` line)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Sequence, TextIO

from .bodies import Box, Ellipsoid, HPolytope, InvalidBodyError, SymmetricBody
from .enumeration import count_points
from .gauges import GaugeValue
from .harness import (BODY_KINDS, CHECK_NAMES, MAX_COEFF_RANGE, MAX_DIM,
                      GenerationError, InstanceSpec, VerificationReport,
                      campaign, oracle_campaign, plan_instances, verify)
from .lattices import Lattice
from .matrices import DimensionMismatch, Matrix, SingularMatrixError
from .minima import successive_minima

ORACLE_SAMPLE_CAP = 50
# Campaign seeds seed a 64-bit SplitMix64 stream.
MAX_SEED = (1 << 64) - 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INVARIANT = 3
EXIT_BUG_ALARM = 4

CSV_COLUMNS = ("seed", "dim", "body_kind", "lattice_kind", "count",
               "first_bound", "conjecture_bound", "main_bound", "lemma_lhs",
               "lemma_rhs", "chain", "tightness") + CHECK_NAMES


class ParseError(ValueError):
    """Malformed input document; message carries the JSON path."""


# ---------------------------------------------------------------------------
# rational / gauge wire format


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{path}: floats are not accepted; "
                         "write rationals as strings like \"3/2\"")
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a rational string")
    text = value.strip()
    num, sep, den = text.partition("/")
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError:
        # ``int`` refuses a well-formed integer past the interpreter's
        # digit limit with the same exception as a malformed one.
        fault = "malformed rational {}"
        if all(map(_INTEGER.fullmatch, text.split("/", 1))):
            fault = ("rational {} has more digits than the interpreter's "
                     f"limit of {sys.get_int_max_str_digits()}")
        raise ParseError(f"{path}: " + fault.format(_echo(value))) from None
    if d == 0:
        raise ParseError(f"{path}: zero denominator in {_echo(value)}")
    return Fraction(n, d)


# What ``int`` accepts in base 10.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _echo(value: str) -> str:
    """``repr(value)``, or that of a short prefix when ``value`` is long."""
    if len(value) <= 64:
        return repr(value)
    return f"{value[:32]!r}... ({len(value)} characters)"


def format_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def gauge_to_json(g: GaugeValue) -> Any:
    if g.is_sqrt:
        return {"sqrt": format_rational(g.value)}
    return format_rational(g.value)


def gauge_from_json(value: Any, path: str) -> GaugeValue:
    is_sqrt = isinstance(value, dict)
    if is_sqrt:
        if set(value) != {"sqrt"}:
            raise ParseError(f"{path}: gauge object must have the single "
                             "key \"sqrt\"")
        path += ".sqrt"
        value = value["sqrt"]
    v = parse_rational(value, path)
    if v < 0:
        raise ParseError(f"{path}: must be nonnegative, got {value!r}")
    return GaugeValue.sqrt_of(v) if is_sqrt else GaugeValue.rational(v)


# ---------------------------------------------------------------------------
# instance files


def _require_keys(obj: dict, allowed: set[str], required: set[str],
                  path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ParseError(f"{path}: unknown key {sorted(extra)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{path}: missing key {sorted(missing)[0]!r}")


def _parse_vector(value: Any, dim: int, path: str) -> list[Fraction]:
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError(f"{path}: expected an array of {dim} rationals")
    return [parse_rational(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_matrix(value: Any, nrows: int | None, ncols: int,
                  path: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a non-empty array of rows")
    if nrows is not None and len(value) != nrows:
        raise ParseError(f"{path}: expected {nrows} rows, got {len(value)}")
    rows = [_parse_vector(row, ncols, f"{path}[{i}]")
            for i, row in enumerate(value)]
    return Matrix.from_rows(rows)


def parse_instance(doc: Any) -> tuple[SymmetricBody, Lattice]:
    """Build (body, lattice) from a parsed instance document."""
    if not isinstance(doc, dict):
        raise ParseError("$: instance file must be a JSON object")
    _require_keys(doc, {"dim", "body", "lattice"}, {"dim", "body"}, "$")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError("$.dim: expected an integer")
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"$.dim: must be in 1..{MAX_DIM}")

    body_doc = doc["body"]
    if not isinstance(body_doc, dict):
        raise ParseError("$.body: expected an object")
    kind = body_doc.get("kind")
    if kind not in BODY_KINDS:
        raise ParseError("$.body.kind: expected one of "
                         + ", ".join(BODY_KINDS))
    if kind == "box":
        _require_keys(body_doc, {"kind", "halfwidths"}, {"kind", "halfwidths"},
                      "$.body")
        body: SymmetricBody = Box(tuple(
            _parse_vector(body_doc["halfwidths"], dim, "$.body.halfwidths")))
    elif kind == "hpolytope":
        _require_keys(body_doc, {"kind", "normals"}, {"kind", "normals"},
                      "$.body")
        body = HPolytope(_parse_matrix(body_doc["normals"], None, dim,
                                       "$.body.normals"))
    else:
        _require_keys(body_doc, {"kind", "gram"}, {"kind", "gram"}, "$.body")
        body = Ellipsoid(_parse_matrix(body_doc["gram"], dim, dim,
                                       "$.body.gram"))

    if "lattice" in doc:
        lat_doc = doc["lattice"]
        if not isinstance(lat_doc, dict):
            raise ParseError("$.lattice: expected an object")
        _require_keys(lat_doc, {"basis"}, {"basis"}, "$.lattice")
        lattice = Lattice(_parse_matrix(lat_doc["basis"], dim, dim,
                                        "$.lattice.basis"))
    else:
        lattice = Lattice.standard(dim)
    return body, lattice


def _decode_json(text: str, where: str) -> Any:
    """``json.loads(text)``, with every text it cannot decode an input
    error whose message starts with ``where``: malformed JSON, nesting
    past the recursion limit, and integers past the interpreter's digit
    limit, whose ``ValueError`` is not a ``JSONDecodeError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{where}invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"{where}invalid JSON: {exc}") from None


def load_instance(path: str | None) -> tuple[SymmetricBody, Lattice]:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    return parse_instance(_decode_json(text, ""))


# ---------------------------------------------------------------------------
# report serialization


def spec_to_json(spec: InstanceSpec) -> dict:
    return {"seed": str(spec.seed), "dim": spec.dim,
            "body_kind": spec.body_kind, "coeff_range": spec.coeff_range,
            "lattice_kind": spec.lattice_kind}


def report_to_json(report: VerificationReport) -> dict:
    return {
        "instance": spec_to_json(report.spec) if report.spec else None,
        "dim": report.dim,
        "body_kind": report.body_kind,
        "minima": [gauge_to_json(g) for g in report.minima],
        "witnesses": [list(w) for w in report.witnesses],
        "count": str(report.count),
        "bounds": {
            "first": str(report.first_bound),
            "conjecture": str(report.conjecture_bound),
            "main": None if report.main_bound is None
            else str(report.main_bound),
        },
        "lemma": {"lhs": str(report.lemma_lhs), "rhs": str(report.lemma_rhs)},
        "chain": list(report.chain),
        "checks": {name: report.checks[name] for name in CHECK_NAMES},
        "conjecture_observed": report.conjecture_observed,
        "tightness_ratio": None if report.tightness_ratio is None
        else format_rational(report.tightness_ratio),
        "alerts": list(report.alerts),
    }


def _emit(doc: Any, out: TextIO) -> None:
    out.write(json.dumps(doc, separators=(",", ":")) + "\n")


def report_csv_row(report: VerificationReport) -> list[str]:
    assert report.spec is not None
    return [str(report.spec.seed), str(report.dim), report.body_kind,
            report.spec.lattice_kind, str(report.count),
            str(report.first_bound), str(report.conjecture_bound),
            "" if report.main_bound is None else str(report.main_bound),
            str(report.lemma_lhs), str(report.lemma_rhs),
            "|".join(str(n) for n in report.chain),
            "" if report.tightness_ratio is None
            else format_rational(report.tightness_ratio),
            *(report.checks[name] for name in CHECK_NAMES)]


# ---------------------------------------------------------------------------
# diagnostics


def _use_color(stream: TextIO) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _diag(message: str) -> None:
    if _use_color(sys.stderr):
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def _parse_mu(text: str) -> GaugeValue:
    """``--mu`` as a rational string or in the gauge wire format
    ``{"sqrt": "P/Q"}`` that ``succmin`` prints."""
    value: Any = text
    if text.lstrip().startswith("{"):
        value = _decode_json(text, "--mu: ")
    return gauge_from_json(value, "--mu")


def cmd_count(args: argparse.Namespace) -> int:
    body, lattice = load_instance(args.input)
    mu = _parse_mu(args.mu)
    n = count_points(body, lattice, mu, strict=args.strict)
    _emit({"count": str(n)}, sys.stdout)
    return EXIT_OK


def cmd_succmin(args: argparse.Namespace) -> int:
    body, lattice = load_instance(args.input)
    result = successive_minima(body, lattice)
    _emit({"minima": [gauge_to_json(g) for g in result.minima],
           "witnesses": [list(w) for w in result.witnesses]}, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    body, lattice = load_instance(args.input)
    report = verify(body, lattice, minkowski=args.minkowski)
    _emit(report_to_json(report), sys.stdout)
    if report.bug_alarm:
        _diag("bug alarm: " + "; ".join(report.alerts))
        return EXIT_BUG_ALARM
    if report.failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError(f"--dim: malformed dimension list {text!r}") from None
    if not dims:
        raise ParseError("--dim: empty dimension list")
    for d in dims:
        if not 1 <= d <= MAX_DIM:
            raise ParseError(f"--dim: {d} is outside 1..{MAX_DIM}")
    return dims


def cmd_fuzz(args: argparse.Namespace) -> int:
    # A seed outside the stream's range would silently rerun the campaign
    # of the seed it is congruent to modulo 2^64.
    if not 0 <= args.seed <= MAX_SEED:
        raise ParseError(f"--seed: must be in 0..{MAX_SEED}")
    dims = _parse_dims(args.dim)
    if not 1 <= args.range <= MAX_COEFF_RANGE:
        raise ParseError(f"--range: must be in 1..{MAX_COEFF_RANGE}")
    if args.count < 0:
        raise ParseError("--count: must be nonnegative")
    if args.count == 0:
        return EXIT_OK
    kind = None if args.kind == "any" else args.kind
    specs = plan_instances(args.seed, args.count, dims, kind, args.range)
    reports, summary = campaign(specs)

    if args.out == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(report_csv_row(r)) for r in reports]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit({"reports": [report_to_json(r) for r in reports]}, sys.stdout)

    oracle_specs = [s for s in specs if s.dim <= 3][:ORACLE_SAMPLE_CAP]
    oracle_note = "skipped"
    oracle_ok = True
    if oracle_specs:
        oracle_ok = oracle_campaign(oracle_specs)
        oracle_note = (f"ok n={len(oracle_specs)}" if oracle_ok
                       else f"FAIL n={len(oracle_specs)}")

    tightness = ("" if summary.max_tightness is None else
                 f" max_tightness={format_rational(summary.max_tightness)}"
                 f" (seed={summary.max_tightness_seed})")
    print(f"fuzz: total={summary.total} failures={summary.failures} "
          f"alarms={len(summary.bug_alarms)}{tightness} "
          f"oracle={oracle_note}", file=sys.stderr)

    if summary.bug_alarms:
        _diag("bug alarm seeds: "
              + ", ".join(str(s) for s in summary.bug_alarms))
        return EXIT_BUG_ALARM
    if summary.failures or not oracle_ok:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmin",
        description="Exact successive minima, lattice point counts, and "
                    "inequality verification for 0-symmetric convex bodies.",
        epilog="Exit codes: 0 pass, 1 check failed, 2 input error, "
               "3 invariant violation, 4 bug alarm or internal error.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", metavar="PATH", default=None,
                       help="instance JSON file (default: stdin; '-' reads "
                            "stdin explicitly)")

    p_count = sub.add_parser(
        "count", help="count lattice points in a dilate of the body",
        description="Print the exact number of lattice points in mu*K as "
                    "JSON: {\"count\":\"<integer>\"}.")
    add_input(p_count)
    p_count.add_argument("--mu", default="1", metavar="P/Q",
                         help="dilation factor as a rational string, or "
                              "as {\"sqrt\":\"P/Q\"} for the square root "
                              "of one (default: 1)")
    p_count.add_argument("--strict", action="store_true",
                         help="count interior points only")
    p_count.set_defaults(func=cmd_count)

    p_succ = sub.add_parser(
        "succmin", help="compute successive minima and witnesses",
        description="Print the successive minima (rationals as \"p/q\", "
                    "irrational values as {\"sqrt\":\"p/q\"}) and one "
                    "witness vector per minimum.")
    add_input(p_succ)
    p_succ.set_defaults(func=cmd_succmin)

    p_verify = sub.add_parser(
        "verify", help="run the full verification pipeline on one instance",
        description="Run minima, canonicalization, floor terms, divisor "
                    "chain, kernel check, residue lemma, and all inequality "
                    "checks; print the report as JSON.")
    add_input(p_verify)
    p_verify.add_argument("--minkowski", choices=("auto", "estimate", "skip"),
                          default="auto",
                          help="volume-theorem checks for non-box shapes: "
                               "auto skips them (boxes are always exact), "
                               "estimate uses the Riemann volume estimate "
                               "with its surface-term tolerance (default: "
                               "auto)")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="run a seeded randomized verification campaign",
        description="Generate instances deterministically from --seed, "
                    "verify each, and write one row per instance plus a "
                    "summary line on stderr.  CSV columns, in order: "
                    + ", ".join(CSV_COLUMNS) + ".  The chain column is "
                    "pipe-separated; check columns hold pass/fail/reported/"
                    "skipped.  A definition-level oracle re-checks up to "
                    f"{ORACLE_SAMPLE_CAP} instances of dimension <= 3; a "
                    "disagreement exits 1.")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help=f"campaign seed in 0..{MAX_SEED} (default: 0)")
    p_fuzz.add_argument("--count", type=int, default=100,
                        help="number of instances (default: 100)")
    p_fuzz.add_argument("--dim", default="2,3",
                        help="comma-separated dimensions cycled over "
                             "instances (default: 2,3)")
    p_fuzz.add_argument("--kind", choices=BODY_KINDS + ("any",),
                        default="any",
                        help="body kind, or 'any' to draw per instance "
                             "(default: any)")
    p_fuzz.add_argument("--range", type=int, default=5,
                        help="coefficient bound for generated instances "
                             "(default: 5)")
    p_fuzz.add_argument("--out", choices=("csv", "json"), default="csv",
                        help="per-instance output format (default: csv)")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


# Parsing leaves the parser unchanged, so every call of main shares one.
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _diag(f"input error: {exc}")
        return EXIT_INPUT_ERROR
    except OSError as exc:
        _diag(f"input error: {exc}")
        return EXIT_INPUT_ERROR
    except (InvalidBodyError, SingularMatrixError, DimensionMismatch,
            GenerationError) as exc:
        _diag(f"invariant violation: {exc}")
        return EXIT_INVARIANT
    except Exception as exc:
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_BUG_ALARM


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
