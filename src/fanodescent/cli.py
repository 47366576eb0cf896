"""Command-line surface: identity suites, chain walks, theorem gates.

Three subcommands share one contract: exit 0 when every requested check
passes, exit 1 when a mathematical check fails, exit 2 on usage or
input errors.  Output is a fixed-width table on stdout, or a
machine-readable JSON report behind ``--json``; every rational number
is serialized exactly as a ``p/q`` string, never as a decimal.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .coeffs import CoeffTable, IdentityCheck, _IdentityPass
from .descent import (
    CatalogueEntry,
    DescentError,
    SplitChernVector,
    catalogue,
    descend_chain,
)
from .exact import _text, as_rational, bernoulli_table
from .theorems import (
    THEOREMS,
    CertificateError,
    check_hypotheses,
    max_m,
    proof_trace,
)

__all__ = ["RunReport", "main", "run", "parse_split_vector_file"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunReport:
    """One command's machine-readable result; round-trips through JSON."""

    command: str
    parameters: dict
    results: dict
    status: str
    exit_code: int
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "status": self.status,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        """The report as JSON, byte for byte ``json.dumps(self.as_dict(), indent=2)``.

        ``_write_json`` writes it in one pass.  Only dicts with str keys,
        lists, strings, ints, bools and None are written; anything else,
        a float included, raises TypeError.
        """
        out: list[str] = []
        _write_json(self.as_dict(), out, "\n")
        return "".join(out)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            results=data["results"],
            status=data["status"],
            exit_code=data["exit_code"],
            schema_version=data["schema_version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Read a report; like ``to_json``, refuse floats (NaN and Infinity too) with TypeError."""
        return cls.from_dict(json.loads(text, parse_float=_no_float, parse_constant=_no_float))


def _no_float(token: str) -> None:
    raise TypeError(f"cannot read float from JSON: {token}")


def _write_json(obj: object, out: list[str], indent: str) -> None:
    """Append ``obj`` to ``out`` laid out as ``json.dumps(obj, indent=2)`` would.

    ``indent`` is a newline followed by the current indentation.  The C
    encoder behind ``json.dumps`` runs only without ``indent``; with it,
    every value goes through the pure-Python encoder.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, dict)) and not obj:
        out.append("[]" if isinstance(obj, list) else "{}")
    elif isinstance(obj, list):
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON: {obj!r}")


def _q(x: Fraction | int) -> str:
    return _text(as_rational(x))


# ASCII digits only: int() and Fraction() also take digit separators
# (1_0) and other scripts' digits, and int() surrounding whitespace.
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_TOKEN = re.compile(_INTEGER)
_RATIONAL_TOKEN = re.compile(_INTEGER + r"(/[0-9]+)?")


def _parse_integer(text: str) -> int:
    """The integer ``text`` spells as [+-]digits; ValueError otherwise."""
    if not _INTEGER_TOKEN.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_split_vector_file(path: str | Path) -> SplitChernVector:
    """Read a split vector from a plain text file.

    Format: whitespace-separated tokens, lines starting with '#' are
    comments; the first token is the dimension n, followed by exactly n
    rationals written as ``p/q`` (or bare integers ``p``), each with an
    optional sign.  Decimals, exponents and digit separators are refused.
    """
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.split())
    if not tokens:
        raise ValueError(f"{path}: no data found")
    if not _INTEGER_TOKEN.fullmatch(tokens[0]):
        raise ValueError(f"{path}: first token must be the integer dimension")
    dim = int(tokens[0])
    if dim < 1:
        raise ValueError(f"{path}: dimension must be >= 1, got {dim}")
    if len(tokens) - 1 != dim:
        raise ValueError(
            f"{path}: expected {dim} scalars after the dimension, got {len(tokens) - 1}"
        )
    scalars = []
    for tok in tokens[1:]:
        # Fraction() alone would also take 0.5, 1e3 and 1_0.
        if not _RATIONAL_TOKEN.fullmatch(tok):
            raise ValueError(f"{path}: bad rational token {tok!r} (expected p/q or an integer)")
        num, _, den = tok.partition("/")
        # int(text) refuses more digits than sys.get_int_max_str_digits()
        # allows; Decimal parses them exactly and leaves that limit alone.
        try:
            scalars.append(Fraction(int(Decimal(num)), int(Decimal(den or 1))))
        except ZeroDivisionError:
            raise ValueError(f"{path}: bad rational token {tok!r} (zero denominator)") from None
    return SplitChernVector(tuple(scalars), label="input")


def _positive_int(text: str) -> int:
    try:
        value = _parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _degree_list(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple([_parse_integer(tok) for tok in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if any(a < 1 for a in degrees):
        raise argparse.ArgumentTypeError("degrees must be positive integers")
    return degrees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanodescent",
        description="Exact Chern-character descent: identities, chains, theorem gates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="run the coefficient identity suite",
        description="Check the descent-coefficient identities across all three "
        "computation routes.  The identities themselves cost O(M^3) exact "
        "operations per run, M = max(--max-i + 2, --max-n); the coefficient "
        "table they read grows its j = 1, 2 columns to depth --max-i in about "
        "--max-i^3/3 big-integer multiply-adds.",
    )
    p_verify.add_argument("--max-i", type=_positive_int, default=12, dest="max_i",
                          help="largest iteration depth to check (default 12)")
    p_verify.add_argument("--max-n", type=_positive_int, default=12, dest="max_n",
                          help="largest composition size for the symmetric-function "
                          "identity (default 12)")
    p_verify.add_argument("--json", action="store_true", help="emit a JSON report")
    p_verify.add_argument("--flip-b1", action="store_true", help=argparse.SUPPRESS)

    p_chain = sub.add_parser(
        "chain",
        help="walk the descent chain of a model manifold",
        description="Walk descent steps for a catalogue manifold "
        "(projective_space N | quadric N | grassmannian K M) or a vector file.",
    )
    p_chain.add_argument("name", nargs="*", help="manifold family name and parameters")
    p_chain.add_argument("--degrees", type=_degree_list, default=None,
                         help="comma-separated curve degrees per step (default: "
                         "the catalogue sequence, or all 1 for --input)")
    p_chain.add_argument("--input", default=None, metavar="FILE",
                         help="read the split vector from FILE instead")
    p_chain.add_argument("--json", action="store_true", help="emit a JSON report")

    p_check = sub.add_parser(
        "check",
        help="check theorem-gate hypotheses",
        description="Check the positivity thresholds of a theorem gate on a "
        "catalogue manifold or a vector file; with --m also replay the "
        "proof-trace certificate.",
    )
    p_check.add_argument("name", nargs="*", help="manifold family name and parameters")
    p_check.add_argument("--theorem", required=True,
                         choices=[t.replace("_", "-") for t in THEOREMS],
                         help="which gate to check")
    p_check.add_argument("--m", type=_positive_int, default=None,
                         help="gate level; omit to report the maximal passing m")
    p_check.add_argument("--input", default=None, metavar="FILE",
                         help="read the split vector from FILE instead")
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses, built on its first call.

    Sharing it across calls is safe: argparse reads a parser without
    changing it and parses into a fresh namespace each time, nothing here
    changes the parser after ``build_parser`` returns, and every default
    is None, a bool or an int, so no command can alter what a later call
    parses.
    """
    return build_parser()


# ---------------------------------------------------------------------------
# verify


def _check_dict(check: IdentityCheck) -> dict:
    return {
        "name": check.name,
        "ok": check.ok,
        "discrepancies": [
            {
                "location": d.location,
                "expected": _q(d.expected),
                "actual": _q(d.actual),
                "diff": _q(d.diff),
            }
            for d in check.discrepancies
        ],
    }


def cmd_verify(args: argparse.Namespace) -> RunReport:
    # A table given a prefix fills every row by the Toeplitz route, so the
    # generating polynomials check another route.
    seed = [Fraction(1)]
    if args.flip_b1:
        seed = bernoulli_table(2)
        seed[1] = -seed[1]
    table = CoeffTable(seed)
    # One pass builds what every depth and the run-level check share.
    shared = _IdentityPass(max(args.max_i + 2, args.max_n))
    reports = [shared.report(i, table) for i in range(1, args.max_i + 1)]
    composition = shared.symmetric_check(args.max_n)
    all_ok = all(r.passed for r in reports) and composition.ok
    results = {
        "reports": [
            {"i": r.i, "passed": r.passed, "checks": [_check_dict(c) for c in r.checks]}
            for r in reports
        ],
        "composition_identity": _check_dict(composition),
        "all_ok": all_ok,
    }
    return RunReport(
        command="verify",
        parameters={"max_i": args.max_i, "max_n": args.max_n, "flip_b1": args.flip_b1},
        results=results,
        status="pass" if all_ok else "fail",
        exit_code=0 if all_ok else 1,
    )


def render_verify(report: RunReport) -> str:
    lines = [
        f"identity suite: depths 1..{report.parameters['max_i']}, "
        f"composition identity to n = {report.parameters['max_n']}"
    ]
    rows = []
    for rep in report.results["reports"]:
        rows.append([str(rep["i"]), str(len(rep["checks"])), "ok" if rep["passed"] else "FAIL"])
    lines.extend(_table(["depth", "checks", "result"], rows))
    comp = report.results["composition_identity"]
    lines.append(
        f"composition/symmetric identity: {'ok' if comp['ok'] else 'FAIL'}"
    )
    if report.results["all_ok"]:
        lines.append("result: all identities hold")
    else:
        name, disc = _first_failure(report)
        lines.append(
            f"result: FAILED at {name} {disc['location']}: "
            f"expected {disc['expected']}, got {disc['actual']} "
            f"(diff {disc['diff']})"
        )
    return "\n".join(lines)


def _first_failure(report: RunReport) -> tuple[str, dict]:
    for rep in report.results["reports"]:
        for check in rep["checks"]:
            if check["discrepancies"]:
                return check["name"], check["discrepancies"][0]
    comp = report.results["composition_identity"]
    if comp["discrepancies"]:
        return comp["name"], comp["discrepancies"][0]
    raise AssertionError("no failure recorded")


# ---------------------------------------------------------------------------
# chain


def _resolve_vector(
    args: argparse.Namespace,
) -> tuple[SplitChernVector | None, CatalogueEntry | None, dict]:
    """Shared name/--input resolution for chain and check."""
    if args.input is not None and args.name:
        raise ValueError("give either a manifold name or --input, not both")
    if args.input is not None:
        vector = parse_split_vector_file(args.input)
        params = {"name": None, "params": [], "input": args.input}
        return vector, None, params
    if not args.name:
        raise ValueError("a manifold family name (or --input FILE) is required")
    name = args.name[0]
    try:
        numbers = [_parse_integer(tok) for tok in args.name[1:]]
    except ValueError:
        raise ValueError(
            f"manifold parameters must be integers, got {args.name[1:]}"
        ) from None
    entry = catalogue(name, numbers)
    params = {"name": name, "params": numbers, "input": None}
    return entry.vector, entry, params


def _vector_dict(v: SplitChernVector) -> dict:
    return {"dim": v.dim, "scalars": [_q(s) for s in v.scalars]}


def cmd_chain(args: argparse.Namespace) -> RunReport:
    vector, entry, params = _resolve_vector(args)
    params = dict(params)
    params["degrees"] = list(args.degrees) if args.degrees else None

    if entry is not None and not entry.split:
        if args.degrees:
            raise ValueError(f"{entry.label} has no split vector; --degrees does not apply")
        results = {
            "label": entry.label,
            "split": False,
            "chains": [list(c) for c in entry.chains],
            "N_lower": entry.n_lower,
            "N_upper": entry.n_upper,
        }
        return RunReport("chain", params, results, "pass", 0)

    degrees = args.degrees if args.degrees else (entry.degrees if entry else None)
    used_default = args.degrees is None and entry is not None
    report = descend_chain(vector, degrees)

    expected = None
    matches = None
    if used_default:
        expected = {"chain": list(entry.chains[0]), "N": entry.n_lower}
        matches = report.n_first_non_fano == entry.n_lower
    labels = entry.chains[0] if used_default else None

    steps = []
    for idx, step in enumerate(report.steps, start=1):
        steps.append(
            {
                "step": idx,
                "label": labels[idx] if labels and idx < len(labels) else None,
                "degree": step.degree_used,
                "family_dim": step.family_dim,
                "scalars": [_q(s) for s in step.descended.scalars]
                if step.descended
                else None,
            }
        )
    results = {
        "label": (entry.label if entry else vector.label or "input"),
        "split": True,
        "start": _vector_dict(vector),
        "steps": steps,
        "terminal": report.terminal,
        "N": report.n_first_non_fano,
        "expected": expected,
        "matches_expected": matches,
    }
    ok = matches is not False
    return RunReport("chain", params, results, "pass" if ok else "fail", 0 if ok else 1)


def render_chain(report: RunReport) -> str:
    res = report.results
    if not res["split"]:
        lines = [
            f"{res['label']}: first family is a product of projective spaces "
            "(non-split); chain shapes only"
        ]
        for tag, chain in zip("AB", res["chains"]):
            lines.append(f"  chain {tag}: " + " -> ".join(chain))
        lines.append(f"N_lower = {res['N_lower']}, N_upper = {res['N_upper']}")
        return "\n".join(lines)
    lines = [f"descent chain for {res['label']} (dim {res['start']['dim']})"]
    rows = [["0", res["label"], "-", str(res["start"]["dim"]),
             " ".join(res["start"]["scalars"])]]
    for step in res["steps"]:
        label = step["label"]
        if label is None:
            label = "pt" if step["family_dim"] == 0 else f"step {step['step']}"
        rows.append(
            [
                str(step["step"]),
                label,
                str(step["degree"]),
                str(step["family_dim"]),
                " ".join(step["scalars"]) if step["scalars"] else "-",
            ]
        )
    lines.extend(_table(["step", "member", "degree", "dim", "ch scalars"], rows))
    lines.append(f"terminal: {res['terminal']}")
    lines.append(
        f"N (first non-Fano member): "
        f"{res['N'] if res['N'] is not None else 'undetermined'}"
    )
    if res["expected"] is not None:
        verdict = "match" if res["matches_expected"] else "MISMATCH"
        lines.append(
            "expected chain: "
            + " -> ".join(res["expected"]["chain"])
            + f" (N = {res['expected']['N']}): {verdict}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> RunReport:
    vector, entry, params = _resolve_vector(args)
    theorem = args.theorem.replace("-", "_")
    params = dict(params)
    params["theorem"] = args.theorem
    params["m"] = args.m

    if entry is not None and not entry.split:
        raise ValueError(
            f"{entry.label} has no split vector; theorem gates need scalar Chern data"
        )

    label = entry.label if entry else vector.label or "input"
    results: dict = {"label": label, "dim": vector.dim, "theorem": theorem}

    if args.m is None:
        results["max_m"] = max_m(vector, theorem)
        return RunReport("check", params, results, "pass", 0)

    report = check_hypotheses(vector, args.m, theorem)
    results["report"] = {
        "m": report.m,
        "passed": report.passed,
        "per_k": [
            {
                "k": row.k,
                "threshold": _q(row.threshold),
                "actual": _q(row.actual),
                "margin": _q(row.margin),
            }
            for row in report.per_k
        ],
        "conclusions": sorted(report.conclusions),
    }
    if not report.passed:
        return RunReport("check", params, results, "fail", 1)

    cert = proof_trace(vector, args.m, theorem)
    results["certificate"] = {
        "mode": cert.mode,
        "all_positive": cert.all_positive,
        "levels": [
            {
                "level": lv.level,
                "dim_bound": _q(lv.dim_bound),
                "c1_margin": _q(lv.c1_margin),
                "t2ch2_bound": _q(lv.t2ch2_bound),
                "t2ch2_asserted": lv.t2ch2_asserted,
            }
            for lv in cert.per_level
        ],
    }
    return RunReport("check", params, results, "pass", 0)


def render_check(report: RunReport) -> str:
    res = report.results
    head = f"gate {res['theorem']} on {res['label']} (dim {res['dim']})"
    if "max_m" in res:
        return "\n".join([head, f"max m: {res['max_m']}"])
    rep = res["report"]
    lines = [head + f", m = {rep['m']}"]
    rows = [
        [str(r["k"]), r["threshold"], r["actual"], r["margin"]] for r in rep["per_k"]
    ]
    lines.extend(_table(["k", "threshold", "ch_k", "margin"], rows))
    lines.append(f"hypotheses: {'PASS' if rep['passed'] else 'FAIL'}")
    if rep["passed"]:
        lines.append("conclusions: " + ", ".join(rep["conclusions"]))
    if "certificate" in res:
        cert = res["certificate"]
        if cert["levels"]:
            lines.append(
                f"certificate ({cert['mode']} inputs), levels 1..{rep['m'] - 1}:"
            )
            rows = [
                [
                    str(lv["level"]),
                    lv["dim_bound"],
                    lv["c1_margin"],
                    lv["t2ch2_bound"],
                    "yes" if lv["t2ch2_asserted"] else "no",
                ]
                for lv in cert["levels"]
            ]
            lines.extend(
                _table(
                    ["level", "dim_bound", "c1_margin", "t2ch2_bound", "t2_asserted"],
                    rows,
                )
            )
        else:
            lines.append(
                f"certificate ({cert['mode']} inputs): no intermediate levels for m = 1"
            )
        lines.append(
            "certificate: all bounds positive"
            if cert["all_positive"]
            else "certificate: FAILED"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# driver


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    out = ["  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        out.append("  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return out


_RENDERERS = {"verify": render_verify, "chain": render_chain, "check": render_check}
_COMMANDS = {"verify": cmd_verify, "chain": cmd_chain, "check": cmd_check}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code: 0 pass, 1 failed check, 2 error.

    The parser is built on the first call and reused by every later call
    in the process (see ``_parser``); ``build_parser`` still returns a
    fresh one.  The report goes to stdout as a table, or with ``--json``
    as the one-pass output of ``RunReport.to_json``.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = _COMMANDS[args.command](args)
    except CertificateError as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1
    except (DescentError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as err:
        # Running out of memory or stack is not a failed check, which exit 1 means.
        detail = f": {err}" if str(err) else ""
        print(f"error: {type(err).__name__}{detail}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else _RENDERERS[args.command](report))
    return report.exit_code


def run() -> None:
    raise SystemExit(main())
