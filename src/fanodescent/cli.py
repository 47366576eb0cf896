"""Command-line surface: identity suites, chain walks, theorem gates.

Three subcommands share one contract: exit 0 when every requested check
passes, exit 1 when a mathematical check fails, exit 2 on usage or
input errors.  Output is a fixed-width table on stdout, or a
machine-readable JSON report behind ``--json``; every rational number
is serialized exactly as a ``p/q`` string, never as a decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coeffs import (
    CoeffTable,
    IdentityCheck,
    composition_symmetric_check,
    verify_identities,
)
from .descent import (
    CatalogueEntry,
    DescentError,
    SplitChernVector,
    catalogue,
    descend_chain,
)
from .exact import bernoulli_table
from .theorems import (
    CertificateError,
    THM4,
    THM5,
    THM5_STRONG,
    check_hypotheses,
    max_m,
    proof_trace_thm4,
    proof_trace_thm5,
)

__all__ = ["RunReport", "main", "run", "parse_split_vector_file"]

SCHEMA_VERSION = 1

_THEOREM_FLAGS = {"thm4": THM4, "thm5": THM5, "thm5-strong": THM5_STRONG}


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
        return json.dumps(self.as_dict(), indent=2)

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
        return cls.from_dict(json.loads(text))


def _q(x: Fraction | int) -> str:
    return str(Fraction(x))


def parse_split_vector_file(path: str | Path) -> SplitChernVector:
    """Read a split vector from a plain text file.

    Format: whitespace-separated tokens, lines starting with '#' are
    comments; the first token is the dimension n, followed by exactly n
    rationals written as ``p/q`` (or bare integers ``p``).
    """
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.split())
    if not tokens:
        raise ValueError(f"{path}: no data found")
    try:
        dim = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: first token must be the integer dimension") from None
    if dim < 1:
        raise ValueError(f"{path}: dimension must be >= 1, got {dim}")
    if len(tokens) - 1 != dim:
        raise ValueError(
            f"{path}: expected {dim} scalars after the dimension, got {len(tokens) - 1}"
        )
    try:
        scalars = tuple(Fraction(tok) for tok in tokens[1:])
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"{path}: bad rational token ({err})") from None
    return SplitChernVector(scalars, label="input")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _degree_list(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not degrees or any(a < 1 for a in degrees):
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
        "computation routes.  Enumeration cost grows like 2^i in --max-i (the "
        "composition closed forms at depth i enumerate 2^(i+1) tuples) and like "
        "2^n in --max-n.",
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
    p_check.add_argument("--theorem", required=True, choices=sorted(_THEOREM_FLAGS),
                         help="which gate to check")
    p_check.add_argument("--m", type=_positive_int, default=None,
                         help="gate level; omit to report the maximal passing m")
    p_check.add_argument("--input", default=None, metavar="FILE",
                         help="read the split vector from FILE instead")
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


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
    if args.flip_b1:
        seed = bernoulli_table(2)
        seed[1] = -seed[1]
        table = CoeffTable(seed)
    else:
        table = CoeffTable()
    reports = [verify_identities(i, table) for i in range(1, args.max_i + 1)]
    composition = composition_symmetric_check(args.max_n)
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
        numbers = [int(tok) for tok in args.name[1:]]
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
    theorem = _THEOREM_FLAGS[args.theorem]
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

    if theorem == THM4:
        cert = proof_trace_thm4(vector, args.m)
    else:
        cert = proof_trace_thm5(vector, args.m, strong=(theorem == THM5_STRONG))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    print(report.to_json() if args.json else _RENDERERS[args.command](report))
    return report.exit_code


def run() -> None:
    raise SystemExit(main())
