"""Command-line front end: JSON problem documents in, deterministic reports out.

A problem document supplies the deformation data dF + eps*w = 0 as text in
the polynomial grammar of the algebra module:

    {
      "F": "x^2 + y^2",
      "omega": {"dx": "y^2", "dy": "0"},
      "max_order": 8,
      "oracle": {"t": [1.0], "eps": [0.01]}
    }

An omega component written "(num) / (den)" parses as a rational function;
the polynomial grammar contains no parentheses, so the two readings never
collide.  Rational components run through the numeric oracle only.  An
optional "expect" block makes a fixture self-checking under --verify-all;
its keys are documented next to _check_fixture.

Exit codes: 0 success, 1 obstruction found (informative, not a failure),
2 invalid input (including a file that is not UTF-8 or nests JSON too deeply,
a symbolic run past MAX_DEGREE_ORDER, a rational omega component of degree
past it and an unwritable output: a --json or --csv path, or stdout itself),
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources

from .algebra import (
    BivarPoly,
    PolyParseError,
    RationalFunction,
    parse_poly,
)
from .exterior import Form1Planar, series_to_text
from .abelian import CIRCLE, CIRCLE_DF, period_of_form
from .francoise import (
    FrancoisePair,
    FrancoiseSequence,
    melnikov_sequence,
    sequence_length,
)
from .godbillon import check_first_integral, first_integral, gv_pairs_from_francoise
from . import godbillon, oracle

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

_RATIONAL_TEXT = re.compile(r"^\(([^()]*)\)\s*/\s*\(([^()]*)\)$")

# Budget of a symbolic run, deg(omega) (at least 1) times the Melnikov order
# it reaches; a run past it exits 2 before melnikov_sequence.  gv --k 40 on
# (x^3y^2 + y^2) dx is 5 * 41 = 205.  The same bound, at order 1, caps the
# degree of each side of a rational omega component, which the oracle
# evaluates as written.
MAX_DEGREE_ORDER = 400


class InvalidInput(ValueError):
    """Problem document rejected before any pipeline ran."""


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem over CIRCLE; omega components may be rational functions."""

    omega: Form1Planar
    symbolic: bool
    max_order: int
    t_samples: tuple[float, ...]
    eps_samples: tuple[float, ...]


@dataclass(frozen=True)
class RunReport:
    """Result container shared by the subcommands; unset fields stay None.

    Serialization is canonical (sorted keys, two-space indent, None fields
    dropped), so identical inputs produce byte-identical JSON.
    """

    command: str
    melnikov: tuple[str, ...] | None = None
    first_nonzero: int | None = None
    pairs: tuple[dict, ...] | None = None
    gv_pairs: tuple[dict, ...] | None = None
    length: int | None = None
    first_integral: str | None = None
    defect_zero: dict | None = None
    integrating_factor: str | None = None
    witness_ok: bool | None = None
    obstruction: dict | None = None
    oracle_table: dict | None = None
    estimates: tuple[dict, ...] | None = None
    cross_check: tuple[dict, ...] | None = None

    def to_dict(self) -> dict:
        """Set fields only; first_nonzero goes with melnikov, even when None."""
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "first_nonzero":
                keep = self.melnikov is not None
            else:
                keep = value is not None
            if keep:
                doc[f.name] = value
        return doc

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False,
            allow_nan=False,
        ) + "\n"


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------


def parse_component(text: str):
    """Polynomial, or rational function when written \"(num) / (den)\"."""
    if not isinstance(text, str):
        raise InvalidInput(f"omega component must be a string, got {type(text).__name__}")
    stripped = text.strip()
    m = _RATIONAL_TEXT.match(stripped)
    if m is None:
        return parse_poly(stripped)
    num = parse_poly(m.group(1))
    den = parse_poly(m.group(2))
    if den.is_zero():
        raise InvalidInput(f"zero denominator in {text!r}")
    degree = max(num.degree(), den.degree())
    if degree > MAX_DEGREE_ORDER:
        raise InvalidInput(
            f"rational omega component of degree {degree} is past the budget "
            f"{MAX_DEGREE_ORDER}"
        )
    return RationalFunction(num, den)


def parse_problem(doc) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise InvalidInput("problem document must be a JSON object")
    for key in ("F", "omega", "max_order"):
        if key not in doc:
            raise InvalidInput(f"missing required key {key!r}")

    f_poly = parse_poly(doc["F"]) if isinstance(doc["F"], str) else None
    if f_poly is None:
        raise InvalidInput("key 'F' must be a polynomial string")
    if f_poly != CIRCLE.hamiltonian:
        raise InvalidInput(
            f"this version supports F = x^2 + y^2 only, got {doc['F']!r}"
        )

    om = doc["omega"]
    if not isinstance(om, dict) or set(om) != {"dx", "dy"}:
        raise InvalidInput("key 'omega' must be an object with keys 'dx' and 'dy'")
    p = parse_component(om["dx"])
    q = parse_component(om["dy"])
    symbolic = isinstance(p, BivarPoly) and isinstance(q, BivarPoly)

    max_order = doc["max_order"]
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 1:
        raise InvalidInput("key 'max_order' must be an integer >= 1")

    t_samples: tuple[float, ...] = ()
    eps_samples: tuple[float, ...] = ()
    if "oracle" in doc:
        block = doc["oracle"]
        if not isinstance(block, dict):
            raise InvalidInput("key 'oracle' must be an object")
        t_samples = _t_grid(_real_list(block.get("t", []), "oracle.t"), "oracle.t")
        eps_samples = _real_list(block.get("eps", []), "oracle.eps")

    return ProblemSpec(
        omega=Form1Planar(p, q),
        symbolic=symbolic,
        max_order=max_order,
        t_samples=t_samples,
        eps_samples=eps_samples,
    )


def _real_list(values, label: str) -> tuple[float, ...]:
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise InvalidInput(f"{label} must be a list of numbers")
    try:
        floats = tuple(float(v) for v in values)
    except OverflowError:  # a JSON integer beyond the float range
        raise InvalidInput(
            f"{label} entries must be finite, got an integer too large for a float"
        ) from None
    return _finite(floats, label)


def _finite(values: tuple[float, ...], label: str) -> tuple[float, ...]:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInput(f"{label} entries must be finite, got {v}")
    return values


# the oracle integrates inside the annulus t/2 < rho^2 < 2t, whose bound 2t
# must stay a finite float
_T_MAX = sys.float_info.max / 2


def _t_grid(values: tuple[float, ...], label: str) -> tuple[float, ...]:
    for t in values:
        if t <= 0:
            raise InvalidInput(f"{label} entries must be positive, got {t}")
        if t > _T_MAX:
            raise InvalidInput(f"{label} entries must be at most {_T_MAX:g}, got {t}")
    return values


def _symbolic_omega(spec: ProblemSpec) -> Form1Planar:
    if not spec.symbolic:
        raise InvalidInput(
            "rational omega components run through the oracle only; "
            "the symbolic pipeline needs polynomials"
        )
    return spec.omega


def _require_budget(w: Form1Planar, order: int) -> None:
    degree = max(w.p.degree(), w.q.degree())
    # a zero or constant omega still costs a decomposition per order
    cost = max(degree, 1) * order
    if cost > MAX_DEGREE_ORDER:
        what = "deg(omega) * order" if degree >= 1 else "order"
        raise InvalidInput(f"{what} = {cost} is past the budget {MAX_DEGREE_ORDER}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _pair_rows(seq: FrancoiseSequence) -> tuple[dict, ...]:
    """The certificate's pairs as report entries {"i", "g", "r"}, i from 1."""
    return tuple(
        {"i": i, "g": p.g.to_text(), "r": p.r.to_text()}
        for i, p in enumerate(seq.pairs, start=1)
    )


def cmd_melnikov(spec: ProblemSpec) -> RunReport:
    """Melnikov values M_1..M_max_order with the certifying pair list."""
    w = _symbolic_omega(spec)
    _require_budget(w, spec.max_order)
    result = melnikov_sequence(CIRCLE, w, spec.max_order)
    return RunReport(
        command="melnikov",
        melnikov=tuple(m.to_text() for m in result.melnikov),
        first_nonzero=result.first_nonzero,
        pairs=_pair_rows(result.sequence),
        length=sequence_length(result.sequence),
    )


def cmd_gv(spec: ProblemSpec, k: int) -> RunReport:
    """Godbillon-Vey data through order k, resting on the pairs decompose verified.

    The run consumes pairs 1..k+1 (pair k+1 fills the top deps slot of
    Omega), so a nonzero Melnikov value at any order mu <= k+1 ends it: the
    report then carries M_1..M_mu and obstruction = {"order": mu, "witness":
    M_mu}.  Otherwise decompose has resubstituted each of the pairs, and
    check_first_integral compares this run's gv_pairs and first integral
    (taken through eps^{k+1}, printed through eps^k) with them by the sign
    twist, raising on any mismatch; it resubstitutes nothing more.  All
    three remaining fields rest on the verified pairs and that comparison,
    as the godbillon module docstring derives: every defect_zero verdict
    j <= k is true, the integrating factor is 1 and the length-two witness
    G (dF + eps w) is closed.  cmd_gv calls none of the library functions
    that re-derive them; --verify-all does.
    """
    w = _symbolic_omega(spec)
    if k < 0:
        raise InvalidInput("k must be >= 0")
    _require_budget(w, k + 1)
    result = melnikov_sequence(CIRCLE, w, k + 1)
    melnikov = tuple(m.to_text() for m in result.melnikov)
    mu = result.first_nonzero
    if mu is not None:
        return RunReport(
            command="gv",
            melnikov=melnikov,
            first_nonzero=mu,
            obstruction={"order": mu, "witness": melnikov[-1]},
        )
    seq = result.sequence
    gvp = gv_pairs_from_francoise(seq)
    fint = first_integral(CIRCLE.hamiltonian, seq, k + 1)
    check_first_integral(seq, gvp, fint, k)

    return RunReport(
        command="gv",
        melnikov=melnikov,
        pairs=_pair_rows(seq),
        gv_pairs=tuple(
            {"i": i, "G": pair.G.to_text(), "R": pair.R.to_text()}
            for i, pair in enumerate(gvp, start=1)
        ),
        length=sequence_length(seq),
        first_integral=series_to_text(fint.series.truncate(k)),
        defect_zero={str(j): True for j in range(k + 1)},
        integrating_factor="1",
        witness_ok=True,
    )


def cmd_oracle(
    spec: ProblemSpec,
    cfg: oracle.HolonomyConfig = oracle.DEFAULT_CONFIG,
    richardson: bool = False,
) -> RunReport:
    """Displacement table plus Melnikov estimates on the problem's grids.

    One oracle.grid_estimates call integrates the table, fit and Richardson
    lanes; richardson only decides whether richardson_m1 is reported.
    """
    if not spec.t_samples:
        raise InvalidInput("the oracle needs a nonempty t grid")
    if not spec.eps_samples:
        raise InvalidInput("the oracle needs a nonempty eps grid")
    if spec.symbolic:
        _require_budget(spec.omega, 1)  # the M_1 cross-check
    samples, fits = oracle.grid_estimates(
        spec.omega, spec.t_samples, spec.eps_samples, min(spec.max_order, 3), cfg
    )
    rows = [[s.t, s.eps, s.delta, s.est_error] for s in samples]

    symbolic_m1 = None
    if spec.symbolic:
        symbolic_m1 = -period_of_form(spec.omega)  # M_1 = -period(omega)

    estimates = []
    cross = []
    for t, (est, richardson_m1) in zip(spec.t_samples, fits):
        entry = {
            "t": t,
            "coefficients": list(est),
            "residual": est.residual,
            "condition_number": est.condition_number,
            "ill_conditioned": est.ill_conditioned,
        }
        if richardson:
            entry["richardson_m1"] = richardson_m1
        estimates.append(entry)
        if symbolic_m1 is not None:
            sym = symbolic_m1.eval_float(t)
            agrees = abs(est[0] - sym) <= max(1e-6, 1e-3 * abs(sym))
            cross.append(
                {"t": t, "symbolic_m1": sym, "estimate_m1": est[0], "agrees": agrees}
            )

    return RunReport(
        command="oracle",
        oracle_table={"columns": list(oracle.CSV_COLUMNS), "rows": rows},
        estimates=tuple(estimates),
        cross_check=tuple(cross) if cross else None,
    )


# ---------------------------------------------------------------------------
# Fixture verification
# ---------------------------------------------------------------------------


def fixture_names() -> list[str]:
    root = resources.files("folint") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> dict:
    text = (resources.files("folint") / "fixtures" / name).read_text("utf-8")
    return json.loads(text)


def _check_fixture(doc: dict, cfg: oracle.HolonomyConfig) -> list[tuple[str, bool, str]]:
    """Run every pipeline the fixture supports against its "expect" block.

    Recognized expectation keys: first_nonzero (int or null), melnikov_prefix
    (list of report texts), gv_k (order for the gv run), obstruction_at (int),
    witness (period text), max_abs_delta (bound over the oracle table).
    Missing keys skip their check; the structural checks (defect verdicts,
    unit factor, witness closedness, cross-check agreement) always run.  The
    first three are the Godbillon-Vey side of the paper's correspondence,
    which cmd_gv states from the Francoise side alone; here they are
    re-derived from the forms, through the godbillon module, on the pairs
    the gv run printed at order k: integrability_defect is truncated at
    weight j + 1 for each j <= k, the integrating factor N with
    Omega = N d(F_eps) must have eps^0 term exactly 1, and the series G of
    length_two_witness must start with 1 and make G (dF + eps w) closed
    through eps^k.  The gv run is compared with obstruction_at either way:
    an obstruction that was not expected, or an expected one that did not
    come, fails the check.
    """
    spec = parse_problem(doc)
    exp = doc.get("expect", {})
    if not isinstance(exp, dict):
        raise InvalidInput("key 'expect' must be an object")
    checks: list[tuple[str, bool, str]] = []

    if spec.symbolic:
        mel = cmd_melnikov(spec)
        if "first_nonzero" in exp:
            ok = mel.first_nonzero == exp["first_nonzero"]
            checks.append(
                ("first_nonzero", ok, f"got {mel.first_nonzero}, want {exp['first_nonzero']}")
            )
        if "melnikov_prefix" in exp:
            want = tuple(exp["melnikov_prefix"])
            got = mel.melnikov[: len(want)]
            checks.append(("melnikov_prefix", got == want, f"got {list(got)}"))

        k = exp.get("gv_k", max(min(spec.max_order - 1, 4), 0))
        gv = cmd_gv(spec, k)
        obs = gv.obstruction
        if obs is not None:
            ok = obs["order"] == exp.get("obstruction_at")
            if ok and "witness" in exp:
                ok = obs["witness"] == exp["witness"]
            checks.append(
                ("obstruction", ok, f"order {obs['order']}, witness {obs['witness']}")
            )
        elif exp.get("obstruction_at") is not None:
            checks.append(("obstruction", False, "no obstruction found"))
        else:
            pairs = [FrancoisePair(parse_poly(p["g"]), parse_poly(p["r"])) for p in gv.pairs]
            seq = FrancoiseSequence(spec.omega, tuple(pairs))
            omega = godbillon.assemble_omega(
                spec.omega, godbillon.gv_pairs_from_francoise(seq), k
            )
            defect = godbillon.integrability_defect(omega, k)
            flat = {
                str(j): godbillon.truncate_weight(defect, j + 1).is_zero()
                for j in range(k + 1)
            }
            checks.append(("defect_zero", all(flat.values()), f"{flat}"))
            fint = godbillon.first_integral(CIRCLE.hamiltonian, seq, k)
            factor = godbillon.integrating_factor(omega, fint, k)
            unit = factor.coeffs[0] == BivarPoly.one()
            checks.append(("unit_factor", unit, series_to_text(factor)))
            G = godbillon.length_two_witness(seq, k).coeffs
            closed = G[0] == BivarPoly.one() and all(
                (CIRCLE_DF.scale(G[i]) + spec.omega.scale(G[i - 1])).d().is_zero()
                for i in range(1, k + 1)
            )
            checks.append(("witness", closed, ""))

    if spec.t_samples and spec.eps_samples:
        orep = cmd_oracle(spec, cfg)
        worst = max(abs(row[2]) for row in orep.oracle_table["rows"])
        if "max_abs_delta" in exp:
            ok = worst <= exp["max_abs_delta"]
            checks.append(("max_abs_delta", ok, f"max |delta| = {worst:.3e}"))
        if orep.cross_check is not None:
            ok = all(c["agrees"] for c in orep.cross_check)
            checks.append(("cross_check", ok, ""))

    return checks


def run_verify_all(cfg: oracle.HolonomyConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    all_ok = True
    for name in fixture_names():
        try:
            checks = _check_fixture(load_fixture(name), cfg)
        except Exception as exc:  # a crashing fixture is a red result, not a crash
            all_ok = False
            print(f"[FAIL] {name}: {type(exc).__name__}: {exc}", file=out)
            continue
        bad = [c for c in checks if not c[1]]
        if bad:
            all_ok = False
            detail = "; ".join(f"{label}: {note}" for label, _, note in bad)
            print(f"[FAIL] {name}: {detail}", file=out)
        else:
            ran = ", ".join(label for label, _, _ in checks)
            print(f"[PASS] {name}: {ran}", file=out)
    return EXIT_OK if all_ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _float_list(text: str, label: str) -> tuple[float, ...]:
    try:
        values = tuple(float(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise InvalidInput(f"{label} must be comma-separated numbers: {exc}") from None
    return _finite(values, label)


def _load_spec(args) -> ProblemSpec:
    try:
        with open(args.problem, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {args.problem}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{args.problem} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{args.problem} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInput(f"{args.problem} nests JSON too deeply") from None
    if getattr(args, "max_order", None) is not None and isinstance(doc, dict):
        doc["max_order"] = args.max_order
    spec = parse_problem(doc)
    if getattr(args, "t", None) is not None:
        spec = replace(spec, t_samples=_t_grid(_float_list(args.t, "--t"), "--t"))
    if getattr(args, "eps", None) is not None:
        spec = replace(spec, eps_samples=_float_list(args.eps, "--eps"))
    return spec


@contextlib.contextmanager
def _output(path: str, newline: str | None = None):
    """The file at path, open for writing; a failed open, write or close is
    InvalidInput, such as a full disk met when the text is flushed."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(report: RunReport, args) -> None:
    # the file first: a path that cannot be written leaves stdout empty
    text = report.to_json()
    if getattr(args, "json", None):
        with _output(args.json) as fh:
            fh.write(text)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # stdout keeps the text it could not write, and the interpreter
        # flushes it again at exit, which would fail the same way and turn
        # the exit code into 120: send that text to the null device
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InvalidInput(f"cannot write stdout: {exc.strerror or exc}") from None


def _write_csv(report: RunReport, path: str) -> None:
    samples = [
        oracle.DisplacementSample(*row) for row in report.oracle_table["rows"]
    ]
    with _output(path, newline="") as fh:
        oracle.write_samples_csv(samples, fh)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folint",
        description="Melnikov functions, Francoise pairs and Godbillon-Vey "
        "data for perturbations of the circle Hamiltonian.",
    )
    parser.add_argument(
        "--verify-all",
        action="store_true",
        help="run every shipped fixture and check its expectations",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="override the integrator step count (oracle and --verify-all)",
    )
    sub = parser.add_subparsers(dest="command")

    p_mel = sub.add_parser("melnikov", help="Melnikov values and Francoise pairs")
    p_mel.add_argument("problem", help="path to a problem JSON document")
    p_mel.add_argument("--max-order", type=int, default=None)
    p_mel.add_argument("--json", default=None, help="also write the report here")

    p_gv = sub.add_parser("gv", help="Godbillon-Vey data through order k")
    p_gv.add_argument("problem")
    p_gv.add_argument("--k", type=int, default=None, help="default max_order - 1")
    p_gv.add_argument("--max-order", type=int, default=None)
    p_gv.add_argument("--json", default=None)

    p_or = sub.add_parser("oracle", help="numeric displacement table and fits")
    p_or.add_argument("problem")
    p_or.add_argument("--t", default=None, help="comma-separated t grid override")
    p_or.add_argument("--eps", default=None, help="comma-separated eps grid override")
    p_or.add_argument("--max-order", type=int, default=None)
    p_or.add_argument("--csv", default=None, help="write the sample table here")
    p_or.add_argument("--json", default=None)
    p_or.add_argument(
        "--richardson",
        action="store_true",
        help="also report the Richardson-extrapolated first coefficient",
    )

    return parser


# parse_args keeps no state between calls, so one parser serves every call of
# main, and no call leaves the parser's reference cycles to the collector
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    cfg = oracle.DEFAULT_CONFIG
    if args.steps is not None:
        try:
            cfg = oracle.HolonomyConfig(step_count=args.steps)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID

    try:
        if args.verify_all:
            return run_verify_all(cfg)
        if args.command is None:
            _PARSER.print_usage(sys.stderr)
            print("error: a subcommand or --verify-all is required", file=sys.stderr)
            return EXIT_INVALID

        spec = _load_spec(args)
        if args.command == "melnikov":
            report = cmd_melnikov(spec)
        elif args.command == "gv":
            k = args.k if args.k is not None else max(spec.max_order - 1, 0)
            report = cmd_gv(spec, k)
        else:
            report = cmd_oracle(spec, cfg, richardson=args.richardson)
            if args.csv:
                _write_csv(report, args.csv)
        _emit(report, args)
        return EXIT_OBSTRUCTION if report.obstruction is not None else EXIT_OK
    except (InvalidInput, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (
        oracle.LeafEscapedAnnulus, oracle.DenominatorVanished, oracle.NonFiniteEstimate
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # consistency failures and anything unforeseen
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
