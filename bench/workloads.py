"""Seeded workload items for the folint benchmark, with their output checks.

Every item is a problem the benchmark generates from the seed and hands to
folint's public surface: a JSON document run through ``folint.cli.main``
(exactly what the ``folint`` command does, minus interpreter start-up), or,
for the classical Godbillon-Vey forms that the CLI does not expose, the
library calls a user would make.  Each item returns its report text; the
checks below judge that text against invariants that hold for every seed,
using an exact period formula of the benchmark's own rather than folint's.

The seed draws every coefficient and the t and eps grids.  Every item keeps
a fixed monomial support, because the support sets the cost of an item, and
a fixed mix of item kinds per pass keeps the cost of a pass the same for
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from folint import cli, francoise, godbillon
from folint.abelian import CIRCLE, PeriodPoly
from folint.algebra import BivarPoly, X, Y, parse_poly
from folint.exterior import Form1Planar

F_TEXT = "x^2 + y^2"
COEFFS = (-3, -2, -1, 1, 2, 3)

# Integrator steps per revolution on oracle-grid, set by the top-level
# --steps option of the CLI (the shipped default is 20000).
ORACLE_STEPS = 100

# Deep reversible items: dx support, dy support and order k.  The dx support
# is even in y and the dy support odd in y, so every M_i vanishes whatever
# the coefficients and the chain runs to full depth.  The seed draws the
# coefficients of twelve such forms on one fixed support: a random support
# changes the cost of an item by up to 100x, while these cost the same
# 0.3-0.4 s for every seed.  Twelve of sixteen items put both the median and
# the p75 tail of symbolic-deep among them: p75 is then the top of this one
# class, its slow level, rather than a point between two long items that
# reads the fast or the slow level of either depending on the run.
REVERSIBLE = (((2, 2), (1, 0)), ((2, 1),), 7)
REVERSIBLE_COUNT = 12
BASELINE = {"F": F_TEXT, "omega": {"dx": "x^3y^2 + y^2", "dy": "0"}}

# ---------------------------------------------------------------------------
# exact periods, independent of folint.abelian
# ---------------------------------------------------------------------------


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def _moment(m: int, n: int) -> Fraction:
    """(1/pi) times the integral of cos^m sin^n over [0, 2 pi]."""
    if m % 2 or n % 2:
        return Fraction(0)
    return Fraction(
        2 * _double_factorial(m - 1) * _double_factorial(n - 1),
        _double_factorial(m + n),
    )


def exact_m1(p: BivarPoly, q: BivarPoly) -> PeriodPoly:
    """M_1 = -period of p dx + q dy over x^2 + y^2 = t, as pi * poly(t)."""
    coeffs: dict[int, Fraction] = {}
    for (a, b), c in p.terms.items():
        power = (a + b + 1) // 2
        coeffs[power] = coeffs.get(power, Fraction(0)) + c * _moment(a, b + 1)
    for (a, b), c in q.terms.items():
        power = (a + b + 1) // 2
        coeffs[power] = coeffs.get(power, Fraction(0)) - c * _moment(a + 1, b)
    top = max(coeffs, default=-1)
    return PeriodPoly(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _poly(rng: random.Random, support) -> BivarPoly:
    return BivarPoly({e: rng.choice(COEFFS) for e in support})


def _nonzero(p: BivarPoly, q: BivarPoly) -> bool:
    """Generators reject the zero form: it has nothing to decompose."""
    return not (p.is_zero() and q.is_zero())


def _doc(p: BivarPoly, q: BivarPoly, max_order: int, oracle=None) -> dict:
    doc = {
        "F": F_TEXT,
        "omega": {"dx": p.to_text(), "dy": q.to_text()},
        "max_order": max_order,
    }
    if oracle is not None:
        doc["oracle"] = oracle
    return doc


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


class CliItem:
    """One problem document run through folint's command-line entry point."""

    def __init__(self, name: str, doc: dict, argv_head, argv_tail, check, **info):
        self.name = name
        self.doc = doc
        self.argv_head = list(argv_head)
        self.argv_tail = list(argv_tail)
        self.check_fn = check
        self.info = info
        self.argv = None

    def prepare(self, workdir: Path, index: int) -> None:
        path = workdir / f"{index:05d}-{self.name}.json"
        path.write_text(json.dumps(self.doc, sort_keys=True), encoding="utf-8")
        self.argv = self.argv_head + [str(path)] + self.argv_tail
        cli.parse_problem(json.loads(path.read_text(encoding="utf-8")))

    def run(self) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue() or err.getvalue()

    def check(self, code: int, text: str) -> str | None:
        return self.check_fn(self, code, text)


class ClassicalItem:
    """classical_gv_forms(m) on the first integral of a silent form."""

    def __init__(self, name: str, dx: str, dy: str, m: int):
        self.name = name
        self.doc = {"omega": {"dx": dx, "dy": dy}, "m": m}
        self.m = m
        self.omega = None

    def prepare(self, workdir: Path, index: int) -> None:
        self.omega = Form1Planar(parse_poly(self.doc["omega"]["dx"]),
                                 parse_poly(self.doc["omega"]["dy"]))

    def run(self) -> tuple[int, str]:
        # module attributes, so that a traced run sees the wrapped functions
        res = francoise.melnikov_sequence(CIRCLE, self.omega, self.m + 1)
        fint = godbillon.first_integral(CIRCLE.hamiltonian, res.sequence, self.m + 1)
        seq = godbillon.classical_gv_forms(fint, self.m)
        report = {
            "command": "classical",
            "r1": fint.series.coeffs[1].to_text(),
            "eta": [[e.p.to_text(), e.q.to_text()] for e in seq.eta],
        }
        return 0, json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def check(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if len(doc["eta"]) != self.m + 1:
            return f"expected {self.m + 1} eta forms, got {len(doc['eta'])}"
        # eta_0 = dF / r_1: cross-multiply each component
        r1 = parse_poly(doc["r1"])
        for text_c, df in zip(doc["eta"][0], (2 * X, 2 * Y)):
            rf = cli.parse_component(text_c)
            num, den = (rf.num, rf.den) if hasattr(rf, "num") else (rf, BivarPoly.one())
            if num * r1 != df * den:
                return f"eta_0 component {text_c!r} is not dF/r_1"
        return None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _gv_silent(report: dict) -> str | None:
    if report.get("first_nonzero") is not None:
        return f"first_nonzero {report.get('first_nonzero')}, want null"
    if any(m != "0" for m in report["melnikov"]):
        return "a Melnikov value is nonzero"
    if not report["defect_zero"] or not all(report["defect_zero"].values()):
        return f"defect not zero: {report['defect_zero']}"
    if report["integrating_factor"].split(" + eps")[0] != "1":
        return "integrating factor does not start with the unit 1"
    if report.get("witness_ok") is not True:
        return "witness not verified"
    return None


def check_reversible_gv(item, code, text):
    if code != cli.EXIT_OK:
        return f"exit code {code}: {text.strip()[:200]}"
    return _gv_silent(json.loads(text))


def check_reversible_melnikov(item, code, text):
    if code != cli.EXIT_OK:
        return f"exit code {code}: {text.strip()[:200]}"
    report = json.loads(text)
    if report.get("first_nonzero") is not None:
        return "first_nonzero is not null"
    if report["melnikov"] != ["0"] * item.doc["max_order"]:
        return "a Melnikov value is nonzero"
    return None


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_oracle(item, code, text):
    if code != cli.EXIT_OK:
        return f"exit code {code}: {text.strip()[:200]}"
    report = json.loads(text)
    rows = report["oracle_table"]["rows"]
    t_grid, eps_grid = item.info["t"], item.info["eps"]
    if len(rows) != len(t_grid) * len(eps_grid):
        return f"{len(rows)} rows for a {len(t_grid)}x{len(eps_grid)} grid"
    if not all(_finite(r) for r in rows):
        return "non-finite entry in the displacement table"
    for est in report["estimates"]:
        if not _finite(est["coefficients"] + [est["richardson_m1"]]):
            return "non-finite Melnikov estimate"
    if item.info["max_abs_delta"] is not None:
        worst = max(abs(r[2]) for r in rows)
        if worst > item.info["max_abs_delta"]:
            return f"max |delta| {worst:.3e} above {item.info['max_abs_delta']}"
    exact = item.info["m1"]
    if exact is not None:
        cross = report.get("cross_check") or []
        if len(cross) != len(t_grid) or not all(c["agrees"] for c in cross):
            return f"cross-check disagrees: {cross}"
        for c in cross:
            want = exact.eval_float(c["t"])
            if abs(c["symbolic_m1"] - want) > 1e-12 * max(1.0, abs(want)):
                return f"symbolic M_1({c['t']}) = {c['symbolic_m1']}, want {want}"
    return None


def oracle_m1_error(item, text: str) -> float:
    """max over t of |fitted M_1 - exact M_1| / max(1, |exact M_1|)."""
    report = json.loads(text)
    exact = item.info["m1"]
    worst = 0.0
    for est in report["estimates"]:
        want = exact.eval_float(est["t"]) if exact is not None else 0.0
        err = abs(est["coefficients"][0] - want) / max(1.0, abs(want))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def symbolic_deep(rng: random.Random) -> list:
    """Twelve seeded reversible forms and four fixed items, per pass.

    The fixed items are the (x^3y^2 + y^2) dx baseline through gv at k = 12
    and through melnikov to order 13, and classical_gv_forms on y^2 dx at
    m = 6 and on the baseline at m = 1.  They take 0.6-3 s each and are the
    quarter of the items beyond the p75 tail; the reversible ones take
    0.3-0.6 s.
    """
    items = [
        CliItem("baseline-gv-k12", dict(BASELINE, max_order=13),
                ["gv"], ["--k", "12"], check_reversible_gv),
        CliItem("baseline-melnikov-13", dict(BASELINE, max_order=13),
                ["melnikov"], [], check_reversible_melnikov),
        ClassicalItem("classical-y2-m6", "y^2", "0", 6),
        ClassicalItem("classical-baseline-m1", "x^3y^2 + y^2", "0", 1),
    ]
    p_sup, q_sup, k = REVERSIBLE
    for i in range(REVERSIBLE_COUNT):
        p, q = _poly(rng, p_sup), _poly(rng, q_sup)
        if not _nonzero(p, q):
            raise AssertionError("reversible template drew the zero form")
        items.append(CliItem(f"reversible-{i}", _doc(p, q, k + 1),
                             ["gv"], ["--k", str(k)], check_reversible_gv))
    return items


# Support of the oracle forms (dx, dy); the seed draws the coefficients.
# An RK4 step costs one numpy expression per term and its cost depends on the
# exponents, so one fixed support makes every 1x1 item cost the same.
ORACLE_SUPPORT = (((0, 1), (2, 0), (1, 2)), ((1, 0), (0, 2)))
# Grid shapes of one oracle-grid pass: mostly 1x1 like the shipped fixtures,
# so the median is a 1x1 item and the p90 tail a 2x2 or the rational one.
ORACLE_SHAPES = ((1, 1),) * 9 + ((2, 2),) * 3 + ((2, 3),)


def oracle_grid(rng: random.Random) -> list:
    head = ["--steps", str(ORACLE_STEPS), "oracle"]
    items = []
    for i, (n_t, n_eps) in enumerate(ORACLE_SHAPES):
        p, q = _poly(rng, ORACLE_SUPPORT[0]), _poly(rng, ORACLE_SUPPORT[1])
        t = sorted(round(rng.uniform(0.3, 1.0), 2) for _ in range(n_t))
        eps = sorted(rng.sample((0.01, 0.005, 0.002, 0.001), n_eps), reverse=True)
        items.append(CliItem(
            f"poly-{n_t}x{n_eps}-{i}", _doc(p, q, 3, {"t": t, "eps": eps}),
            head, ["--richardson"], check_oracle,
            t=t, eps=eps, m1=exact_m1(p, q), max_abs_delta=None,
        ))
    # The rational fixture has the first integral F (1 + x)^eps, so its exact
    # M_1 is 0 (m1=None: no symbolic cross-check runs for rational forms).
    fixture = cli.load_fixture("example3-oracle.json")
    items.append(CliItem(
        "example3-oracle", fixture, head, ["--richardson"], check_oracle,
        t=fixture["oracle"]["t"], eps=fixture["oracle"]["eps"],
        m1=None, max_abs_delta=fixture["expect"]["max_abs_delta"],
    ))
    return items


WORKLOADS = {
    "symbolic-deep": symbolic_deep,
    "oracle-grid": oracle_grid,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's items from the seed and write their inputs."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    for index, item in enumerate(items):
        item.prepare(workdir, index)
    return items
