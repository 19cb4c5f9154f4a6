"""Problem-document parsing, subcommand reports, exit codes, fixtures."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from folint import algebra, cli, exterior, francoise, godbillon, oracle
from folint.abelian import CIRCLE
from folint.algebra import (
    ZERO,
    BivarPoly,
    EpsSeries,
    PolyParseError,
    RationalFunction,
    X,
    Y,
    parse_poly,
)
from folint.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OBSTRUCTION,
    EXIT_OK,
    InvalidInput,
    RunReport,
    cmd_gv,
    cmd_melnikov,
    cmd_oracle,
    fixture_names,
    load_fixture,
    main,
    parse_component,
    parse_problem,
    run_verify_all,
)
from folint.exterior import (
    Form1Eps,
    Form1Planar,
    Form2Eps,
    Form3Eps,
    series_to_text,
    truncate_weight,
)
from folint.francoise import (
    FrancoisePair,
    FrancoiseSequence,
    InternalSolverError,
    melnikov_sequence,
)
from folint.godbillon import (
    FirstIntegral,
    GVPair,
    NoFactorExists,
    assemble_omega,
    check_first_integral,
    first_integral,
    gv_pairs_from_francoise,
    integrability_defect,
    integrating_factor,
    length_two_witness,
)
from folint.oracle import HolonomyConfig
from helpers import random_form

CHEAP = HolonomyConfig(step_count=500)

GOLDEN = Path(__file__).parent / "golden"

SQUARE_DOC = {
    "F": "x^2 + y^2",
    "omega": {"dx": "y^2", "dy": "0"},
    "max_order": 4,
}

LINEAR_DOC = {
    "F": "x^2 + y^2",
    "omega": {"dx": "y", "dy": "0"},
    "max_order": 3,
    "oracle": {"t": [1.0], "eps": [0.001]},
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_component_dispatch():
    assert isinstance(parse_component("y^2"), BivarPoly)
    rat = parse_component("(x^2 + y^2) / (1 + x)")
    assert isinstance(rat, RationalFunction)
    with pytest.raises(InvalidInput, match="zero denominator"):
        parse_component("(x) / (0)")
    with pytest.raises(PolyParseError):
        parse_component("(x)/y")
    with pytest.raises(InvalidInput):
        parse_component(5)


def test_parse_problem_happy_path():
    spec = parse_problem(LINEAR_DOC)
    assert spec.symbolic
    assert spec.max_order == 3
    assert spec.t_samples == (1.0,)
    assert spec.eps_samples == (0.001,)


def test_parse_problem_rational_is_not_symbolic():
    doc = dict(SQUARE_DOC, omega={"dx": "(x) / (1 + x)", "dy": "0"})
    assert not parse_problem(doc).symbolic


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("F"), "missing required key"),
        (lambda d: d.pop("omega"), "missing required key"),
        (lambda d: d.pop("max_order"), "missing required key"),
        (lambda d: d.update(F=7), "polynomial string"),
        (lambda d: d.update(F="x^2 + 2y^2"), "x\\^2 \\+ y\\^2 only"),
        (lambda d: d.update(omega="y dx"), "object with keys"),
        (lambda d: d.update(omega={"dx": "y"}), "object with keys"),
        (lambda d: d.update(omega={"dx": "y", "dy": "0", "dz": "0"}), "object with keys"),
        (lambda d: d.update(max_order="3"), "integer >= 1"),
        (lambda d: d.update(max_order=True), "integer >= 1"),
        (lambda d: d.update(max_order=0), "integer >= 1"),
        (lambda d: d.update(oracle=[1.0]), "must be an object"),
        (lambda d: d.update(oracle={"t": "nope"}), "list of numbers"),
        (lambda d: d.update(oracle={"t": [True]}), "list of numbers"),
        (lambda d: d.update(oracle={"t": [-1.0]}), "must be positive"),
        (lambda d: d.update(oracle={"t": [float("inf")]}), "must be finite"),
        (lambda d: d.update(oracle={"t": [1.0], "eps": [float("nan")]}), "must be finite"),
        (lambda d: d.update(oracle={"t": [1.0], "eps": [float("-inf")]}), "must be finite"),
    ],
)
def test_parse_problem_rejections(mutate, message):
    doc = json.loads(json.dumps(LINEAR_DOC))
    mutate(doc)
    with pytest.raises(InvalidInput, match=message):
        parse_problem(doc)


def test_parse_problem_rejects_non_object():
    with pytest.raises(InvalidInput):
        parse_problem(["not", "a", "dict"])


# ---------------------------------------------------------------------------
# subcommand reports
# ---------------------------------------------------------------------------


def test_melnikov_report_square_form():
    rep = cmd_melnikov(parse_problem(SQUARE_DOC))
    assert rep.command == "melnikov"
    assert rep.melnikov == ("0", "0", "0", "0")
    assert rep.first_nonzero is None
    assert rep.pairs[0] == {"i": 1, "g": "-x", "r": "2/3x^3 + xy^2"}
    assert rep.length == 4  # no zero g in sight, capped at the horizon


def test_melnikov_report_zero_form():
    doc = dict(SQUARE_DOC, omega={"dx": "0", "dy": "0"})
    rep = cmd_melnikov(parse_problem(doc))
    assert rep.melnikov == ("0",) * 4
    assert rep.length == 0
    assert all(p["g"] == "0" and p["r"] == "0" for p in rep.pairs)


def test_melnikov_rejects_rational_omega():
    doc = dict(SQUARE_DOC, omega={"dx": "(x) / (1 + x)", "dy": "0"})
    with pytest.raises(InvalidInput, match="oracle only"):
        cmd_melnikov(parse_problem(doc))


def test_gv_report_square_form():
    rep = cmd_gv(parse_problem(SQUARE_DOC), 2)
    assert rep.command == "gv"
    assert rep.melnikov == ("0", "0", "0")
    assert rep.gv_pairs[0] == {"i": 1, "G": "x", "R": "2/3x^3 + xy^2"}
    assert rep.gv_pairs[1] == {"i": 2, "G": "1/2x^2", "R": "1/2x^4 + x^2y^2"}
    assert rep.first_integral == (
        "x^2 + y^2 + eps*(2/3x^3 + xy^2) + eps^2*(1/4x^4 + 1/2x^2y^2)"
    )
    assert rep.defect_zero == {"0": True, "1": True, "2": True}
    assert rep.integrating_factor.startswith("1")
    assert rep.witness_ok is True


def test_gv_report_zero_form():
    doc = dict(SQUARE_DOC, omega={"dx": "0", "dy": "0"})
    rep = cmd_gv(parse_problem(doc), 2)
    assert rep.first_integral == "x^2 + y^2"
    assert rep.integrating_factor == "1"
    assert rep.defect_zero == {"0": True, "1": True, "2": True}


def test_gv_obstruction_at_first_order():
    rep = cmd_gv(parse_problem(dict(LINEAR_DOC)), 0)
    assert rep.obstruction == {"order": 1, "witness": "π·t"}
    assert rep.first_nonzero == 1
    assert rep.melnikov == ("π·t",)
    assert rep.pairs is None and rep.witness_ok is None


def test_gv_obstruction_below_requested_order():
    # M_1 = M_2 = 0 but M_3 != 0 still blocks a k=3 run
    doc = dict(
        SQUARE_DOC,
        omega={"dx": "-3/8x^2y + 5/8y^3", "dy": "3/8x^3 + 3/8xy^2"},
    )
    rep = cmd_gv(parse_problem(doc), 3)
    assert rep.obstruction == {"order": 3, "witness": "π·(3/512t^4)"}
    assert rep.first_nonzero == 3
    assert rep.melnikov == ("0", "0", "π·(3/512t^4)")


def test_gv_never_inverts_G(monkeypatch):
    # the report needs the one identity check, run once, not theta = -dG/G
    inverted, checked = [], []
    invert, check = EpsSeries.invert, cli.check_first_integral

    def counting_invert(self):
        inverted.append(self)
        return invert(self)

    def counting_check(seq, gvp, fint, k):
        checked.append(k)
        return check(seq, gvp, fint, k)

    monkeypatch.setattr(EpsSeries, "invert", counting_invert)
    monkeypatch.setattr(cli, "check_first_integral", counting_check)
    rep = cmd_gv(parse_problem(SQUARE_DOC), 4)
    assert rep.witness_ok is True
    assert inverted == []
    assert checked == [4]
    assert cmd_gv(parse_problem(LINEAR_DOC), 2).obstruction is not None
    assert checked == [4]


LIBRARY_CHECKS = (
    "assemble_omega", "integrability_defect", "integrating_factor", "length_two_witness",
)


def test_gv_runs_one_identity_check(monkeypatch):
    # cli imports none of the four library re-derivations, no call reaches
    # them, and the one check builds no form on (x, y, eps) of any degree
    # and takes no wedge
    for name in LIBRARY_CHECKS + ("is_zero_mod_weight",):
        assert not hasattr(cli, name)
    assert not hasattr(exterior, "is_zero_mod_weight")
    built = []

    def counting(init):
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return counting_init

    for form in (Form1Eps, Form2Eps, Form3Eps):
        monkeypatch.setattr(form, "__init__", counting(form.__init__))
    # the count sees every degree the library's defect builds
    spec = parse_problem(SQUARE_DOC)
    seq = melnikov_sequence(CIRCLE, spec.omega, 2).sequence
    integrability_defect(assemble_omega(spec.omega, gv_pairs_from_francoise(seq), 1), 1)
    assert set(built) == {"Form1Eps", "Form2Eps", "Form3Eps"}
    built.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("gv reached a library re-derivation")

    for name in LIBRARY_CHECKS + ("wedge", "d_total"):
        monkeypatch.setattr(godbillon, name, refuse)
    for name in ("wedge", "d_total", "truncate_weight"):
        monkeypatch.setattr(exterior, name, refuse)
    rep = cmd_gv(spec, 4)
    assert rep.defect_zero == {str(j): True for j in range(5)}
    assert (rep.integrating_factor, rep.witness_ok) == ("1", True)
    assert built == []


@pytest.mark.parametrize("k", [0, 1, 4])
def test_gv_resubstitutes_each_pair_once(monkeypatch, k):
    # decompose resubstitutes pairs 1..k+1 and check_first_integral only
    # compares the printed entries with them, so a gv run at order k makes
    # k+1 resubstitutions, wherever a module binds the test
    calls = []
    resubstitutes = francoise.resubstitutes

    def counting(*args):
        calls.append(args)
        return resubstitutes(*args)

    monkeypatch.setattr(francoise, "resubstitutes", counting)
    monkeypatch.setattr(godbillon, "resubstitutes", counting, raising=False)
    rep = cmd_gv(parse_problem(SQUARE_DOC), k)
    assert rep.obstruction is None
    assert len(calls) == k + 1


def test_gv_wrong_twist_exits_internal(tmp_path, capsys, monkeypatch):
    # a twist that negates the other entry prints G_i = (-1)^{i+1} g_i and
    # c_i = (-1)^i r_i; check_first_integral applies no twist of its own, so
    # it refuses them
    path = write_doc(tmp_path, SQUARE_DOC)
    monkeypatch.setattr(
        godbillon, "_twist", lambda i, a, b: (-a, b) if i % 2 == 0 else (a, -b)
    )
    assert main(["gv", "--k", "3", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal error: InternalSolverError: ")


@pytest.mark.parametrize("j0", range(4))
def test_gv_verdicts_match_per_window_defects(monkeypatch, j0):
    # corrupting G_{j0+1} breaks integrability from window j0+1 on; the one
    # check at order j reads G_{j+1}, so it already fails at window j0, and
    # cmd_gv at k = 4 raises instead of reporting any False verdict
    k = 4
    spec = parse_problem(SQUARE_DOC)
    seq = melnikov_sequence(CIRCLE, spec.omega, k + 1).sequence
    fint = first_integral(CIRCLE.hamiltonian, seq, k + 1)
    pairs = gv_pairs_from_francoise(seq)
    pairs[j0] = GVPair(G=pairs[j0].G + X, R=pairs[j0].R)
    reference = {
        str(j): integrability_defect(
            assemble_omega(spec.omega, pairs[: j + 1], j), j
        ).is_zero()
        for j in range(k + 1)
    }
    assert reference == {str(j): j <= j0 for j in range(k + 1)}
    for j in range(k + 1):
        if j < j0:
            check_first_integral(seq, pairs, fint, j)
        else:
            with pytest.raises(InternalSolverError):
                check_first_integral(seq, pairs, fint, j)
    monkeypatch.setattr(cli, "gv_pairs_from_francoise", lambda seq: list(pairs))
    with pytest.raises(InternalSolverError):
        cmd_gv(spec, k)
    monkeypatch.undo()
    rep = cmd_gv(spec, k)
    assert rep.defect_zero == {str(j): True for j in range(k + 1)}


def _library_fields(w, gvp, fint, k):
    """(defect_zero, integrating_factor, witness_ok) by the four library checks.

    The witness runs on the g_i = (-1)^i G_i read back from gvp, so that a
    corrupted G_i reaches it too, and the factor on the order-k truncation
    of fint, the first integral a report prints.  A check that raises
    reads as a flag.
    """
    omega = assemble_omega(w, gvp, k)
    defect = integrability_defect(omega, k)
    defect_zero = {str(j): truncate_weight(defect, j + 1).is_zero() for j in range(k + 1)}
    try:
        factor = series_to_text(
            integrating_factor(omega, FirstIntegral(fint.series.truncate(k)), k)
        )
    except NoFactorExists:
        factor = None
    signs = [1 if i % 2 == 0 else -1 for i in range(1, k + 1)]
    seq = FrancoiseSequence(
        omega=w,
        pairs=tuple(
            FrancoisePair(g=pair.G * s, r=BivarPoly.zero()) for pair, s in zip(gvp, signs)
        ),
    )
    try:
        length_two_witness(seq, k)
        witness_ok = True
    except InternalSolverError:
        witness_ok = False
    return defect_zero, factor, witness_ok


def _library_flags(fields, k) -> bool:
    return fields != ({str(j): True for j in range(k + 1)}, "1", True)


MUTATED_FORMS = {
    "square": SQUARE_DOC["omega"],
    "baseline": {"dx": "x^3y^2 + y^2", "dy": "0"},
}


@pytest.mark.parametrize("form", sorted(MUTATED_FORMS))
def test_gv_check_catches_every_corruption(tmp_path, capsys, monkeypatch, form):
    # each G_i, R_i and c_i (i <= k+1) is corrupted after melnikov_sequence
    # ran, by a term with a nonzero differential and by a constant, and c_i
    # by x or by y together with R_i by i x or i y (labelled cR): that keeps
    # R_i = i c_i and shows in one planar component only, dx or dy; the one
    # check must raise wherever the library path flags the corruption, and
    # main must then exit 3 with one line on stderr and nothing on stdout
    k = 4
    doc = dict(SQUARE_DOC, omega=MUTATED_FORMS[form], max_order=k + 1)
    w = parse_problem(doc).omega
    result = melnikov_sequence(CIRCLE, w, k + 1)
    gvp = gv_pairs_from_francoise(result.sequence)
    fint = first_integral(CIRCLE.hamiltonian, result.sequence, k + 1)
    check_first_integral(result.sequence, gvp, fint, k)
    assert not _library_flags(_library_fields(w, gvp, fint, k), k)
    monkeypatch.setattr(cli, "melnikov_sequence", lambda family, w, order: result)
    path = write_doc(tmp_path, doc)

    def with_c(i, delta):
        coeffs = list(fint.series.coeffs)
        coeffs[i] = coeffs[i] + delta
        return FirstIntegral(EpsSeries(coeffs, k + 1))

    def with_pair(i, dG, dR):
        pairs = list(gvp)
        pairs[i - 1] = GVPair(G=gvp[i - 1].G + dG, R=gvp[i - 1].R + dR)
        return pairs

    cases = []
    for i in range(1, k + 2):
        for delta in (X, BivarPoly.one()):
            cases += [
                (f"G_{i}+{delta}", with_pair(i, delta, ZERO), fint),
                (f"R_{i}+{delta}", with_pair(i, ZERO, delta), fint),
                (f"c_{i}+{delta}", gvp, with_c(i, delta)),
            ]
        for delta in (X, Y):
            cases.append((f"cR_{i}+{delta}", with_pair(i, ZERO, delta * i), with_c(i, delta)))
    missed = []
    for label, pairs, integral in cases:
        with pytest.raises(InternalSolverError):
            check_first_integral(result.sequence, pairs, integral, k)
        if not _library_flags(_library_fields(w, pairs, integral, k), k):
            missed.append(label)
        monkeypatch.setattr(cli, "gv_pairs_from_francoise", lambda seq, p=pairs: p)
        monkeypatch.setattr(cli, "first_integral", lambda F, seq, n, f=integral: f)
        assert main(["gv", "--k", str(k), path]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal error: InternalSolverError: ")
    # the library path reads no G_{k+1} and no c_{k+1}, and a constant added
    # to R_{k+1} leaves its defect closed; the one check catches these too
    assert missed == [
        f"G_{k + 1}+x", f"c_{k + 1}+x", f"G_{k + 1}+1", f"R_{k + 1}+1", f"c_{k + 1}+1"
    ]


@pytest.mark.parametrize("k", [0, 1, 7, 12])
def test_gv_fields_match_the_library_checks(k):
    # the three fields cmd_gv reports from its one check equal what the
    # four library checks compute on the same sequence
    rng = random.Random(16 + k)
    forms = [Form1Planar(parse_poly("x^3y^2 + y^2"), BivarPoly.zero())]
    while len(forms) < 3:
        drawn = random_form(rng, 3)
        # even in y on dx and odd on dy: reversible, so every M_i vanishes
        w = Form1Planar(
            BivarPoly({e: c for e, c in drawn.p.terms.items() if e[1] % 2 == 0}),
            BivarPoly({e: c for e, c in drawn.q.terms.items() if e[1] % 2 == 1}),
        )
        if not w.is_zero():
            forms.append(w)
    for w in forms:
        spec = parse_problem(dict(SQUARE_DOC, omega={"dx": w.p.to_text(), "dy": w.q.to_text()}))
        rep = cmd_gv(spec, k)
        assert rep.obstruction is None
        seq = melnikov_sequence(CIRCLE, w, k + 1).sequence
        gvp = gv_pairs_from_francoise(seq)
        fint = first_integral(CIRCLE.hamiltonian, seq, k + 1)
        assert _library_fields(w, gvp, fint, k) == (
            rep.defect_zero, rep.integrating_factor, rep.witness_ok
        )


def _sympy_text(sp, text, symbols):
    """A report polynomial or series text as a sympy expression."""
    # "2/3x^3y" -> "2/3*x**3*y"; the report grammar has no other juxtaposition
    expr = re.sub(r"(?<=[0-9xy])(?=[xy])", "*", text.replace("^", "**"))
    return sp.sympify(expr, locals=symbols)


@pytest.mark.parametrize(
    "omega, k, eps_degree",
    [({"dx": "x^3y^2 + y^2", "dy": "0"}, 8, 8), ({"dx": "2x^2", "dy": "2xy"}, 6, 0)],
    ids=["baseline", "example2"],
)
def test_gv_first_integral_matches_sympy(tmp_path, capsys, omega, k, eps_degree):
    # the printed F_eps is a first integral of (2x + eps P) dx + (2y + eps Q) dy
    # modulo eps^{k+1}, checked by sympy without folint's exterior algebra
    sp = pytest.importorskip("sympy")
    x, y, eps = sp.symbols("x y eps")
    symbols = {"x": x, "y": y, "eps": eps}
    path = write_doc(tmp_path, dict(SQUARE_DOC, omega=omega))
    assert main(["gv", "--k", str(k), path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    H = _sympy_text(sp, report["first_integral"], symbols)
    P = _sympy_text(sp, omega["dx"], symbols)
    Q = _sympy_text(sp, omega["dy"], symbols)
    assert sp.degree(H, eps) == eps_degree
    assert sp.expand(H.subs(eps, 0)) == x**2 + y**2
    residual = sp.expand(sp.diff(H, x) * (2 * y + eps * Q) - sp.diff(H, y) * (2 * x + eps * P))
    assert all(residual.coeff(eps, i) == 0 for i in range(k + 1))


def test_gv_rejects_negative_k():
    with pytest.raises(InvalidInput):
        cmd_gv(parse_problem(SQUARE_DOC), -1)


def test_oracle_report():
    rep = cmd_oracle(parse_problem(LINEAR_DOC), CHEAP)
    table = rep.oracle_table
    assert table["columns"] == ["t", "eps", "delta", "est_error"]
    assert len(table["rows"]) == 1
    assert table["rows"][0][:2] == [1.0, 0.001]
    (est,) = rep.estimates
    assert est["t"] == 1.0
    assert len(est["coefficients"]) == 3
    assert not est["ill_conditioned"]
    (cross,) = rep.cross_check
    assert cross["agrees"] is True
    assert "richardson_m1" not in est


def test_oracle_report_richardson_flag():
    rep = cmd_oracle(parse_problem(LINEAR_DOC), CHEAP, richardson=True)
    (est,) = rep.estimates
    assert est["richardson_m1"] == pytest.approx(3.14159265, rel=1e-6)


def test_oracle_report_rational_has_no_cross_check():
    doc = {
        "F": "x^2 + y^2",
        "omega": {"dx": "(x^2 + y^2) / (1 + x)", "dy": "0"},
        "max_order": 1,
        "oracle": {"t": [0.25], "eps": [0.01]},
    }
    rep = cmd_oracle(parse_problem(doc), CHEAP)
    assert rep.cross_check is None
    assert "cross_check" not in rep.to_dict()


def test_oracle_requires_grids():
    doc = dict(SQUARE_DOC)
    with pytest.raises(InvalidInput, match="t grid"):
        cmd_oracle(parse_problem(doc), CHEAP)
    doc["oracle"] = {"t": [1.0], "eps": []}
    with pytest.raises(InvalidInput, match="eps grid"):
        cmd_oracle(parse_problem(doc), CHEAP)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_json_is_deterministic():
    rep = cmd_gv(parse_problem(SQUARE_DOC), 1)
    again = cmd_gv(parse_problem(SQUARE_DOC), 1)
    assert rep.to_json() == again.to_json()
    assert rep.to_json().endswith("\n")


def test_report_drops_unset_fields():
    doc = RunReport(command="noop").to_dict()
    assert doc == {"command": "noop"}


def test_report_keeps_null_first_nonzero_with_melnikov():
    rep = RunReport(command="melnikov", melnikov=("0",), first_nonzero=None)
    doc = rep.to_dict()
    assert "first_nonzero" in doc and doc["first_nonzero"] is None
    parsed = json.loads(rep.to_json())
    assert parsed["first_nonzero"] is None


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_report_json_refuses_non_finite_numbers():
    rep = RunReport(command="oracle", oracle_table={"rows": [[1.0, float("nan")]]})
    with pytest.raises(ValueError):
        rep.to_json()


def test_main_melnikov_stdout(tmp_path, capsys):
    path = write_doc(tmp_path, SQUARE_DOC)
    assert main(["melnikov", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "melnikov"
    assert out["melnikov"] == ["0", "0", "0", "0"]
    assert out["first_nonzero"] is None


def test_main_max_order_override(tmp_path, capsys):
    path = write_doc(tmp_path, SQUARE_DOC)
    assert main(["melnikov", path, "--max-order", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["melnikov"] == ["0", "0"]


def test_main_json_sidecar_matches_stdout(tmp_path, capsys):
    path = write_doc(tmp_path, SQUARE_DOC)
    side = tmp_path / "report.json"
    assert main(["gv", path, "--k", "1", "--json", str(side)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert side.read_text(encoding="utf-8") == stdout


def test_main_gv_obstruction_exit(tmp_path, capsys):
    path = write_doc(tmp_path, LINEAR_DOC)
    assert main(["gv", path, "--k", "0"]) == EXIT_OBSTRUCTION
    out = json.loads(capsys.readouterr().out)
    assert out["obstruction"] == {"order": 1, "witness": "π·t"}
    assert out["melnikov"] == ["π·t"]
    assert out["first_nonzero"] == 1


def test_main_oracle_with_csv(tmp_path, capsys):
    path = write_doc(tmp_path, LINEAR_DOC)
    csv_path = tmp_path / "table.csv"
    code = main(["--steps", "500", "oracle", path, "--csv", str(csv_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,eps,delta,est_error"
    assert len(lines) == 2
    assert lines[1].startswith("1.0,0.001,")
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "oracle"


def test_main_oracle_grid_override(tmp_path, capsys):
    path = write_doc(tmp_path, LINEAR_DOC)
    code = main(["--steps", "500", "oracle", path, "--t", "0.5,1.0", "--eps", "0.01"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [row[:2] for row in out["oracle_table"]["rows"]] == [
        [0.5, 0.01],
        [1.0, 0.01],
    ]


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda path: [],
        lambda path: ["melnikov", path + ".missing"],
        lambda path: ["--steps", "50", "melnikov", path],
        lambda path: ["oracle", path],
    ],
)
def test_main_invalid_inputs(tmp_path, capsys, argv_builder):
    path = write_doc(tmp_path, SQUARE_DOC)  # has no oracle grids
    assert main(argv_builder(path)) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_main_steps_past_cap_is_invalid_input(tmp_path, capsys, monkeypatch):
    # refused while the config is built, before the document is even read
    def never(*args, **kwargs):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(cli, "cmd_oracle", never)
    path = write_doc(tmp_path, load_fixture("example1.json"))
    assert main(["--steps", "100000000000000000000000", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step_count must be <= 1000000\n"


# run in a fresh interpreter: the test modules import numpy themselves
_NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
from folint.cli import main
example1, example2 = sys.argv[1:]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(["melnikov", example1]), main(["gv", example2, "--k", "6"])]
    exact = {"numpy": "numpy" in sys.modules, "oracle": "folint.oracle" in sys.modules}
    codes.append(main(["--steps", "100", "oracle", example1]))
print(json.dumps({
    "codes": codes,
    "exact": exact,
    "numpy_after_oracle": "numpy" in sys.modules,
}))
"""


def test_exact_pipeline_does_not_load_numpy(tmp_path):
    paths = [write_doc(tmp_path, load_fixture(f"{name}.json"), f"{name}.json")
             for name in ("example1", "example2")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_CHILD, *paths],
        capture_output=True, text=True, encoding="utf-8", env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "codes": [EXIT_OK, EXIT_OK, EXIT_OK],
        # folint.oracle stays loaded: tools find its names in sys.modules
        "exact": {"numpy": False, "oracle": True},
        "numpy_after_oracle": True,
    }


def test_main_zero_denominator_coefficient_is_invalid_input(tmp_path, capsys):
    doc = dict(SQUARE_DOC, omega={"dx": "2/0 x", "dy": "0"})
    path = write_doc(tmp_path, doc)
    assert main(["melnikov", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "zero denominator" in err and "column 1" in err


def test_main_rejects_non_finite_grid_in_document(tmp_path, capsys):
    # json.dumps writes the bare NaN/Infinity tokens that json.load accepts
    doc = dict(LINEAR_DOC, oracle={"t": [float("inf")], "eps": [float("nan")]})
    path = write_doc(tmp_path, doc)
    assert "Infinity" in (tmp_path / "problem.json").read_text(encoding="utf-8")
    assert main(["--steps", "500", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("where", ["document", "flag"])
def test_main_rejects_t_below_the_normal_float_range(tmp_path, capsys, where):
    # at t = 1e-320 ulp(t) / t is 5e-4: a report would print a delta 1.5% off
    # the closed form and a cross-check of the wrong sign that agrees
    doc = dict(LINEAR_DOC, oracle={"t": [1e-320], "eps": [0.01]})
    flags = []
    if where == "flag":
        doc, flags = LINEAR_DOC, ["--t", "1e-320"]
    path = write_doc(tmp_path, doc)
    assert main(["--steps", "100", "oracle", path] + flags) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    label = "oracle.t" if where == "document" else "--t"
    assert captured.err == (
        f"error: {label} entries must be at least 2.22507e-308, got 1e-320\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps", "nan"],
        ["--eps", "0.01,inf"],
        ["--t", "inf"],
        ["--t", "1.0,NaN"],
    ],
)
def test_main_rejects_non_finite_grid_flags(tmp_path, capsys, flags):
    path = write_doc(tmp_path, LINEAR_DOC)
    assert main(["--steps", "500", "oracle", path] + flags) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_main_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["melnikov", str(path)]) == EXIT_INVALID
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"F": "x^2 + y^2\xff"}', "is not UTF-8 text: "),
        (b"[" * 200000 + b"]" * 200000, "nests JSON too deeply"),
    ],
    ids=["non-utf8", "over-nested"],
)
def test_main_unreadable_document_is_invalid_input(tmp_path, capsys, content, message):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    assert main(["melnikov", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path} ")
    assert message in captured.err


def test_main_rejects_wrong_hamiltonian(tmp_path, capsys):
    path = write_doc(tmp_path, dict(SQUARE_DOC, F="x^2"))
    assert main(["melnikov", path]) == EXIT_INVALID


def test_main_integrator_blowup_is_invalid_input(tmp_path, capsys):
    doc = dict(LINEAR_DOC, oracle={"t": [1.0], "eps": [3.0]})
    path = write_doc(tmp_path, doc)
    assert main(["--steps", "500", "oracle", path]) == EXIT_INVALID
    assert "LeafEscapedAnnulus" in capsys.readouterr().err


def test_main_oracle_names_the_escaping_table_lane(tmp_path, capsys):
    # the table lanes come first in the integration that also runs the eps
    # ladders, so the lane named is the table's eps = 3
    path = write_doc(tmp_path, LINEAR_DOC)
    code = main(["--steps", "100", "oracle", path, "--eps", "0.001,3"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: LeafEscapedAnnulus: ")
    assert "eps=3" in captured.err


def test_main_calls_in_one_process_match_separate_runs(tmp_path, capsys):
    # main reuses one parser, so no option of a call may leak into the next:
    # the last gv must see neither the first one's --k 2 nor the --steps 0
    # that made the one before it exit 2
    path = write_doc(tmp_path, load_fixture("example1.json"))
    argvs = [
        ["gv", "--k", "2", path],
        ["melnikov", path],
        ["--steps", "200", "oracle", path, "--richardson"],
        ["--steps", "0", "gv", path],
        ["gv", path],
    ]
    in_process = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, want in zip(argvs, in_process):
        run = subprocess.run(
            [sys.executable, "-m", "folint", *argv],
            capture_output=True, text=True, encoding="utf-8", env=env, check=False,
        )
        assert (run.returncode, run.stdout, run.stderr) == want
    assert [code for code, _, _ in in_process] == [EXIT_OK] * 3 + [EXIT_INVALID, EXIT_OK]
    assert in_process[0][1] != in_process[4][1]


def test_main_internal_error_exit(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, SQUARE_DOC)
    def boom(spec, k):
        raise NoFactorExists("forced")
    monkeypatch.setattr(cli, "cmd_gv", boom)
    assert main(["gv", path]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_main_unexpected_error_exits_internal(tmp_path, capsys, monkeypatch):
    # an error outside the known families still ends in one line, not a traceback
    def boom(spec, cfg, richardson=False):
        raise ValueError("forced")
    monkeypatch.setattr(cli, "cmd_oracle", boom)
    path = write_doc(tmp_path, LINEAR_DOC)
    assert main(["--steps", "100", "oracle", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("internal error: ValueError: ") == 1


def test_main_fit_overflow_is_invalid_input(tmp_path, capsys):
    # y dx integrates finitely at t = 1e300, but the fit's residual overflows
    doc = dict(LINEAR_DOC, oracle={"t": [1e300], "eps": [0.001]})
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: NonFiniteEstimate: ")
    assert "t=1e+300" in captured.err


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("omega", [
    {"dx": f"{BEYOND_FLOAT}y", "dy": "0"},
    # the denominator is made monic, so the numerator becomes 10^400
    {"dx": f"(1) / (1 + 1/{BEYOND_FLOAT} x)", "dy": "0"},
])
def test_main_coefficient_beyond_float_range_is_invalid_input(tmp_path, capsys, omega):
    # refused while the node tables are built, before integrating
    path = write_doc(tmp_path, dict(LINEAR_DOC, omega=omega))
    assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: NonFiniteEstimate: the dx component of omega has a coefficient "
        "beyond the float64 range\n"
    )


def test_main_melnikov_beyond_float_range_stays_exact(tmp_path, capsys):
    omega = {"dx": f"{BEYOND_FLOAT}y", "dy": "0"}
    path = write_doc(tmp_path, dict(LINEAR_DOC, omega=omega))
    assert main(["melnikov", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["melnikov"][0] == f"π·({BEYOND_FLOAT}t)"


def test_main_nonfinite_lane_is_invalid_input(tmp_path, capsys):
    # at t = 1e300 the slope of y^2 dx + x dy overflows, and the next d rho
    # coefficient is NaN: the guard must stop it before it reaches the report
    doc = dict(
        LINEAR_DOC,
        omega={"dx": "y^2", "dy": "x"},
        oracle={"t": [1e300], "eps": [0.001]},
    )
    path = write_doc(tmp_path, doc)
    assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: DenominatorVanished: ")
    assert "t=1e+300" in captured.err


def test_main_pole_hit_prints_one_line(tmp_path, capsys):
    # the leaf through t = 1/4 meets the pole of 1/(x - 1/2) at its first step
    doc = dict(
        LINEAR_DOC,
        omega={"dx": "(1) / (x - 1/2)", "dy": "0"},
        oracle={"t": [0.25], "eps": [0.001]},
    )
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: DenominatorVanished: ")


@pytest.mark.parametrize("steps", ["100", "400", "2000"])
def test_main_pole_between_stages_is_invalid_input(tmp_path, capsys, steps):
    # the leaf through t = 1 crosses x = 1/2 near theta = pi/3; no stage lands
    # on the pole, but the denominator changes sign across it
    doc = dict(LINEAR_DOC, omega={"dx": "(1) / (x - 1/2)", "dy": "0"})
    path = write_doc(tmp_path, doc)
    assert main(["--steps", steps, "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: DenominatorVanished: denominator x - 1/2 of the dx component "
    )


def test_main_pole_in_both_components_names_dx(tmp_path, capsys):
    # Dp Dq = (x - 1/2)^2 keeps its sign across the pole; each denominator's
    # own sign check must still stop the run
    doc = dict(LINEAR_DOC, omega={"dx": "(1) / (x - 1/2)", "dy": "(1) / (x - 1/2)"})
    path = write_doc(tmp_path, doc)
    assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: DenominatorVanished: denominator x - 1/2 of the dx component "
    )


def test_main_removable_factor_on_the_annulus_is_invalid_input(tmp_path, capsys):
    # (x - 1/2) / (x - 1/2) is 1, but the oracle takes the fraction as written
    doc = dict(LINEAR_DOC, omega={"dx": "0", "dy": "(x - 1/2) / (x - 1/2)"})
    path = write_doc(tmp_path, doc)
    assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "denominator x - 1/2 of the dy component" in captured.err
    assert "the fraction is not reduced" in captured.err


def test_parse_component_runs_no_gcd(monkeypatch):
    # a bivariate gcd at these degrees ran for minutes; parsing needs none
    calls = []
    gcd = algebra.poly_gcd

    def counted(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(algebra, "poly_gcd", counted)
    rat = parse_component("(x^400 + 3y^399 + xy) / (y^400 + x^399 + 2)")
    assert isinstance(rat, RationalFunction)
    assert calls == []


@pytest.mark.parametrize(
    "omega, max_order, argv, cost",
    [
        ("x^9999999", 1, ["melnikov"], 9999999),
        ("x^9999999", 1, ["--steps", "100", "oracle"], 9999999),
        ("y^2", 10**6, ["melnikov"], 2 * 10**6),
        ("y^2", 10**6, ["gv"], 2 * 10**6),
        # deg 0 and deg -1 would make every order free
        ("1", 10**6, ["melnikov"], 10**6),
        ("0", 10**6, ["gv"], 10**6),
    ],
    ids=[
        "melnikov-degree",
        "oracle-degree",
        "melnikov-order",
        "gv-order",
        "melnikov-constant",
        "gv-zero",
    ],
)
def test_main_over_budget_exits_before_melnikov(
    tmp_path, capsys, monkeypatch, omega, max_order, argv, cost
):
    def refuse(*args):
        raise AssertionError("melnikov_sequence ran past the budget")

    monkeypatch.setattr(cli, "melnikov_sequence", refuse)
    monkeypatch.setattr(oracle, "_integrate", refuse)
    doc = dict(LINEAR_DOC, omega={"dx": omega, "dy": "0"}, max_order=max_order)
    assert main(argv + [write_doc(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "order" if omega in ("0", "1") else "deg(omega) * order"
    assert captured.err == (
        f"error: {what} = {cost} is past the budget {cli.MAX_DEGREE_ORDER}\n"
    )


def test_budget_admits_gv_k40_on_the_baseline(tmp_path, capsys, monkeypatch):
    orders = []

    def record(family, w, max_order):
        orders.append(max_order)
        raise InvalidInput("stop after the budget check")

    monkeypatch.setattr(cli, "melnikov_sequence", record)
    path = write_doc(tmp_path, dict(SQUARE_DOC, omega={"dx": "x^3y^2 + y^2", "dy": "0"}))
    assert main(["gv", path, "--k", "40"]) == EXIT_INVALID
    assert orders == [41]


@pytest.mark.parametrize(
    "component",
    ["(x^100000) / (1 + x)", "(1 + x) / (y^100000)"],
    ids=["numerator", "denominator"],
)
def test_main_rational_component_over_budget_is_invalid_input(
    tmp_path, capsys, monkeypatch, component
):
    # the degree cap is input validation: it runs before the RationalFunction
    # is built
    def refuse(*args):
        raise AssertionError("RationalFunction built past the budget")

    monkeypatch.setattr(cli, "RationalFunction", refuse)
    doc = dict(LINEAR_DOC, omega={"dx": component, "dy": "0"})
    assert main(["--steps", "100", "oracle", write_doc(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rational omega component of degree 100000 is past the budget "
        f"{cli.MAX_DEGREE_ORDER}\n"
    )


NO_DEV_FULL = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)


@pytest.mark.parametrize(
    "command, flag, target",
    [
        # a path whose open fails
        pytest.param(["melnikov"], "--json", None, id="command0---json"),
        pytest.param(["--steps", "100", "oracle"], "--csv", None, id="command1---csv"),
        # a path that opens, whose write fails
        pytest.param(["melnikov"], "--json", "/dev/full", id="melnikov---json-full",
                     marks=NO_DEV_FULL),
        pytest.param(["--steps", "100", "oracle"], "--csv", "/dev/full",
                     id="oracle---csv-full", marks=NO_DEV_FULL),
        # stdout itself, run as a process so that the interpreter's own
        # flush of stdout at exit is covered too; the flag is the
        # interpreter's, buffered stdout (the default) or -u
        pytest.param(["melnikov"], None, "stdout", id="melnikov-stdout-full",
                     marks=NO_DEV_FULL),
        pytest.param(["melnikov"], "-u", "stdout", id="melnikov-stdout-full-unbuffered",
                     marks=NO_DEV_FULL),
    ],
)
def test_main_unwritable_output_is_invalid_input(tmp_path, capsys, command, flag, target):
    path = write_doc(tmp_path, LINEAR_DOC)
    if target == "stdout":
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w", encoding="utf-8") as full:
            run = subprocess.run(
                [sys.executable, *([flag] if flag else []), "-m", "folint", *command, path],
                stdout=full, stderr=subprocess.PIPE, text=True, encoding="utf-8", env=env,
                check=False,
            )
        code, err = run.returncode, run.stderr
    else:
        target = target or str(tmp_path / "missing" / "report.out")
        code = main(command + [path, flag, target])
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
    assert code == EXIT_INVALID
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "t, flags, label",
    [
        ([1.5e308], [], "oracle.t"),
        ([1.0], ["--t", "1.6e308"], "--t"),
    ],
)
def test_main_overflowing_t_is_invalid_input(tmp_path, capsys, monkeypatch, t, flags, label):
    # the annulus bound 2t overflows to inf; reject t before integrating
    calls = []

    def integrate(*args):
        calls.append(args)
        raise AssertionError("integrated an out-of-range t")

    monkeypatch.setattr(oracle, "_integrate", integrate)
    path = write_doc(tmp_path, dict(LINEAR_DOC, oracle={"t": t, "eps": [0.001]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--steps", "100", "oracle", path, "--richardson"] + flags)
    assert code == EXIT_INVALID
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {label} entries must be at most ")


@pytest.mark.parametrize("key", ["t", "eps"])
def test_main_oversized_json_integer_is_invalid_input(tmp_path, capsys, monkeypatch, key):
    # a JSON integer beyond the float range has no float value at all
    calls = []

    def integrate(*args):
        calls.append(args)
        raise AssertionError("integrated an oversized grid entry")

    monkeypatch.setattr(oracle, "_integrate", integrate)
    grid = dict(LINEAR_DOC["oracle"], **{key: [10**400]})  # 401 digits in the JSON
    path = write_doc(tmp_path, dict(LINEAR_DOC, oracle=grid))
    assert main(["--steps", "100", "oracle", path]) == EXIT_INVALID
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: oracle.{key} entries must be finite")


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------


def test_fixture_inventory():
    names = fixture_names()
    assert names == sorted(names)
    assert "example1.json" in names
    assert "example2.json" in names
    assert "example3-oracle.json" in names
    assert "nonzero-m1.json" in names
    for name in names:
        doc = load_fixture(name)
        assert "F" in doc and "omega" in doc


def test_verify_all_fixtures_pass():
    buf = io.StringIO()
    code = run_verify_all(HolonomyConfig(step_count=2000), buf)
    lines = buf.getvalue().splitlines()
    assert code == EXIT_OK
    assert len(lines) == len(fixture_names())
    assert all(line.startswith("[PASS]") for line in lines)


def test_verify_all_reports_failures(monkeypatch):
    monkeypatch.setattr(cli, "fixture_names", lambda: ["broken.json"])
    monkeypatch.setattr(cli, "load_fixture", lambda name: {"F": "x^2"})
    buf = io.StringIO()
    code = run_verify_all(CHEAP, buf)
    assert code == EXIT_INTERNAL
    assert buf.getvalue().startswith("[FAIL] broken.json")

    # the eps^0 term of the library's integrating factor must be exactly 1;
    # SQUARE_DOC runs gv at k = 3
    monkeypatch.setattr(cli, "load_fixture", lambda name: dict(SQUARE_DOC))
    for lead, text in ((Fraction(1, 2), "1/2 + eps*(x)"), (12, "12 + eps*(x)")):
        factor = EpsSeries([BivarPoly.constant(lead), X], 3)
        monkeypatch.setattr(godbillon, "integrating_factor", lambda omega, fint, k, n=factor: n)
        buf = io.StringIO()
        assert run_verify_all(CHEAP, buf) == EXIT_INTERNAL
        assert buf.getvalue() == f"[FAIL] broken.json: unit_factor: {text}\n"

    # an obstruction is compared with the expectation both ways
    monkeypatch.setattr(godbillon, "integrating_factor", integrating_factor)
    expected_only = dict(SQUARE_DOC, expect={"gv_k": 1, "obstruction_at": 1})
    found_only = dict(SQUARE_DOC, omega={"dx": "y", "dy": "0"})
    for doc, note in (
        (expected_only, "no obstruction found"),
        (found_only, "order 1, witness π·t"),
    ):
        monkeypatch.setattr(cli, "load_fixture", lambda name, doc=doc: doc)
        buf = io.StringIO()
        assert run_verify_all(CHEAP, buf) == EXIT_INTERNAL
        assert buf.getvalue() == f"[FAIL] broken.json: obstruction: {note}\n"


def test_main_verify_all(capsys):
    assert main(["--verify-all", "--steps", "2000"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == len(fixture_names())
    assert all(line.startswith("[PASS]") for line in lines)
    # and the labels of every check that ran, fixture by fixture
    assert out == (GOLDEN / "verify-all.txt").read_text(encoding="utf-8")


def _flip_dx_deps(d_total):
    """d_total with the sign of the dx^deps coefficient of a 2-form flipped."""

    def flipped(u):
        f = d_total(u)
        return Form2Eps(f.xy, -f.xe, f.ye, f.exact) if isinstance(f, Form2Eps) else f

    return flipped


def _lead_half(integrating_factor):
    """integrating_factor with its eps^0 term replaced by 1/2."""

    def halved(omega, fint, k):
        n = integrating_factor(omega, fint, k)
        return EpsSeries([BivarPoly.constant(Fraction(1, 2)), *n.coeffs[1:]], n.order)

    return halved


def _drop_top_term(length_two_witness):
    """length_two_witness with the first term of its eps^k coefficient dropped."""

    def dropped(seq, k):
        coeffs = list(length_two_witness(seq, k).coeffs)
        (a, b), c = next(iter(coeffs[k].terms.items()))
        coeffs[k] = coeffs[k] - BivarPoly.monomial(a, b, c)
        return EpsSeries(coeffs, k)

    return dropped


# library function -> (mutation, the check label that must fail)
VERIFY_ALL_MUTATIONS = {
    "d_total": (_flip_dx_deps, "defect_zero"),
    "integrating_factor": (_lead_half, "unit_factor"),
    "length_two_witness": (_drop_top_term, "witness"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_ALL_MUTATIONS))
def test_verify_all_fails_on_library_mutation(capsys, monkeypatch, name):
    # --verify-all re-derives each silent fixture's three verdicts through
    # the godbillon module, so a broken library function turns it red there;
    # the obstruction and oracle-only fixtures stay green
    mutate, label = VERIFY_ALL_MUTATIONS[name]
    monkeypatch.setattr(godbillon, name, mutate(getattr(godbillon, name)))
    assert main(["--verify-all", "--steps", "2000"]) == EXIT_INTERNAL
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert [line.split(":")[0] for line in failed] == [
        "[FAIL] example1.json", "[FAIL] example2.json"
    ]
    assert all(line.split(": ")[1] == label for line in failed)
    assert len(lines) == len(fixture_names())


@pytest.mark.parametrize("name", ["example1", "example2", "nonzero-m1"])
def test_reports_match_golden(tmp_path, capsys, name):
    doc = load_fixture(f"{name}.json")
    path = write_doc(tmp_path, doc)
    assert main(["melnikov", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.melnikov.json").read_text(encoding="utf-8")
    want = EXIT_OBSTRUCTION if "obstruction_at" in doc["expect"] else EXIT_OK
    assert main(["gv", "--k", str(doc["expect"]["gv_k"]), path]) == want
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.gv.json").read_text(encoding="utf-8")


def test_deep_baseline_reports_match_golden(tmp_path, capsys):
    # (x^3y^2 + y^2) dx at order 13 reaches blocks of degree 53; it is not a
    # packaged fixture, so --verify-all does not run it
    doc = {"F": "x^2 + y^2", "omega": {"dx": "x^3y^2 + y^2", "dy": "0"}, "max_order": 13}
    path = write_doc(tmp_path, doc)
    for argv in (["melnikov", path], ["gv", "--k", "12", path]):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"deep-baseline.{argv[0]}.json").read_text(encoding="utf-8")


def test_five_term_reports_match_golden(tmp_path, capsys):
    # a reversible form whose g_k are dense in both chains, unlike the
    # baseline's blocks, which are zero below a few low powers of y
    doc = {
        "F": "x^2 + y^2",
        "omega": {"dx": "x^2 + 3y^2 - 1/2x^3y^2", "dy": "2xy - y^3"},
        "max_order": 8,
    }
    path = write_doc(tmp_path, doc)
    for argv in (["melnikov", path], ["gv", "--k", "7", path]):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"five-term.{argv[0]}.json").read_text(encoding="utf-8")


def test_five_term_melnikov_at_order_40_matches_golden_digest(tmp_path, capsys):
    # the edge of the degree-order budget: 8.8 MB of report, pinned by its
    # sha256 rather than checked in
    doc = {
        "F": "x^2 + y^2",
        "omega": {"dx": "x^2 + 3y^2 - 1/2x^3y^2", "dy": "2xy - y^3"},
        "max_order": 40,
    }
    assert main(["melnikov", write_doc(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    golden = (GOLDEN / "five-term-order40.melnikov.sha256").read_text(encoding="utf-8")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden.split()[0]


def test_five_term_gv_at_k_39_matches_golden_digest(tmp_path, capsys):
    # 21.6 MB of report, where every G_i and c_i is printed from the text
    # of the g_i or r_i it negates
    doc = {
        "F": "x^2 + y^2",
        "omega": {"dx": "x^2 + 3y^2 - 1/2x^3y^2", "dy": "2xy - y^3"},
        "max_order": 40,
    }
    assert main(["gv", "--k", "39", write_doc(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    golden = (GOLDEN / "five-term-k39.gv.sha256").read_text(encoding="utf-8")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden.split()[0]


@pytest.mark.parametrize("name", ["example1", "example2", "example3-oracle", "nonzero-m1"])
def test_oracle_reports_match_golden(tmp_path, capsys, name):
    path = write_doc(tmp_path, load_fixture(f"{name}.json"))
    table = tmp_path / "table.csv"
    argv = ["--steps", "200", "oracle", path, "--richardson", "--csv", str(table)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.oracle.json").read_text(encoding="utf-8")
    assert table.read_bytes() == (GOLDEN / f"{name}.oracle.csv").read_bytes()


@pytest.mark.parametrize("name", ["melnikov_iteration", "godbillon_vey_chain"])
def test_exact_demos_match_golden(name):
    # outside the tests these demos are the only shipped runs of
    # pairs_from_first_integral, integrating_factor and assemble_omega
    demo = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, encoding="utf-8", env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"demo_{name}.txt").read_text(encoding="utf-8")
