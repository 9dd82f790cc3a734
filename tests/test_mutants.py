"""Mutation tests: a PASS means something only if a wrong kernel would have failed.

Each mutant replaces one kernel, constant or closed-form table entry by a
slightly wrong one, and names a check that must then fail at the default
configuration.  A ``from ... import`` makes a second binding of a name,
which patching the defining module alone would miss, so every mutant is
applied to every geoverify module that binds the original object.  The
mutants that no check kills yet are listed apart, with the reason, and
must keep passing every check: the day one dies, it moves to the killed.
"""

import sys
import warnings

import numpy as np
import pytest

from geoverify import chart, curvature, harmonic, soliton
from geoverify.chart import coordinate_field
from geoverify.checks import RunConfig, run_all, run_suite
from geoverify.soliton import SolitonParams

CFG = RunConfig(points=20)


def _patch_everywhere(monkeypatch, owner, name: str, mutate) -> int:
    """Replace ``owner.name`` by ``mutate(original)`` in every geoverify module bound to it; returns the count."""
    original = getattr(owner, name)
    mutant = mutate(original)
    modules = [m for key, m in list(sys.modules.items()) if key == "geoverify" or key.startswith("geoverify.")]
    bound = [m for m in modules if getattr(m, name, None) is original]
    for module in bound:
        monkeypatch.setattr(module, name, mutant)
    return len(bound)


def _scaled(factor: float):
    return lambda f: lambda *args: factor * f(*args)


def _entry_scaled(row: int, col: int, factor: float, table: int | None = None):
    """Scale one entry of a closed-form 4x4 table (of ``table`` among several, if given)."""

    def mutate(f):
        def mutant(*q):
            tables = f(*q)
            grid = [list(r) for r in (tables if table is None else tables[table])]
            grid[row][col] = grid[row][col] * factor
            grid = tuple(map(tuple, grid))
            return grid if table is None else tuple(grid if k == table else t for k, t in enumerate(tables))

        return mutant

    return mutate


def _rebased(base: SolitonParams):
    """soliton_field(c) becomes f(c) - 2 f(0) + f(base): the same Killing span over the base field f(base) - f(0)."""

    def mutate(f):
        def mutant(params):
            terms = (1.0, f(params)), (-2.0, f(SolitonParams())), (1.0, f(base))
            return coordinate_field(
                *(lambda *q, k=k: sum(w * xi.components[k](*q) for w, xi in terms) for k in range(4))
            )

        return mutant

    return mutate


def _geometry_formed(name: str, form):
    """Wrap the geometry build so that its ``name`` array reads form(geo), a formula over the geometry's own arrays.
    Checks build batches, which the single-point geometry cache never holds, so no cached geometry escapes the
    mutant."""

    def mutate(build):
        def mutant(p):
            geo = build(p)
            vars(geo)[name] = form(geo)  # where a cached_property keeps what it formed
            return geo

        return mutant

    return mutate


def _geometry_mapped(name: str, f):
    """The geometry's ``name`` array reads f of the true one."""
    return _geometry_formed(name, lambda geo: f(getattr(geo, name)))


def _geometry_scaled(name: str, factor: float):
    return _geometry_mapped(name, lambda a: a * factor)


def _frame_derivative(geo):
    """e_i(fc_jkl) = sum_a E_ia dfc_ajkl, over the live coordinates a."""
    return np.einsum("...ia,...ajkl->...ijkl", geo.E[..., geo._live], geo._dfc)


def _cartan_flipped(geo):
    """Rfr by Cartan's equation with the sign of its e_i(fc) term flipped."""
    A = -_frame_derivative(geo) + np.einsum("...jkm,...iml->...ijkl", geo.fc, geo.fc)
    return A - np.swapaxes(A, -4, -3) - np.einsum("...ijm,...mkl->...ijkl", geo._c, geo.fc)


def _ricci_with(weight: float):
    """Ric with its e_i(fc) terms, e_i(tau_j) - sum_a e_a(fc_iaj), times ``weight``."""

    def form(geo):
        D = _frame_derivative(geo)
        e = np.einsum("...iaaj->...ij", D) - np.einsum("...aiaj->...ij", D)
        fc = geo.fc
        return weight * e + np.einsum("...m,...imj->...ij", geo._tau, fc) + np.einsum("...mia,...amj->...ij", fc, fc)

    return form


def _tension_scaled(factor: float):
    """Scale both parts of the tension value the harmonic-map kernel returns."""

    def mutate(f):
        def mutant(*args):
            tension = f(*args)
            return harmonic.TensionValue(factor * tension.horizontal, factor * tension.vertical)

        return mutant

    return mutate


# name: (owner module, attribute, mutation, checks that must fail)
MUTANTS = {
    "closedness defect x 1.01": (soliton, "_closedness_defect", _scaled(1.01), ["nongradient"]),
    "closedness defect x 1e-6": (soliton, "_closedness_defect", _scaled(1e-6), ["nongradient"]),
    "closedness defect := 0": (soliton, "_closedness_defect", _scaled(0.0), ["nongradient"]),
    # its member c4 = -1 is the zero field, which is closed: only a claim over the whole family sees it
    "family through zero": (soliton, "soliton_field", _rebased(SolitonParams(c4=1.0)), ["nongradient"]),
    "metric g_ss x (1 + 1e-6)": (chart, "_metric", _entry_scaled(2, 2, 1.0 + 1e-6), ["nongradient"]),
    "coframe th3 x (1 + 1e-6)": (chart, "_frames", _entry_scaled(2, 2, 1.0 + 1e-6, table=1), ["lemma1", "theorem1"]),
    "soliton lambda + 1e-6": (soliton, "SOLITON_LAMBDA", lambda lam: lam + 1e-6, ["theorem1", "coercivity"]),
    "EXPONENT_PLUS + 1e-7": (harmonic, "EXPONENT_PLUS", lambda a: a + 1e-7, ["corollary"]),
    "EXPONENT_MINUS + 1e-7": (harmonic, "EXPONENT_MINUS", lambda a: a + 1e-7, ["corollary"]),
    "horizontal tension x 1.0001": (harmonic, "_horizontal_tension", _scaled(1.0001), ["harmonic-map-witnesses"]),
    "rough Laplacian x 1.5": (harmonic, "_rough_laplacian", _scaled(1.5), ["theorem3", "corollary"]),
    "scalar Laplacian x 3": (
        soliton,
        "_scalar_laplacian",
        _scaled(3.0),
        ["harmonic-components", "theorem3", "corollary"],
    ),
    # harmonic-components' own claim is that every Laplacian is zero; its control Lap(t^2) = 8 t^2 sees this one
    "scalar Laplacian := 0": (
        soliton,
        "_scalar_laplacian",
        _scaled(0.0),
        ["harmonic-components", "theorem3", "corollary"],
    ),
    "Ricci x (1 + 1e-6)": (
        curvature,
        "_build",
        _geometry_scaled("ric", 1.0 + 1e-6),
        ["lemma2", "theorem1", "coercivity"],
    ),
    "G x (1 + 1e-6)": (curvature, "_build", _geometry_scaled("G", 1.0 + 1e-6), ["corollary", "theorem3"]),
    "C x (1 + 1e-6)": (curvature, "_build", _geometry_scaled("C", 1.0 + 1e-6), ["corollary", "theorem3"]),
    "M x (1 + 1e-6)": (curvature, "_build", _geometry_scaled("M", 1.0 + 1e-6), ["corollary", "theorem3"]),
    "Rfr x (1 + 1e-6)": (
        curvature,
        "_build",
        _geometry_scaled("Rfr", 1.0 + 1e-6),
        ["harmonic-map-witnesses", "riemc"],
    ),
    "fc x (1 + 1e-6)": (
        curvature,
        "_build",
        _geometry_scaled("fc", 1.0 + 1e-6),
        ["coercivity", "corollary", "harmonic-map-witnesses", "lemma1", "lemma2", "riemc", "theorem1", "theorem3"],
    ),
    "tension x 0.5": (harmonic, "_tension", _tension_scaled(0.5), ["harmonic-map-witnesses"]),
}

# name: (owner module, attribute, mutation, why no check kills it yet)
SURVIVORS = {
    # dfc multiplies e_i(fc) in Rfr, ric and a point's S, and fc is constant in F4's left-invariant frame
    "dfc := 0": (curvature, "_build", _geometry_scaled("_dfc", 0.0), "dfc = 0 on F4's own frame"),
    "dfc x 1.001": (curvature, "_build", _geometry_scaled("_dfc", 1.001), "dfc = 0 on F4's own frame"),
    # M's e_i(fc) trace term dropped: a batch's S = sum_i e_i(fc_ikj) comes from the traces P and Q of the structure
    # functions' derivatives, not from dfc; tests/test_gauge.py kills it on a twisted frame
    "S := 0": (curvature, "_build", _geometry_scaled("_S", 0.0), "S = 0 on F4's own frame, as dfc is"),
    # the e_i(fc) terms of Cartan's equation and of Ricci, formed from the geometry's own fc, dfc, tau and c;
    # tests/test_gauge.py kills each on its rotated frame, where dfc is not 0
    "Cartan's e_i(fc) term sign-flipped": (
        curvature,
        "_build",
        _geometry_formed("Rfr", _cartan_flipped),
        "it multiplies dfc, which is 0 on F4's own frame",
    ),
    "Ricci's e_i(fc) terms sign-flipped": (
        curvature,
        "_build",
        _geometry_formed("ric", _ricci_with(-1.0)),
        "it multiplies dfc, which is 0 on F4's own frame",
    ),
    "Ricci's e_i(fc) terms dropped": (
        curvature,
        "_build",
        _geometry_formed("ric", _ricci_with(0.0)),
        "it multiplies dfc, which is 0 on F4's own frame",
    ),
    # equivalent mutants: R_ijkl = R_klij, a true symmetry; v = -g^ab Gamma^c_ab, a coordinate vector that no choice of
    # frame changes
    "Rfr pair exchange": (
        curvature,
        "_build",
        _geometry_mapped("Rfr", lambda R: np.einsum("...ijkl->...klij", R)),
        "Rfr_ijkl = Rfr_klij in every frame",
    ),
    "v := 0": (curvature, "_build", _geometry_scaled("v", 0.0), "v vanishes on F4 in every frame"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch):
    owner, attribute, mutate, killers = MUTANTS[name]
    assert all(run_suite(check, CFG).passed for check in killers)  # the control: unmutated, each check passes
    assert _patch_everywhere(monkeypatch, owner, attribute, mutate) >= 1
    for check in killers:
        assert not run_suite(check, CFG).passed, f"{name} survives {check}"


@pytest.mark.parametrize("name", SURVIVORS)
def test_survivor_still_passes_every_check(name, monkeypatch):
    owner, attribute, mutate, reason = SURVIVORS[name]
    assert _patch_everywhere(monkeypatch, owner, attribute, mutate) >= 1
    failing = [report.check_name for report in run_all(CFG) if not report.passed]
    assert failing == [], f"{name} ({reason}) now dies in {failing}: move it to MUTANTS"


def test_a_closed_base_member_fails_nongradient_without_a_warning(monkeypatch):
    # f(c) - f(0): the base member is the zero field, so the base defect D0 on the grid is 0 and no ratio exists
    _patch_everywhere(monkeypatch, soliton, "soliton_field", _rebased(SolitonParams()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite("nongradient", CFG)
    assert not report.passed and report.max_residual == 1.0  # the c3 claim holds; the family claim fails
