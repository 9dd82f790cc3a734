"""Every kernel contracts with ``jets._einsum``, numpy's C einsum, and gets what the public ``np.einsum`` gives.

``np.einsum`` without ``optimize`` calls ``numpy._core.multiarray.c_einsum``
after a Python dispatch that costs about a third of a small contraction,
so ``jets`` binds the C function once and every module calls that
binding.  These tests pin the binding, keep ``np.einsum`` calls out of
``src/``, and compare the engine on the binding with the engine patched
back to ``np.einsum``, bit for bit.  ``tests/oracles.py`` and the other
tests keep the public ``np.einsum``.
"""

import dataclasses
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from geoverify import chart, checks, curvature, harmonic, jets, soliton
from geoverify.chart import Point
from geoverify.checks import RunConfig, run_all
from geoverify.soliton import SOLITON_LAMBDA

from oracles import product_rule_fields

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geoverify"
MODULES = (jets, chart, curvature, harmonic, soliton, checks)  # every module that binds _einsum
BINDING = ("jets.py", "_einsum = np.einsum")  # the fallback, the one line that may name numpy's einsum


def _einsum_lines(path: Path) -> set[tuple[str, str]]:
    """The lines of a file with an ``einsum`` NAME token (``np.einsum``, ``numpy.einsum``, ``import einsum``)."""
    lines = path.read_text().splitlines()
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    named = {tok.start[0] for tok in tokens if tok.type == tokenize.NAME and tok.string == "einsum"}
    return {(path.name, lines[row - 1].strip()) for row in named}


def test_no_module_calls_numpys_einsum_dispatch():
    found = set().union(*map(_einsum_lines, PACKAGE.glob("*.py")))
    assert found == {BINDING}, "call jets._einsum: np.einsum pays a Python dispatch per contraction"


def test_every_module_binds_the_c_einsum():
    bound = {name for name, m in sys.modules.items() if name.startswith("geoverify.") and hasattr(m, "_einsum")}
    assert bound == {m.__name__ for m in MODULES}
    assert all(m._einsum is jets._einsum for m in MODULES)
    multiarray = pytest.importorskip("numpy._core.multiarray")
    if not hasattr(multiarray, "c_einsum"):
        pytest.skip("this numpy has no numpy._core.multiarray.c_einsum")
    assert jets._einsum is multiarray.c_einsum


def _replay(p) -> tuple:
    """The five pointwise quantities of a replay request, as arrays: a soliton and an (s, t)-quadratic field."""
    *_, xi, field = product_rule_fields(np.random.default_rng(33))
    tension = harmonic.harmonic_map_residual(field, p)
    return (
        curvature.frame_connection(p),
        curvature.ricci_frame(p),
        curvature.riemann_frame_table(p),
        soliton.soliton_residual(xi, SOLITON_LAMBDA, p),
        tension.horizontal,
        tension.vertical,
    )


def _reports(points: int) -> list[str]:
    """Every field of every report but ``elapsed_ms``, as exact reprs."""
    reports = (dataclasses.asdict(r) for r in run_all(RunConfig(points=points)))
    return [repr({k: v for k, v in r.items() if k != "elapsed_ms"}) for r in reports]


def _on_each_route(monkeypatch, compute):
    """compute() on the C binding, then with every module's _einsum patched back to the public np.einsum."""
    curvature._geometry.cache_clear()  # a point's cached geometry would come from the other route's build
    default = compute()
    for module in MODULES:
        monkeypatch.setattr(module, "_einsum", np.einsum)
    curvature._geometry.cache_clear()
    public = compute()
    monkeypatch.undo()
    curvature._geometry.cache_clear()
    return default, public


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and values, signed zeros and NaN included (a longdouble's padding bytes are undefined)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_a_point_replays_the_same_bits_on_the_public_einsum(dtype, monkeypatch):
    p = Point(*np.array([0.7, -1.3, 0.4, 1.6], dtype))
    default, public = _on_each_route(monkeypatch, lambda: _replay(p))
    assert [a.dtype for a in default] == [np.dtype(dtype)] * 6
    assert all(map(_same_bits, default, public))


def test_a_batch_replays_the_same_bits_on_the_public_einsum(monkeypatch):
    P = np.random.default_rng(33).uniform([-2, -2, -2, 0.5], [2, 2, 2, 2], (7, 4))
    default, public = _on_each_route(monkeypatch, lambda: _replay(P))
    assert [a.shape[0] for a in default] == [7] * 6
    assert all(map(_same_bits, default, public))


@pytest.mark.parametrize("points", [1, 20])
def test_reports_are_the_same_on_the_public_einsum(points, monkeypatch):
    default, public = _on_each_route(monkeypatch, lambda: _reports(points))
    assert default == public


def test_without_the_c_einsum_the_binding_falls_back_to_np_einsum():
    multiarray = pytest.importorskip("numpy._core.multiarray")
    if not hasattr(multiarray, "c_einsum"):
        pytest.skip("this numpy has no numpy._core.multiarray.c_einsum")
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import numpy._core.multiarray as multiarray\n"
        "del multiarray.c_einsum\n"
        "from geoverify import cli, jets\n"
        "assert jets._einsum is np.einsum\n"
        "sys.exit(cli.main(['lemma1', '--points', '5']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "lemma1" in run.stdout
