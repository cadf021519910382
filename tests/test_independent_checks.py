"""Every command on drawn configurations, checked by the benchmark's independent routes.

perfbench/checks.py holds one check per command, each against a path that
shares no solver with the package: matrices rebuilt from the ladder with
numpy, mpmath eigenvalues and discriminants, scipy's eigsh and expm.  The
benchmark applies them to its seeded workload points only.  Here each
command runs through cli.main on small configurations drawn across its
flags (derandomized, so the suite stays deterministic), and check_op must
pass.  The file is loaded unchanged, as the benchmark loads it.

The draws stay where the unchanged checks hold:
- the checks build H with omega = 1 (checks.anharmonic), so --omega keeps
  its default;
- RESOURCE_COUNTS pins the counts for n_q 2..8 only, so n_q 1 is not drawn;
- the resultant's integers are pinned for the n_max 8 even sector only;
  every other sector is checked by degree, discriminant and coalescence,
  and the coalescence test measures the closest pair against the block's
  spread, which for the two levels of n_max 4 is that pair itself, so the
  resultant is drawn from n_max 6;
- the lattice checks build periodic chains, so an open chain is drawn at 2
  sites only, where it is the periodic one at half the coupling (the
  periodic pair counts its one bond twice);
- the projector's 1e-3 value check and the projector and Dyson evolutions
  hold only well inside the radius; couplings past it are drawn for the
  commands whose checks are exact at any coupling (spectrum, exact
  evolution, pauli, the lattice sweeps);
- a scan window must hold an exceptional point in the upper half-plane,
  which the check requires refined; it sits anywhere from the window's
  centre to 60% of the way to its edge.
"""
import functools
import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phi4trunc import TruncationSpec, sylvester_discriminant
from phi4trunc.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, workloads = _load("checks"), _load("workloads")


def _real(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda x: round(x, 4) + 0.0)  # no -0.0


@functools.cache
def _eps(n_max: int, sector: str) -> np.ndarray:
    """The sector's exceptional points, from the check's own root solve of the resultant."""
    return checks.resultant_roots(sylvester_discriminant(TruncationSpec(n_max), sector))


def _inside(draw, n_max: int, level: int) -> float:
    """A coupling within a quarter of the nearest exceptional point of the level's sector."""
    if n_max == 2:  # a single level per sector: nothing to converge
        return draw(_real(-0.3, 0.3))
    nearest = float(np.min(np.abs(_eps(n_max, "odd" if level % 2 else "even"))))
    return round(draw(st.sampled_from([-1, 1])) * draw(st.floats(0.02, 0.25)) * nearest, 5)


@st.composite
def _series(draw):
    n = draw(st.integers(1, 5)) * 2
    if draw(st.booleans()):
        return dict(nmax=n, level=draw(st.integers(0, n - 1)), orders=draw(st.integers(0, 40)))
    return dict(nmax=n, domain="strong", sector=draw(st.sampled_from(["even", "odd"])),
                level=draw(st.integers(0, n // 2 - 1)), orders=draw(st.integers(30, 40)))


@st.composite
def _radius(draw):
    n, orders = draw(st.integers(2, 5)) * 2, draw(st.integers(100, 200))
    return dict(nmax=n, level=draw(st.integers(0, n - 1)), orders=orders, fit=[orders // 2, orders])


@st.composite
def _projector(draw):
    n = draw(st.integers(1, 5)) * 2
    level = draw(st.integers(0, n - 1))
    return dict(nmax=n, level=level, order=draw(st.integers(4, 6)), lam=_inside(draw, n, level),
                entry=[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))])


@st.composite
def _evolve(draw):
    method = draw(st.sampled_from(["exact", "projector", "dyson", "trotter"]))
    n = draw(st.sampled_from([2, 4, 8])) if method == "trotter" else draw(st.integers(1, 5)) * 2
    state_in = draw(st.integers(0, n - 1))
    if method == "trotter":
        return dict(method=method, nmax=n, lam=draw(_real(0.0, 0.1)), dt=draw(st.sampled_from([0.005, 0.01])),
                    steps=draw(st.integers(10, 200)), state_in=state_in, state_out=draw(st.integers(0, n - 1)))
    # H keeps parity, so a pair across the sectors would check an amplitude that is 0 by symmetry alone
    state_out = state_in % 2 + 2 * draw(st.integers(0, n // 2 - 1))
    if method == "exact":
        lam, order, tmax = draw(_real(-0.05, 1.0)), 4, draw(_real(0.5, 10.0))
    elif method == "projector":
        lam, order, tmax = _inside(draw, n, state_in), draw(st.integers(4, 6)), draw(_real(0.5, 5.0))
    else:
        lam = round(draw(st.sampled_from([-1, 1])) * draw(st.floats(2e-4, 2e-3)), 6)  # at 0 the series is exact
        order, tmax = draw(st.integers(5, 6)), 1.0
    return dict(method=method, nmax=n, lam=lam, order=order, state_in=state_in, state_out=state_out,
                tmax=tmax, nt=draw(st.integers(5, 30)))


@st.composite
def _spectrum(draw):
    """A single site past the radius too, or a periodic chain on either basis, or an open pair."""
    shape = draw(st.sampled_from(["site", "chain", "open pair"]))
    if shape == "site":
        return dict(nmax=draw(st.integers(1, 5)) * 2, sector=draw(st.sampled_from(["even", "odd"])),
                    lam=draw(_real(-0.05, 1.0)))
    kappa, lam = draw(_real(-0.3, 0.3)), draw(_real(-0.1, 0.3))
    if shape == "chain":
        # kappa <= 0 or k > 1 takes the parity blocks, the rest the symmetric sectors
        return dict(nsites=draw(st.integers(2, 5)), nmax=draw(st.sampled_from([2, 4])), kappa=kappa, lam=lam,
                    method=draw(st.sampled_from(["dense", "lanczos"])), k=draw(st.integers(1, 3)))
    return dict(nsites=2, nmax=draw(st.sampled_from([2, 4, 6])), kappa=kappa, lam=lam, method="lanczos",
                k=draw(st.integers(1, 3)), boundary="open")


@st.composite
def _scan(draw):
    n, sector = draw(st.sampled_from([4, 6, 8])), draw(st.sampled_from(["even", "odd"]))
    ep = draw(st.sampled_from([z for z in _eps(n, sector) if z.imag > 0]))
    half = abs(ep) * draw(st.floats(0.15, 0.4))
    re_off, im_off = (draw(st.floats(-0.6, 0.6)) * half for _ in range(2))
    return dict(nmax=n, sector=sector, re=[round(ep.real + re_off - half, 5), round(ep.real + re_off + half, 5)],
                im=[round(ep.imag + im_off - half, 5), round(ep.imag + im_off + half, 5)],
                res=[draw(st.integers(15, 30)), draw(st.integers(15, 30))], refine=1, jobs=draw(st.integers(1, 2)))


@st.composite
def _riemann(draw):
    return dict(nmax=draw(st.sampled_from([4, 6, 8])), sector=draw(st.sampled_from(["even", "odd"])),
                res=[draw(st.integers(3, 9)), draw(st.integers(4, 12))], jobs=draw(st.integers(1, 2)))


@st.composite
def _trotter(draw):
    first = draw(st.sampled_from([0.02, 0.01]))
    return dict(nmax=draw(st.sampled_from([4, 8, 16])), lam=draw(_real(0.01, 0.1)),
                dts=[first / 2**i for i in range(draw(st.integers(2, 4)))],
                ordering=draw(st.sampled_from(["by_magnitude_desc", "lexicographic", "as_given"])))


@st.composite
def _lattice_sweep(draw):
    n_sites = draw(st.integers(2, 4))
    return dict(nsites=n_sites, nmax=4 if n_sites == 4 else draw(st.sampled_from([4, 6])),
                kappas=draw(st.lists(_real(-0.3, 0.3), min_size=1, max_size=2, unique_by=lambda k: f"{k:g}")),
                lam_grid=[draw(_real(-0.4, -0.3)), draw(_real(0.05, 0.15)), draw(st.integers(31, 41))])


DRAWS = {
    "series": (_series(), 6),
    "radius": (_radius(), 4),
    "projector": (_projector(), 6),
    "evolve": (_evolve(), 10),
    "spectrum": (_spectrum(), 10),
    "resultant": (st.fixed_dictionaries({"nmax": st.sampled_from([6, 8, 10]),
                                         "sector": st.sampled_from(["even", "odd"])}), 3),
    "scan": (_scan(), 3),
    "riemann": (_riemann(), 3),
    "pauli": (st.fixed_dictionaries({"nmax": st.sampled_from([2, 4, 8, 16, 32]), "lam": _real(-0.05, 1.0)}), 5),
    # n_q 7 and 8 are pinned too, but cost 10x more
    "resources": (st.fixed_dictionaries({"nq": st.lists(st.integers(2, 6), min_size=1, max_size=4, unique=True)}), 4),
    "trotter": (_trotter(), 5),
    "lattice-sweep": (_lattice_sweep(), 4),
}


def test_the_draws_cover_every_command():
    assert set(DRAWS) == set(COMMANDS) == set(checks.CHECKS)
    # the counts the resources draws keep to
    assert sorted(checks.RESOURCE_COUNTS) == list(range(2, 9))


@pytest.mark.parametrize("command", list(DRAWS))
def test_drawn_configs_pass_the_independent_check(command):
    strategy, examples = DRAWS[command]

    @settings(derandomize=True, database=None, max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(strategy)
    def run(params):
        checked = params
        if params.get("boundary") == "open":
            # the check's periodic pair at half the coupling
            checked = {key: v for key, v in params.items() if key != "boundary"}
            checked["kappa"] = params["kappa"] / 2
        op = workloads.op(command, **params)
        with tempfile.TemporaryDirectory() as out:
            assert main(op["argv"] + ["--outdir", out]) == 0, op["argv"]
            assert checks.check_op({**op, "params": checked}, Path(out)) is None, op["argv"]

    run()
