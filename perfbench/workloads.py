"""Seeded op sequences for the benchmark workloads.

A workload is a fixed list of `phi4trunc` CLI invocations.  The seed is the
only input: it picks levels and sectors of equal block size, couplings
inside the convergence radius, lattice kappas and lambda windows, and the
Trotter coupling and input state.  None of these choices changes how much
work an op does, so runs with different seeds measure the same work.

`small=True` shrinks every size for the harness self-tests; the benchmark
itself always runs the full sizes.
"""
from __future__ import annotations

import os
import random

# lambda windows that hold the 4-site curvature peak for each kappa
LATTICE_WINDOWS = {0.1: (-0.30, 0.02), 0.2: (-0.22, 0.07), 0.3: (-0.12, 0.13),
                   0.4: (-0.03, 0.22), 0.5: (0.05, 0.30)}


def _flag_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def op(command: str, **params) -> dict:
    """One CLI invocation: its argv and the parameters the checks read back."""
    argv = [command] + [f"--{key.replace('_', '-')}={_flag_value(v)}" for key, v in params.items()]
    return {"command": command, "argv": argv, "params": params}


def _coupling(rng: random.Random, lo: float, hi: float) -> float:
    """A coupling with four significant digits, so exact paths see short rationals."""
    return round(rng.uniform(lo, hi), 4)


def exact_series(rng: random.Random, small: bool) -> list[dict]:
    # exact RS cost depends on the level through the size of its rationals;
    # each op draws from levels whose cost is within a few percent
    # well inside the n_max=8 radii (0.032 and up), so the order-4 projector
    # evolution stays within its 1e-3 check for every input state
    lam = _coupling(rng, 0.004, 0.009)
    state_in = rng.choice([2, 3])
    big = 12 if small else 32
    return [
        op("series", nmax=8, level=rng.choice([2, 3, 4]), orders=60 if small else 200),
        op("radius", nmax=8, level=rng.choice([3, 4]), orders=200, fit=[100, 200]),
        op("radius", nmax=12, level=rng.choice([4, 5]), orders=150, fit=[75, 150]),
        op("series", nmax=big, level=rng.choice([8, 12, 16, 20]) % big, orders=30 if small else 100),
        op("series", nmax=8, domain="strong", sector=rng.choice(["even", "odd"]),
           level=rng.randrange(4), orders=40),
        op("projector", nmax=8, level=rng.randrange(7), order=3 if small else 4, lam=lam),
        op("evolve", method="projector", nmax=8, order=3 if small else 4, lam=lam,
           state_in=state_in, state_out=state_in + 2, tmax=20.0, nt=201),
        op("evolve", method="dyson", nmax=8, order=4 if small else 6, lam=_coupling(rng, 0.001, 0.002),
           state_in=state_in, state_out=state_in + 2, tmax=1.0, nt=101),
        op("evolve", method="exact", nmax=8, lam=lam, state_in=state_in, state_out=state_in + 2),
        op("spectrum", nmax=16, sector=rng.choice(["even", "odd"]), lam=lam),
    ]


def exceptional_points(rng: random.Random, small: bool) -> list[dict]:
    # The scan window stays fixed around the n_max=8 even-sector EP cluster
    # (-0.065+0.004i, -0.040+0.019i, -0.009+0.031i): offsetting it changes how
    # many refinements run, and with them the op's cost, by up to 2x.
    return [
        op("resultant", nmax=8, sector="even"),
        op("resultant", nmax=8, sector="odd"),
        op("resultant", nmax=8 if small else 12, sector=rng.choice(["even", "odd"])),
        op("scan", nmax=8, sector="even", re=[-0.1, 0.02], im=[-0.05, 0.05],
           res=[60, 60] if small else [100, 100], refine=1, jobs=min(2, os.cpu_count() or 1)),
        op("riemann", nmax=8, sector=rng.choice(["even", "odd"]), res=[20, 40] if small else [80, 160]),
    ]


def lattice_qubit(rng: random.Random, small: bool) -> list[dict]:
    # adjacent kappas: farther pairs widen the window and cost up to 15% more
    low = rng.choice([0.1, 0.2, 0.3])
    kappas = [low, round(low + 0.1, 1)]
    shift = round(rng.uniform(-0.01, 0.01), 4)
    lo = round(min(LATTICE_WINDOWS[k][0] for k in kappas) + shift, 4)
    hi = round(max(LATTICE_WINDOWS[k][1] for k in kappas) + shift, 4)
    # first-order Trotter at dt = 0.01 stays within 1e-3 of the exact
    # probabilities over 1000 steps for these couplings and input states
    lam = _coupling(rng, 0.02, 0.06)
    state_in = rng.randrange(2)
    return [
        op("lattice-sweep", nsites=4, nmax=4, kappas=kappas, lam_grid=[lo, hi, 41 if small else 81]),
        # kappa up to 0.3 and lambda down to 0.02 slowed Lanczos by up to 40%;
        # within this range the cost varies by under 10%
        op("spectrum", nsites=6 if small else 8, nmax=4, kappa=_coupling(rng, 0.05, 0.15),
           lam=_coupling(rng, 0.1, 0.2), method="lanczos", k=1),
        op("pauli", nmax=64 if small else 256, lam=lam),
        op("resources", nq=[2, 3, 4, 5] if small else [2, 3, 4, 5, 6, 7]),
        op("trotter", nmax=16, lam=lam, dts=[0.02, 0.01, 0.005, 0.0025]),
        op("evolve", method="trotter", nmax=8, lam=lam, dt=0.01, steps=200 if small else 1000,
           state_in=state_in, state_out=state_in + 2),
    ]


WORKLOADS = {
    "exact-series": exact_series,
    "exceptional-points": exceptional_points,
    "lattice-qubit": lattice_qubit,
}


def generate(name: str, seed: int, small: bool = False) -> list[dict]:
    """The op sequence of one workload for one seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), small)
