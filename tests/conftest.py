"""Shared builders: small models, the assembled Laplacian and the dense replay oracle."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import relaxdiff as rd

# Tier-1 runs draw the same examples on every run, so that a run fails or
# passes for the code alone; `pytest --hypothesis-profile=deep` draws at random,
# 20 times as many in the tests that ask for `examples(n)`.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", max_examples=20 * settings.default.max_examples)
settings.load_profile("tier1")


def examples(n):
    """`n` examples under the tier-1 profile, as many times more as the loaded profile draws."""
    return n * settings.default.max_examples // settings.get_profile("tier1").max_examples



def make_grid_1d(n=16, length=1.0):
    return rd.Grid((n,), (length / n,))


def make_grid_2d(n1=4, n2=4, lengths=(1.0, 1.0)):
    return rd.Grid((n1, n2), (lengths[0] / n1, lengths[1] / n2))


def cosine_profile(grid, amplitude=0.5, offset=1.0):
    x = grid.cell_centers()[0]
    return offset + amplitude * np.cos(np.pi * x / grid.lengths[0])


def two_species_model(grid, delta=(0.01, 0.02), d=(0.1, 0.05),
                      couplings=((0.3, 0.6), (0.5, 0.2)), p=1.0):
    x = grid.cell_centers()[0]
    u1 = np.maximum(0.0, 1.0 - ((x - 0.3 * grid.lengths[0]) / (0.25 * grid.lengths[0])) ** 2) ** 2
    u2 = np.where(x < grid.lengths[0] / 2, 0.0, 1.0)
    return rd.ModelSpec(
        grid=grid,
        delta=delta,
        coefficients=(
            rd.SktCoefficients(d[0], couplings[0], p),
            rd.SktCoefficients(d[1], couplings[1], p),
        ),
        initial_data=(u1, u2),
    )


def lipschitz_cross_model(grid, base=0.05, coupling=1.0, delta=0.01, amplitude=0.5):
    """The smooth two-species problem used for the dual-path comparisons."""
    profile = cosine_profile(grid, amplitude)
    mirrored = cosine_profile(grid, -amplitude)
    return rd.ModelSpec(
        grid=grid,
        delta=(delta, delta),
        coefficients=(
            rd.SktCoefficients(base, (0.0, coupling)),
            rd.SktCoefficients(base, (coupling, 0.0)),
        ),
        initial_data=(profile, mirrored),
    )


def run_with_rows(model, cfg):
    """`rd.run`'s final state and every step's diagnostics rows, collected in `on_step`."""
    rows = []
    state = rd.run(model, cfg, on_step=lambda k, before, after, records: rows.extend(records))
    return state, rows


def readme_config():
    """The README's example config, as printed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (text,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    return text


def readme_config_2d():
    """The README's example config on 24 x 24 cells at T = 0.1, the 2D copy that CI runs."""
    text = readme_config()
    h = repr(1.0 / 24)
    return (text.replace("dims = 1\n", "dims = 2\n").replace("n1 = 128\n", "n1 = 24\n")
            .replace("h1 = 0.0078125\n", f"h1 = {h}\nn2 = 24\nh2 = {h}\n")
            .replace("T = 1.0\n", "T = 0.1\n"))


def dense_laplacian(grid):
    """Assembled zero-flux Laplacian: a Kronecker sum of 1D stencils.

    The first axis is fastest in the flat cell order, so it is the right
    factor of each Kronecker product.
    """
    def stencil(n, h):
        T = np.eye(n, k=1) + np.eye(n, k=-1)
        return (T - np.diag(T.sum(axis=1))) / (h * h)

    L = np.zeros((1, 1))
    for n, h in zip(grid.cells, grid.spacing):
        L = np.kron(stencil(n, h), np.eye(L.shape[0])) + np.kron(np.eye(n), L)
    return L


def dense_replay(model, cfg, n_steps, tau=None):
    """Re-run the scheme with dense direct solves on assembled matrices.

    Independent of the iterative path: matrices are materialized, the
    unsymmetrized implicit system is solved directly, and the regularization
    uses the dense resolvent. Returns per-step (u, u_tilde, w) snapshots.
    """
    g = model.grid
    tau = cfg.tau if tau is None else tau
    n = g.n_cells
    L = dense_laplacian(g)
    eye = np.eye(n)

    u = [row.copy() for row in model.initial_data]
    ut = [np.linalg.solve(eye - model.delta[i] * L, u[i]) for i in range(model.n_species)]
    w = [model.delta[i] * ut[i] for i in range(model.n_species)]
    history = [([v.copy() for v in u], [v.copy() for v in ut], [v.copy() for v in w])]

    for _ in range(n_steps):
        R = np.maximum(np.stack(ut), 0.0)
        A = [spec.evaluate_many(R) for spec in model.coefficients]
        if model.a_max is not None:
            A = [np.minimum(a, model.a_max) for a in A]
        u_new, ut_new, w_new = [], [], []
        for i in range(model.n_species):
            step_matrix = eye / tau - L @ np.diag(A[i])
            nxt = np.linalg.solve(step_matrix, u[i] / tau)
            tnxt = np.linalg.solve(eye - model.delta[i] * L, nxt)
            u_new.append(nxt)
            ut_new.append(tnxt)
            w_new.append(model.delta[i] * tnxt + (w[i] - model.delta[i] * ut[i])
                         + tau * A[i] * nxt)
        u, ut, w = u_new, ut_new, w_new
        history.append(([v.copy() for v in u], [v.copy() for v in ut],
                        [v.copy() for v in w]))
    return history


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
