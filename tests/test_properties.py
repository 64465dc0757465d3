"""Property tests: random small models keep the scheme's guarantees in both
time paths, and a config with one bad value is rejected only as a
ConfigError."""

import contextlib
import io
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import relaxdiff as rd
from relaxdiff.cli import main
from relaxdiff.config import MODES
from relaxdiff.fixedpoint import picard_step_with_info
from relaxdiff.model import coefficient_fields
from relaxdiff.stepper import species_step

from conftest import dense_laplacian, examples, run_with_rows

LINEAR_TOL = 1e-10


@st.composite
def models(draw, species=st.integers(1, 3), powers=st.floats(0.5, 3.0)):
    """A 1D or 2D grid of 1..24 cells per axis with its own spacing per axis,
    `species` species with random delta and polynomial coefficients of power
    `powers`, whose couplings may vanish exactly (so a Picard sweep may read
    some, all or none of the densities it starts from), and nonnegative
    initial data that may vanish on whole cells (valid data, so never
    subnormal)."""
    cells = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=2)))
    spacing = tuple(draw(st.floats(0.01, 1.0)) for _ in cells)
    grid = rd.Grid(cells, spacing)
    n_species = draw(species)
    coefficients = tuple(
        rd.SktCoefficients(draw(st.floats(0.01, 1.0)),
                           tuple(draw(st.just(0.0) | st.floats(0.0, 2.0))
                                 for _ in range(n_species)),
                           draw(powers))
        for _ in range(n_species))
    data = arrays(np.float64, grid.n_cells,
                  elements=st.floats(0.0, 10.0, allow_subnormal=False) | st.just(0.0))
    return rd.ModelSpec(
        delta=tuple(draw(st.floats(1e-3, 1.0)) for _ in range(n_species)),
        coefficients=coefficients,
        initial_data=tuple(rd.Field(grid, draw(data)) for _ in range(n_species)),
    )


TINY_GRID = rd.Grid((4,), (0.25,))


@settings(max_examples=examples(60), deadline=None)
@given(models(), st.floats(1e-3, 0.1))
# data of 1e-155 squares below the smallest normal float; CG used to break down on it
@example(rd.ModelSpec(
    delta=(1.0, 1.0, 1.0),
    coefficients=(rd.SktCoefficients(1.0, (0.0, 0.0, 0.0)),
                  rd.SktCoefficients(1.0, (0.0, 0.0, 0.0)),
                  rd.SktCoefficients(1.0, (1.0, 0.0, 0.0))),
    initial_data=(rd.Field(TINY_GRID, np.array([0.0, 1.0, 1.0, 1.0])),
                  rd.Field(TINY_GRID, np.zeros(4)),
                  rd.Field(TINY_GRID, np.full(4, 1.92688797e-155)))), 0.0625)
def test_random_models_keep_the_guarantees(m, tau):
    assert rd.validate_model(m) == []
    cfg = rd.SchemeConfig(tau=tau, horizon=3 * tau, linear_tol=LINEAR_TOL)
    first, first_rows = run_with_rows(m, cfg)
    initial = [rd.integrate(m.grid, f) for f in m.initial_data]
    slack = -10 * LINEAR_TOL
    for row in first_rows:
        assert abs(row.mass_u - initial[row.species - 1]) <= 1e-12 * initial[row.species - 1]
        assert row.min_u >= slack and row.min_utilde >= slack
        assert row.w_min_increment >= slack

    again, again_rows = run_with_rows(m, cfg)
    assert [r.to_csv_row() for r in again_rows] == [r.to_csv_row() for r in first_rows]
    for a, b in zip(first.u + first.u_tilde + first.w, again.u + again.u_tilde + again.w):
        assert a.values.tobytes() == b.values.tobytes()


@settings(max_examples=examples(40), deadline=None)
@given(models(species=st.integers(2, 3), powers=st.floats(1.0, 3.0)), st.floats(1e-3, 0.1),
       st.floats(-10.0, -6.0).map(lambda exponent: 10.0**exponent))
def test_random_picard_steps_are_guaranteed_fixed_points(m, tau, linear_tol):
    # linear_tol is drawn log-uniformly from the default 1e-10 up to 1e-6: the
    # sweeps stop at 10 * linear_tol, so their stop moves with it
    cfg = rd.SchemeConfig(tau=tau, horizon=tau, linear_tol=linear_tol)
    state = rd.initial_state(m, cfg)
    try:
        new, _ = picard_step_with_info(state, m, cfg, cfg.tau)
    except rd.PicardConvergenceError:
        return
    slack = -10 * linear_tol
    for before, after, w_before, w_after in zip(state.u, new.u, state.w, new.w):
        mass = rd.integrate(m.grid, before)
        assert abs(rd.integrate(m.grid, after) - mass) <= 1e-12 * mass
        assert np.min(after.values) >= slack
        assert np.min(w_after.values - w_before.values) >= slack
    # One Jacobi re-freeze at the result's own u_tilde. It differs from the
    # last Gauss-Seidel sweep only in its coefficients, and the sweep stop
    # holds each of those within 10 * linear_tol relative of the one that
    # sweep froze; a relative change of its coefficient moves the frozen
    # step's u by about as much at most (the stiff limit, where u ~ 1 / A).
    # Each solve adds at most about linear_tol relative, so u may move by
    # 10 * linear_tol + 10 * linear_tol relative. 4,500 draws reached at most
    # 0.53 of that bound, and 2,300 at most 0.89 under the earlier stop on the
    # change of u. A stop on the residual of the read densities alone
    # exceeded it on 0.1 to 0.5% of draws (by up to 1.4 times), where
    # a(u_tilde) ~ u_tilde^p moved about p times as much as u_tilde.
    A_fields, _ = coefficient_fields(m, new.u_tilde, range(m.n_species))
    again = [species_step(state, m, cfg, i, A, tau)[0] for i, A in enumerate(A_fields)]
    moved = np.linalg.norm(np.concatenate([a.values - b.values for a, b in zip(again, new.u)]))
    size = np.linalg.norm(np.concatenate([f.values for f in new.u]))
    assert moved <= (10 * linear_tol + 10 * linear_tol) * size


@st.composite
def skt_specs_and_densities(draw):
    """Two or three polynomial coefficients (couplings in [0, 2], p in
    {1, 1.5, 2}) and 1..8 nonnegative density vectors, one per column."""
    n = draw(st.integers(2, 3))
    specs = tuple(rd.SktCoefficients(draw(st.floats(0.01, 1.0)),
                                     tuple(draw(st.floats(0.0, 2.0)) for _ in range(n)),
                                     draw(st.sampled_from((1.0, 1.5, 2.0))))
                  for _ in range(n))
    columns = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
                            min_size=1, max_size=8))
    return specs, np.array(columns).T


@settings(max_examples=examples(200), deadline=None)
@given(skt_specs_and_densities())
def test_eval_coefficient_is_the_value_the_scheme_uses(specs_and_densities):
    # eval_coefficient at a density vector r gives, bit for bit, the value
    # coefficient_fields gives a cell whose regularized densities are r
    specs, R = specs_and_densities
    grid = rd.Grid((R.shape[1],), (1.0 / R.shape[1],))
    fields = tuple(rd.Field(grid, row) for row in R)
    m = rd.ModelSpec(delta=(0.1,) * len(specs), coefficients=specs, initial_data=fields)
    A, _ = coefficient_fields(m, fields, range(len(specs)))
    for spec, values in zip(specs, A):
        assert [rd.eval_coefficient(spec, r) for r in R.T] == values.tolist()


@st.composite
def tridiagonal_systems(draw):
    """A 1D grid of 1..1024 cells, the diagonal d of diag(d) - L on it and a
    right-hand side of either sign that peaks anywhere from 1e-300 to 1e300.
    d is a scalar, or spreads by up to 1e6 over the cells from its least
    value. d / w reaches from 1e-3 to 1e300 for the coupling w = 1 / h^2: the
    implicit step's h^2 / (tau A) is about 2e-3 to 2e-2 on the xval1d
    benchmark workload, and from d / w of about 2^512 the scan of the
    elimination runs in more than one segment."""
    n = draw(st.integers(1, 1024))
    h = draw(st.floats(0.01, 1.0))
    grid = rd.Grid((n,), (h,))
    w = 1.0 / (h * h)
    spread = draw(st.floats(0.0, 6.0))
    least = w * 10.0 ** draw(st.floats(-3.0, 300.0 - spread))
    if draw(st.booleans()):
        d = least
    else:
        d = least * 10.0 ** (spread * draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0))))
    peak = 10.0 ** draw(st.floats(-300.0, 300.0))
    r = peak * draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0) | st.just(0.0)))
    return grid, w, d, r


def eliminate_by_loops(d, w, r):
    """The elimination of diag(d) - w L_1 (L_1 the Laplacian at h = 1) by two
    Python loops over the cells: the reference the scan must agree with."""
    pivots, t = [], 0.0
    for di in d[:-1]:
        e = di + t
        pivot = e + w
        pivots.append(pivot)
        t = w * (e / pivot)
    pivots.append(d[-1] + t)
    v, forward = 0.0, []
    for ri, p in zip(r.tolist(), pivots):
        v = (ri + w * v) / p
        forward.append(v)
    x, back = 0.0, []
    for vi, p in zip(reversed(forward), reversed(pivots)):
        x = vi + (w / p) * x
        back.append(x)
    return np.array(back[::-1])


@settings(max_examples=examples(100), deadline=None)
@given(tridiagonal_systems())
def test_elimination_solves_accurately_and_keeps_the_sign(system):
    grid, w, d, r = system
    solve = grid.solver(d, 1.0)[0]
    x = solve(r)
    diagonal = np.broadcast_to(d, r.shape).tolist()
    # both sweeps add only nonnegative multiples, so the rounding of either
    # elimination is relative to its solve of |r|, cell by cell: about one ulp
    # per cell on the way, n + 1 ulps in all (a constant d rounds its gains
    # alike in every cell); below the smallest normal float it is absolute
    scale = eliminate_by_loops(diagonal, w, np.abs(r))
    reference = eliminate_by_loops(diagonal, w, r)
    tol = (r.size + 1) * np.finfo(np.float64).eps
    assert np.all(np.abs(x - reference) <= tol * scale + np.finfo(np.float64).tiny)
    # the residual on the assembled matrix, against the stopping rule's 1e-10,
    # of data that peaks at 1
    unit = r / max(np.abs(r).max(), np.finfo(np.float64).tiny)
    x = solve(unit)
    M = np.diag(np.broadcast_to(d, r.shape)) - dense_laplacian(grid)
    assert np.linalg.norm(unit - M @ x) <= 1e-12 * np.linalg.norm(unit)
    # elimination on this M-matrix only adds and multiplies nonnegative
    # numbers, so nonnegative data gives a nonnegative solution, bit for bit
    assert np.all(solve(np.abs(r)) >= 0.0)


@st.composite
def constant_operators(draw):
    """A 1D or 2D grid of 1..24 cells per axis, a constant diagonal x and a
    scale s, each from 1e-3 to 1e3, and a right-hand side."""
    cells = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=2)))
    grid = rd.Grid(cells, tuple(draw(st.floats(0.01, 1.0)) for _ in cells))
    magnitude = st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent)
    x, s = draw(magnitude), draw(magnitude)
    return grid, x, s, draw(arrays(np.float64, grid.n_cells, elements=st.floats(-10.0, 10.0)))


@settings(max_examples=examples(50), deadline=None)
@given(constant_operators())
# sqrt(2) * sqrt(2) is 2.0000000000000004, the shift a varying diagonal takes
@example((rd.Grid((16,), (1 / 16,)), 2.0, 1.0, np.cos(np.arange(16.0))))
@example((rd.Grid((6, 5), (1 / 6, 0.2)), 2.0, 1.0, np.cos(np.arange(30.0))))
def test_a_constant_array_solves_the_operator_of_its_value(system):
    grid, x, s, r = system
    solve, starts = grid.solver(x, s)
    array_solve, array_starts = grid.solver(np.full(grid.n_cells, x), s)
    assert array_starts == starts
    assert array_solve(r).tobytes() == solve(r).tobytes()


def test_subnormal_initial_data_is_rejected():
    # a step of this model lost one ulp of species 3's 5e-324 per cell, 1/6 of
    # its mass: rounding is absolute below the smallest normal float
    grid = rd.Grid((3, 3), (1.0, 0.625))
    m = rd.ModelSpec(
        delta=(0.0625, 1.0, 1.0),
        coefficients=(rd.SktCoefficients(1.0, (0.0, 0.0, 0.0), 1.0),
                      rd.SktCoefficients(1.0, (0.0, 0.0, 0.0), 1.0),
                      rd.SktCoefficients(1.0, (1.0, 0.0, 0.0), 1.0)),
        initial_data=(rd.Field(grid, np.array([0.0, 4.0] + [0.0] * 7)),
                      rd.Field(grid, np.zeros(9)),
                      rd.Field(grid, np.full(9, 5e-324))),
    )
    violations = rd.validate_model(m)
    assert violations and {v.species for v in violations} == {3}
    assert all("subnormal" in v.condition for v in violations)
    smallest_normal = np.finfo(np.float64).tiny
    for value, valid in ((smallest_normal, True), (np.nextafter(smallest_normal, 0), False)):
        edited = replace(m, initial_data=m.initial_data[:2] + (rd.Field(grid, np.full(9, value)),))
        assert (rd.validate_model(edited) == []) == valid


INITS = ("constant:1.0", "step:0.0,1.0", "bump:0.5,0.3,1.0", "cosine:0.5,1.0",
         "random:0.0,1.0")
TOKENS = ("-1", "0", "1.5", "1e400", "nan", "abc", "", "1,0")


@st.composite
def config_lines(draw):
    """A valid config with every key set: a 1D or 2D grid of 1..24 cells per
    axis and one or two species with drawn init recipes."""
    dims = draw(st.integers(1, 2))
    lines = ["[grid]", f"dims = {dims}"]
    for axis in range(1, dims + 1):
        n = draw(st.integers(1, 24))
        lines += [f"n{axis} = {n}", f"h{axis} = {1.0 / n!r}"]
    n_species = draw(st.integers(1, 2))
    for i in range(1, n_species + 1):
        lines += [f"[species.{i}]", "delta = 0.01", "coeff = skt", "d = 0.05",
                  *(f"d_{j} = 0.5" for j in range(1, n_species + 1)), "p = 2",
                  f"init = {draw(st.sampled_from(INITS))}"]
    return lines + [
        "[scheme]", "tau = 0.01", "T = 0.05", "linear_tol = 1e-10", "output_stride = 1",
        "workers = 1", "a_max = 10.0",
        "[run]", "mode = simulate", "output_dir = out", "seed = 3", "spatial = off",
        "halvings = 2",
    ]


@settings(max_examples=examples(300), deadline=None)
@given(config_lines(), st.data())
def test_one_bad_value_is_accepted_or_a_config_error(lines, data):
    rd.parse_config("\n".join(lines))
    index = data.draw(st.sampled_from([k for k, line in enumerate(lines) if " = " in line]))
    key, _, value = lines[index].partition(" = ")
    token = data.draw(st.sampled_from(TOKENS))
    kind, colon, numbers = value.partition(":")
    if colon and data.draw(st.booleans()):
        # one number of an init recipe
        parts = numbers.split(",")
        parts[data.draw(st.integers(0, len(parts) - 1))] = token
        value = f"{kind}:{','.join(parts)}"
    else:
        value = token
    text = "\n".join(lines[:index] + [f"{key} = {value}"] + lines[index + 1:])
    try:
        rd.parse_config(text).build_model()
    except rd.ConfigError:
        pass


@st.composite
def extreme_configs(draw):
    """A valid config whose every physical value ranges over most of float64:
    a 1D or 2D grid of 1..12 cells per axis with spacings from 1e-100 to 1e100,
    one or two species with delta, d and couplings from 1e-300 to 1e300 (a
    coupling may vanish), p in {0.5, 1, 2, 3, 300} and drawn init recipes, and
    1..5 steps of a tau from 1e-300 to 1e100."""
    def magnitudes(low, high):
        return st.floats(low, high).map(lambda exponent: 10.0**exponent)

    dims = draw(st.integers(1, 2))
    lines = ["[grid]", f"dims = {dims}"]
    for axis in range(1, dims + 1):
        lines += [f"n{axis} = {draw(st.integers(1, 12))}",
                  f"h{axis} = {draw(magnitudes(-100.0, 100.0))!r}"]
    n_species = draw(st.integers(1, 2))
    for i in range(1, n_species + 1):
        lines += [f"[species.{i}]", f"delta = {draw(magnitudes(-300.0, 300.0))!r}",
                  "coeff = skt", f"d = {draw(magnitudes(-300.0, 300.0))!r}",
                  *(f"d_{j} = {draw(st.just(0.0) | magnitudes(-300.0, 300.0))!r}"
                    for j in range(1, n_species + 1)),
                  f"p = {draw(st.sampled_from((0.5, 1.0, 2.0, 3.0, 300.0)))!r}",
                  f"init = {draw(st.sampled_from(INITS))}"]
    tau = draw(magnitudes(-300.0, 100.0))
    return lines + [
        "[scheme]", f"tau = {tau!r}", f"T = {draw(st.integers(1, 5)) * tau!r}",
        "[run]", "seed = 3", f"spatial = {draw(st.sampled_from(('off', 'on')))}",
        f"halvings = {draw(st.integers(1, 2))}",
    ]


# The last stderr line of a run that exits 1 or 2: a stopped run's error, or
# the check that a study or an audit failed (`relaxdiff.cli`)
STOPPED = re.compile(r"(config )?error: ")
FAILED_CHECK = re.compile(r"\d+ invariant check\(s\) failed; see |discrepancy did not shrink "
                          r"|(temporal|spatial) order \S+ outside ")


@settings(max_examples=examples(10), deadline=None)
@given(extreme_configs())
def test_every_mode_of_a_valid_config_exits_0_1_or_2(lines):
    # a run either passes (0), fails numerically or a check (1) or rejects its
    # config (2), and says why; no exception escapes, a RuntimeWarning included
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        for mode in MODES:
            out, stderr = Path(work) / mode, io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                status = main([mode, "--config", str(config), "--output-dir", str(out)])
            last = (stderr.getvalue().splitlines() or [""])[-1]
            assert status in (0, 1, 2), (mode, status)
            if status == 2:
                assert last.startswith("config error: "), (mode, last)
            elif status == 1:
                assert STOPPED.match(last) or FAILED_CHECK.match(last), (mode, last)
            elif mode == "invariants":
                rows = (out / "invariants.csv").read_text().splitlines()[1:]
                assert rows and all(row.endswith(",pass") for row in rows)
