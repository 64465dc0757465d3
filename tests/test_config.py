import re
from pathlib import Path

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff.errors import ConfigError

from conftest import make_grid_1d, make_grid_2d, two_species_model

MINIMAL = """
[grid]
dims = 1
n1 = 16
h1 = 0.0625

[species.1]
delta = 0.1
coeff = skt
d = 0.5
d_1 = 0.2
init = constant:1.0

[scheme]
tau = 0.01
T = 0.1

[run]
mode = simulate
"""


def test_minimal_config_fills_defaults():
    cfg = rd.parse_config(MINIMAL)
    assert cfg.grid.cells == (16,)
    assert cfg.scheme.linear_tol == 1e-10
    assert cfg.scheme.workers == 1
    assert cfg.mode == "simulate"
    assert cfg.seed == 0
    model = cfg.build_model()
    assert model.n_species == 1
    assert np.all(model.initial_data[0] == 1.0)


def test_unknown_key_names_line_and_key():
    bad = MINIMAL.replace("tau = 0.01", "taau = 0.01")
    with pytest.raises(ConfigError) as err:
        rd.parse_config(bad)
    message = str(err.value)
    assert "taau" in message and "line" in message


# negative round-off is always clamped, so there is no clamp_tilde_positive key
def test_clamp_tilde_positive_key_rejected():
    bad = MINIMAL.replace("tau = 0.01", "tau = 0.01\nclamp_tilde_positive = on")
    with pytest.raises(ConfigError) as err:
        rd.parse_config(bad)
    message = str(err.value)
    assert "clamp_tilde_positive" in message and "line" in message


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    assert len(rd.parse_config(blocks[0]).species) == 2


def readme_python_blocks():
    """The README's Python blocks, in order: the snapshot reader, the library sketch."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def test_readme_snapshot_reader_indexes_species_and_axes(tmp_path, rng):
    reader, _ = readme_python_blocks()
    g = make_grid_2d(3, 4)
    fields = [rng.standard_normal(g.n_cells) for _ in range(2)]
    path = tmp_path / "snap_1.fld"
    rd.write_snapshot(path, g, fields, 0.5)
    scope = {"np": np, "path": path}
    exec(compile(reader, "README.md", "exec"), scope)
    u = scope["u"]
    assert scope["magic"] == b"RELAXDIFF v2"
    assert u.shape == (2, 4, 3)
    assert u.tobytes() == b"".join(f.tobytes() for f in fields)
    x, y = g.cell_centers()
    assert (x[2 * 3 + 1], y[2 * 3 + 1]) == (g.spacing[0] * 1.5, g.spacing[1] * 2.5)
    assert u[1, 2, 1] == fields[1][2 * 3 + 1]  # u[species - 1, i2, i1]


def test_readme_library_sketch_runs(capsys):
    _, sketch = readme_python_blocks()
    exec(compile(sketch, "README.md", "exec"), {})
    rows = capsys.readouterr().out.rstrip("\n").splitlines()
    # a header, then one row per species and step: 100 steps of two species
    assert rows[0].startswith("step,time,species,")
    assert len(rows) == 1 + 2 * 100


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        rd.parse_config(MINIMAL + "\n[extra]\nx = 1\n")


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("tau = 0.01", "tau = 0.01\ntau = 0.02")
    with pytest.raises(ConfigError, match="duplicate key"):
        rd.parse_config(bad)


def test_negative_delta_fails_validation():
    bad = MINIMAL.replace("delta = 0.1", "delta = -1")
    with pytest.raises(ConfigError, match="delta must be positive"):
        rd.parse_config(bad)


def test_negative_initial_fails_validation():
    bad = MINIMAL.replace("init = constant:1.0", "init = constant:-0.1")
    with pytest.raises(ConfigError, match="nonnegative"):
        rd.parse_config(bad)


def test_tabulated_requires_library_api():
    bad = MINIMAL.replace("coeff = skt", "coeff = tabulated")
    with pytest.raises(ConfigError, match="library"):
        rd.parse_config(bad)


def test_species_numbering_must_be_contiguous():
    bad = MINIMAL.replace("[species.1]", "[species.2]")
    with pytest.raises(ConfigError, match="numbered"):
        rd.parse_config(bad)


def test_mode_must_be_recognized():
    bad = MINIMAL.replace("mode = simulate", "mode = simulte")
    with pytest.raises(ConfigError, match="mode"):
        rd.parse_config(bad)


def test_two_species_couplings_parsed():
    text = """
[grid]
dims = 2
n1 = 4
n2 = 6
h1 = 0.25
h2 = 0.125

[species.1]
delta = 0.01
coeff = skt
d = 0.05
d_1 = 0.0
d_2 = 1.0
p = 1
init = bump:0.4,0.3,1.0

[species.2]
delta = 0.02
coeff = skt
d = 0.1
d_1 = 0.5
init = step:0.0,1.0

[scheme]
tau = 0.01
T = 0.05
workers = 2

[run]
mode = cross-validate
seed = 7
"""
    cfg = rd.parse_config(text)
    assert cfg.grid.cells == (4, 6)
    assert cfg.species[0].coefficients.couplings == (0.0, 1.0)
    assert cfg.species[1].coefficients.couplings == (0.5, 0.0)
    assert cfg.scheme.workers == 2
    model = cfg.build_model()
    assert rd.validate_model(model) == []
    assert np.min(model.initial_data[0]) == 0.0


def test_init_recipes():
    g = make_grid_1d(8)
    constant = rd.build_initial(g, "constant:2.5", 0, 1)
    assert np.all(constant == 2.5)
    stepv = rd.build_initial(g, "step:0.0,1.0", 0, 1)
    assert stepv.tolist() == [0.0] * 4 + [1.0] * 4
    bump = rd.build_initial(g, "bump:0.5,0.25,2.0", 0, 1)
    assert bump.max() <= 2.0 and bump.min() == 0.0
    cosine = rd.build_initial(g, "cosine:0.5,1.0", 0, 1)
    assert cosine == pytest.approx(1.0 + 0.5 * np.cos(np.pi * g.cell_centers()[0]))
    r1 = rd.build_initial(g, "random:0.0,1.0", 3, 1)
    r2 = rd.build_initial(g, "random:0.0,1.0", 3, 1)
    r3 = rd.build_initial(g, "random:0.0,1.0", 4, 1)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
    with pytest.raises(ConfigError):
        rd.build_initial(g, "blob:1.0", 0, 1)
    with pytest.raises(ConfigError):
        rd.build_initial(g, "bump:0.5,0.25", 0, 1)


def test_init_from_file(tmp_path):
    g = make_grid_1d(4)
    path = tmp_path / "field.txt"
    path.write_text("0.0 0.5\n1.0 1.5\n")
    values = rd.build_initial(g, f"file:{path}", 0, 1)
    assert values.tolist() == [0.0, 0.5, 1.0, 1.5]
    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0\n")
    with pytest.raises(ConfigError, match="4 cells"):
        rd.build_initial(g, f"file:{short}", 0, 1)


def test_build_model_on_refined_grid():
    cfg = rd.parse_config(MINIMAL)
    fine = rd.Grid((32,), (0.03125,))
    model = cfg.build_model(fine)
    assert model.grid.cells == (32,)
    random_cfg = rd.parse_config(MINIMAL.replace("constant:1.0", "random:0.0,1.0"))
    with pytest.raises(ConfigError, match="refined"):
        random_cfg.build_model(fine)


def test_snapshot_round_trip_exact(rng):
    for g in (make_grid_1d(7, 1.3), make_grid_2d(3, 4, (1.0, 0.7))):
        fields = [rng.uniform(0.0, 3.0, g.n_cells) for _ in range(2)]
        time = float(rng.uniform(0.0, 10.0))
        data = rd.snapshots.format_snapshot(g, fields, time)
        magic, header, body = data.split(b"\n", 2)
        assert magic == b"RELAXDIFF v2"
        assert len(body) == 8 * g.n_cells * 2
        g2, values, time2 = rd.parse_snapshot(data)
        assert g2 == g
        assert time2 == time
        assert np.array_equal(values, fields)


def test_snapshot_file_round_trip(tmp_path, rng):
    g = make_grid_1d(5)
    f = rng.standard_normal(5)
    path = tmp_path / "snap_3.fld"
    rd.write_snapshot(path, g, [f], 0.375)
    g2, values, time2 = rd.read_snapshot(path)
    assert np.array_equal(values, [f])
    assert time2 == 0.375
    header = b"RELAXDIFF v2\n1 5 0.2 1 0.375\n"
    assert path.read_bytes() == header + f.astype("<f8").tobytes()
    assert path.stat().st_size == len(header) + 8 * 5


def test_snapshot_rejects_garbage():
    with pytest.raises(ConfigError):
        rd.parse_snapshot(b"not a snapshot\n")
    with pytest.raises(ConfigError):
        rd.parse_snapshot(b"RELAXDIFF v2\n1 4 0.25 2\n")  # truncated header
    with pytest.raises(ConfigError):
        rd.parse_snapshot(b"RELAXDIFF v2\n1 4 0.25 1 0.0")  # no end of header
    with pytest.raises(ConfigError):
        rd.parse_snapshot(b"RELAXDIFF v2\n1 4 0.2\xb5 1 0.0\n" + bytes(32))  # not ASCII
