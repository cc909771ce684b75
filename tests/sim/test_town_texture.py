"""The town texture raster: pinned digests and kernel equivalence.

``town_texture_digests.json`` holds SHA-256 digests of every texel of
``TownTexture.texture`` and ``TownTexture.classes`` for four towns at two
resolutions, captured from the whole-grid rasteriser that
``texture_reference.py`` preserves.  Golden frames only sample the
texture under the camera footprint; these pin the full raster.

The property tests hold the windowed kernels to their references bit
for bit over sampled grid and procedural towns: ``Town.classify_grid``
to ``Town.classify_points`` over the full ``meshgrid``,
``TownTexture`` to the reference rasteriser (also on grids that clip
the town, so stripes run off the edge), and ``Polyline.resampled`` to
scalar ``point_at`` calls.

The texture keeps one palette id per texel; the id-raster tests hold
every sampler to lookups into the materialised ``texture``/``classes``
arrays, check that ids widen rather than wrap past 256 pairs, and bound
the bytes the benchmark town's texture holds.

Regenerate the digests (only after an *intentional* raster change) with:

    PYTHONPATH=src python tests/sim/test_town_texture.py --regen
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from texture_reference import reference_raster, reference_resampled_points

from repro.core.spec import CampaignSpec, SpecError
from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import OrientedBox, Polyline, Vec2
from repro.sim.render import SURFACE_COLORS, TownTexture
from repro.sim.town import (
    Building,
    GridTownConfig,
    ProceduralTownConfig,
    SurfaceType,
    Town,
    build_town,
)

DIGEST_PATH = Path(__file__).parent / "town_texture_digests.json"

#: The pinned towns: the benchmark town, the golden-frame town and two
#: procedural seeds.
PINNED_TOWNS = {
    "bench_4x4": GridTownConfig(rows=4, cols=4),
    "golden_3x3": GridTownConfig(rows=3, cols=3),
    "procedural_seed_0": ProceduralTownConfig(seed=0),
    "procedural_seed_7": ProceduralTownConfig(seed=7),
}
PINNED_RESOLUTIONS = (0.25, 0.5)


def _digests(tex: TownTexture) -> dict:
    return {
        "shape": list(tex.classes.shape),
        "texture": hashlib.sha256(tex.texture.tobytes()).hexdigest(),
        "classes": hashlib.sha256(tex.classes.tobytes()).hexdigest(),
    }


def compute_digests() -> dict:
    out = {}
    for name, config in PINNED_TOWNS.items():
        town = build_town(config)
        for res in PINNED_RESOLUTIONS:
            out[f"{name}@{res}"] = _digests(TownTexture(town, res))
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGEST_PATH.read_text())


@pytest.mark.parametrize("name", sorted(PINNED_TOWNS))
def test_raster_matches_pinned_digests(name, pinned):
    town = build_town(PINNED_TOWNS[name])
    for res in PINNED_RESOLUTIONS:
        assert _digests(TownTexture(town, res)) == pinned[f"{name}@{res}"], (
            f"{name}@{res}: raster changed; if the change is intentional, "
            "regenerate with: PYTHONPATH=src python tests/sim/test_town_texture.py --regen"
        )


def test_digest_file_has_no_strays(pinned):
    assert set(pinned) == {f"{n}@{r}" for n in PINNED_TOWNS for r in PINNED_RESOLUTIONS}


# ----------------------------------------------------------------------
# Kernel equivalence
# ----------------------------------------------------------------------

_SHAPES = st.sampled_from([(2, 3), (3, 2), (3, 3)])


@st.composite
def town_configs(draw):
    rows, cols = draw(_SHAPES)
    if draw(st.booleans()):
        return ProceduralTownConfig(
            rows=rows, cols=cols, seed=draw(st.integers(0, 10_000))
        )
    lane_width = draw(st.floats(2.5, 4.0))
    return GridTownConfig(
        rows=rows,
        cols=cols,
        block_size=draw(st.floats(6.0 * lane_width, 60.0)),
        lane_width=lane_width,
        with_buildings=draw(st.booleans()),
    )


#: Power-of-two resolutions (the renderer's multiply fast path) and
#: arbitrary ones (the division path).
resolutions = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0]),
    st.floats(0.3, 1.2).map(lambda r: round(r, 3)),
)
#: Grid margins around the town bounds; negative ones clip the town, so
#: roads, junctions and stripes run off the grid edge.
margins = st.floats(-10.0, 15.0)


@given(town_configs(), resolutions, margins)
@settings(max_examples=15, deadline=None)
def test_classify_grid_matches_classify_points(config, res, margin):
    town = build_town(config)
    xmin, ymin, xmax, ymax = town.bounds
    nx = int(math.ceil((xmax - xmin + 2 * margin) / res))
    ny = int(math.ceil((ymax - ymin + 2 * margin) / res))
    xs = xmin - margin + (np.arange(nx) + 0.5) * res
    ys = ymin - margin + (np.arange(ny) + 0.5) * res
    gx, gy = np.meshgrid(xs, ys)
    expected = town.classify_points(np.column_stack([gx.ravel(), gy.ravel()]))
    got = town.classify_grid(xs, ys)
    assert got.shape == (ny, nx) and got.dtype == np.uint8
    assert got.tobytes() == expected.reshape(ny, nx).tobytes()


@given(town_configs(), resolutions, margins)
@settings(max_examples=15, deadline=None)
def test_town_texture_matches_reference_raster(config, res, margin):
    town = build_town(config)
    tex = TownTexture(town, res, margin)
    ref_texture, ref_classes = reference_raster(town, res, margin)
    assert tex.classes.tobytes() == ref_classes.tobytes()
    assert tex.texture.shape == ref_texture.shape
    assert tex.texture.tobytes() == ref_texture.tobytes()


coords = st.floats(-20.0, 20.0)


@given(
    st.lists(st.tuples(coords, coords), min_size=2, max_size=8, unique=True),
    st.floats(0.1, 5.0),
)
@settings(max_examples=30, deadline=None)
def test_resampled_matches_scalar_point_at(vertices, spacing):
    try:
        line = Polyline([Vec2(x, y) for x, y in vertices])
    except ValueError:  # consecutive vertices too close together
        return
    expected = np.array([[p.x, p.y] for p in reference_resampled_points(line, spacing)])
    assert line.resampled_xy(spacing).tobytes() == expected.tobytes()
    # A path doubling back can put two stations on one point; resampled()
    # drops the later one, and raises only when fewer than two are left.
    step = np.diff(expected, axis=0)
    kept = expected[np.concatenate([[True], np.hypot(step[:, 0], step[:, 1]) >= 1e-9])]
    if len(kept) < 2:
        with pytest.raises(ValueError, match="collapses"):
            line.resampled(spacing)
        return
    points = line.resampled(spacing).points
    assert np.array([[p.x, p.y] for p in points]).tobytes() == kept.tobytes()


# ----------------------------------------------------------------------
# The id raster: samplers, id width, memory
# ----------------------------------------------------------------------


def _expected_lookup(tex: TownTexture, x: np.ndarray, y: np.ndarray):
    """``(colours, classes)`` of world points read off the materialised
    ``texture``/``classes`` arrays: rows and columns truncate toward
    zero like ``int()``, and off-map points read the grass colour and
    ``OFFROAD``."""
    cols = np.trunc((x - tex.x0) / tex.resolution)
    rows = np.trunc((y - tex.y0) / tex.resolution)
    inside = (cols >= 0) & (cols < tex.nx) & (rows >= 0) & (rows < tex.ny)
    r = np.where(inside, rows, 0).astype(np.int64)
    c = np.where(inside, cols, 0).astype(np.int64)
    colors = tex.texture[r, c]
    colors[~inside] = SURFACE_COLORS[int(SurfaceType.OFFROAD)]
    classes = tex.classes[r, c]
    classes[~inside] = int(SurfaceType.OFFROAD)
    return colors, classes


@given(
    town_configs(),
    st.sampled_from(PINNED_RESOLUTIONS),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 40.0),
)
@settings(max_examples=20, deadline=None)
def test_samplers_match_the_materialised_rasters(config, res, seed, reach):
    """Every sampler reads the id raster through a table; each must give
    the bits a lookup into ``texture``/``classes`` gives, on the map, on
    its edges and off it."""
    town = build_town(config)
    tex = TownTexture(town, res)
    xmin, ymin, xmax, ymax = town.bounds
    rng = np.random.default_rng(seed)
    n = 300
    x = rng.uniform(xmin - 12.0 - reach, xmax + 12.0 + reach, n)
    y = rng.uniform(ymin - 12.0 - reach, ymax + 12.0 + reach, n)
    # Texel edges and the grid's outer corners, where truncation decides.
    x[:4] = tex.x0 + np.array([0.0, -1e-9, tex.nx * res, tex.nx * res - 1e-9])
    y[:4] = tex.y0 + np.array([0.0, -1e-9, tex.ny * res, tex.ny * res - 1e-9])
    colors, classes = _expected_lookup(tex, x, y)
    xy = np.column_stack([x, y])
    assert tex.sample(xy).tobytes() == colors.tobytes()
    assert tex.sample_xy(x, y).tobytes() == colors.tobytes()
    assert tex.sample_f32(np.stack([x, y])).tobytes() == colors.astype(np.float32).tobytes()
    assert tex.sample_classes(xy).tobytes() == classes.tobytes()
    assert tex.sample_classes_xy(x, y).tobytes() == classes.tobytes()
    # Stacked points keep their trailing shape, as the renderer's episode
    # slabs do.
    w = np.stack([x, y]).reshape(2, 3, n // 3)
    assert tex.sample_f32(w).shape == (3, n // 3, 3)
    assert tex.sample_f32(w).tobytes() == colors.astype(np.float32).tobytes()


def test_more_than_256_pairs_widen_the_ids():
    """300 building footprints of distinct colours make more than 256
    (colour, class) pairs: the ids widen to uint16, and no id wraps onto
    another pair's colour."""
    base = build_town(GridTownConfig(rows=2, cols=3, with_buildings=False))
    xmin, ymin, xmax, ymax = base.bounds
    buildings = [
        Building(
            OrientedBox(
                Vec2(xmin + (i % 20 + 0.5) * (xmax - xmin) / 20,
                     ymin + (i // 20 + 0.5) * (ymax - ymin) / 15),
                0.0, 1.0, 1.0,
            ),
            8.0,
            # int(ch * 0.55) keeps even channels apart: distinct footprints.
            (2 * (i % 100), 2 * (i // 100), 0),
        )
        for i in range(300)
    ]
    town = Town(base.intersections, base.roads, base.lane_width, base.sidewalk_width, buildings)
    tex = TownTexture(town, 0.5)
    assert tex._ids.dtype == np.uint16
    assert len(tex._rgb) > 256 and tex._ids.max() == len(tex._rgb) - 1
    ref_texture, ref_classes = reference_raster(town, 0.5)
    assert tex.texture.tobytes() == ref_texture.tobytes()
    assert tex.classes.tobytes() == ref_classes.tobytes()


def test_the_bench_town_texture_holds_about_a_byte_per_texel():
    """The 4x4 benchmark town: the arrays the texture keeps, counted
    once per buffer, are at most 1.1 bytes per texel of ids plus 64 KB
    of tables and constants, and ``nbytes`` counts the ids and tables."""
    tex = TownTexture(build_town(PINNED_TOWNS["bench_4x4"]), 0.25)
    buffers = {}
    for value in vars(tex).values():
        if isinstance(value, np.ndarray):
            base = value if value.base is None else value.base
            buffers[id(base)] = base.nbytes
    texels = tex.nx * tex.ny
    held = sum(buffers.values())
    assert tex._ids.nbytes <= 1.1 * texels
    assert held - tex._ids.nbytes < 64 * 1024
    assert tex._ids.nbytes < tex.nbytes <= held


def test_materialised_rasters_are_read_only():
    tex = TownTexture(build_town(GridTownConfig(rows=2, cols=3)), 0.5)
    for raster in (tex.texture, tex.classes):
        with pytest.raises(ValueError):
            raster[0, 0] = 1


# ----------------------------------------------------------------------
# Resolution validation
# ----------------------------------------------------------------------

BAD_RESOLUTIONS = [math.inf, math.nan, -1, 0, True, "x", None]


@pytest.mark.parametrize("bad", BAD_RESOLUTIONS, ids=repr)
def test_town_texture_rejects_bad_resolution(bad):
    town = build_town(GridTownConfig(rows=2, cols=3))
    with pytest.raises(ValueError, match="texture resolution must be a finite number > 0"):
        TownTexture(town, bad)


@pytest.mark.parametrize("bad", BAD_RESOLUTIONS, ids=repr)
def test_builder_rejects_bad_resolution(bad):
    with pytest.raises(ValueError, match="texture resolution must be a finite number > 0"):
        SimulationBuilder(texture_resolution=bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1, True, "x"], ids=repr)
def test_spec_rejects_bad_resolution(bad):
    data = {
        "schema_version": 1,
        "injectors": {"none": []},
        "builder": {"texture_resolution": bad},
    }
    with pytest.raises(SpecError, match=r"spec.builder: texture resolution must be"):
        CampaignSpec.from_dict(data)


@pytest.mark.parametrize("good", [0.25, 1, np.float64(0.5)], ids=repr)
def test_good_resolutions_accepted(good):
    assert SimulationBuilder(texture_resolution=good).texture_resolution == good


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to overwrite digests without --regen")
    digests = compute_digests()
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_PATH}")
