"""Cold scene setup gate: the town texture raster against its reference.

A fresh process, worker or uncached spec pays for rasterising the town's
ground texture before its first frame.  ``TownTexture`` classifies each
road and junction on its own texel window and stamps each lane stripe
with one index write; the reference rasteriser
(``tests/sim/texture_reference.py``) tests every surface against every
texel and stamps stripes one scalar point at a time.  This gate times a
cold ``TownTexture(build_town(BENCH_TOWN))`` against the reference in
the same process, alternating the two, and fails if the current code is
less than :data:`SETUP_GATE` times faster.  Being a ratio of two runs on
one machine, the gate holds on any host.  It also records the bytes the
texture holds per texel (one palette id each, plus small tables); that
figure is recorded, not gated.

Results land in ``benchmarks/results/BENCH_scene_setup.json``.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from repro.sim.render import TownTexture
from repro.sim.town import build_town

from .sensor_bench import BENCH_TOWN, RESULTS_DIR, machine_fingerprint

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "sim"))
from texture_reference import reference_raster  # noqa: E402

SCENE_SETUP_RESULT_PATH = RESULTS_DIR / "BENCH_scene_setup.json"

#: Required cold-setup speedup over the reference rasteriser.
SETUP_GATE = 5.0
#: Alternating timing pairs; medians of each side are compared.
SETUP_TRIALS = 5
RESOLUTION = 0.25


def _time(build) -> float:
    start = time.perf_counter()
    build()
    return time.perf_counter() - start


def test_cold_scene_setup_gate(capsys):
    """Measure, persist, and gate the cold town-texture build."""
    from .conftest import emit

    tex = TownTexture(build_town(BENCH_TOWN), RESOLUTION)
    ref_texture, ref_classes = reference_raster(build_town(BENCH_TOWN), RESOLUTION)
    assert tex.texture.tobytes() == ref_texture.tobytes()
    assert tex.classes.tobytes() == ref_classes.tobytes()

    current, reference = [], []
    for _ in range(SETUP_TRIALS):
        current.append(_time(lambda: TownTexture(build_town(BENCH_TOWN), RESOLUTION)))
        reference.append(_time(lambda: reference_raster(build_town(BENCH_TOWN), RESOLUTION)))
    current_s = statistics.median(current)
    reference_s = statistics.median(reference)
    speedup = reference_s / current_s
    payload = {
        "machine": machine_fingerprint(),
        "town": f"{BENCH_TOWN.rows}x{BENCH_TOWN.cols}",
        "resolution_m": RESOLUTION,
        "texels": int(tex.classes.size),
        "texture_bytes": tex.nbytes,
        "bytes_per_texel": tex.nbytes / tex.classes.size,
        "trials": SETUP_TRIALS,
        "current_s": current_s,
        "reference_s": reference_s,
        "speedup": speedup,
        "gate": SETUP_GATE,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    SCENE_SETUP_RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    emit(
        capsys,
        "\n".join(
            [
                f"Cold scene setup ({payload['town']} town at {RESOLUTION} m, "
                f"{payload['texels']} texels, median of {SETUP_TRIALS})",
                f"  TownTexture : {current_s * 1e3:7.1f} ms, "
                f"{payload['bytes_per_texel']:.2f} bytes per texel",
                f"  reference   : {reference_s * 1e3:7.1f} ms  "
                f"({speedup:4.1f}x, gate >= {SETUP_GATE}x)",
                f"  written to {SCENE_SETUP_RESULT_PATH}",
            ]
        ),
    )
    assert speedup >= SETUP_GATE, (
        f"cold TownTexture must be >= {SETUP_GATE}x the reference "
        f"rasteriser, got {speedup:.2f}x"
    )
