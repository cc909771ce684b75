"""Tests for :mod:`repro.core.faults.data_faults` and the trigger machinery."""

import numpy as np
import pytest

from repro.core.faults import (
    INPUT_FAULT_REGISTRY,
    CameraFreeze,
    GaussianNoise,
    GPSFreezeFault,
    GPSNoiseFault,
    LidarDropoutFault,
    SaltAndPepper,
    SolidOcclusion,
    SpeedometerScaleFault,
    TransparentOcclusion,
    Trigger,
    WaterDrop,
    WeatherShiftFault,
    make_input_fault,
)
from repro.sim.sensors import SensorFrame
from repro.sim.town import GridTownConfig, build_grid_town
from repro.sim.world import World


def bundle(frame=0, seed=0, hw=(48, 64)):
    gen = np.random.default_rng(seed)
    return SensorFrame(
        frame=frame,
        image=gen.integers(0, 255, (hw[0], hw[1], 3), dtype=np.uint8),
        gps=(10.0, 20.0),
        speed=5.0,
        heading=0.1,
        lidar=np.full(9, 40.0),
    )


def bind(fault, seed=0):
    fault.reset()
    fault.bind(np.random.default_rng(seed))
    return fault


class TestTrigger:
    def test_defaults_always_fire(self):
        t = Trigger()
        rng = np.random.default_rng(0)
        assert all(t.fires(f, rng) for f in range(100))

    def test_window(self):
        t = Trigger(start_frame=10, end_frame=20)
        rng = np.random.default_rng(0)
        assert not t.fires(9, rng)
        assert t.fires(10, rng)
        assert t.fires(20, rng)
        assert not t.fires(21, rng)

    def test_probability(self):
        t = Trigger(probability=0.3)
        rng = np.random.default_rng(0)
        fires = sum(t.fires(f, rng) for f in range(2000))
        assert 450 <= fires <= 750

    def test_validation(self):
        with pytest.raises(ValueError):
            Trigger(start_frame=-1)
        with pytest.raises(ValueError):
            Trigger(start_frame=10, end_frame=5)
        with pytest.raises(ValueError):
            Trigger(probability=1.5)


class TestRegistry:
    def test_registry_matches_paper_lineup(self):
        assert set(INPUT_FAULT_REGISTRY) == {
            "gaussian", "s&p", "solid-occ", "transp-occ", "water-drop",
        }

    def test_factory_builds_each(self):
        for name in INPUT_FAULT_REGISTRY:
            fault = make_input_fault(name)
            assert fault.name == name

    def test_factory_unknown_name(self):
        with pytest.raises(KeyError, match="gaussian"):
            make_input_fault("blizzard")


class TestGaussianNoise:
    def test_changes_image_not_rest(self):
        fault = bind(GaussianNoise(sigma=0.1))
        b = bundle()
        original = b.image.copy()
        out = fault.apply(b, frame=0)
        assert not np.array_equal(out.image, original)
        assert out.gps == b.gps
        assert np.array_equal(b.image, original), "input bundle must not mutate"

    def test_noise_magnitude_scales(self):
        weak = bind(GaussianNoise(sigma=0.02), seed=1)
        strong = bind(GaussianNoise(sigma=0.3), seed=1)
        b = bundle()
        d_weak = np.abs(weak.apply(b, 0).image.astype(int) - b.image.astype(int)).mean()
        d_strong = np.abs(strong.apply(b, 0).image.astype(int) - b.image.astype(int)).mean()
        assert d_strong > d_weak * 3

    def test_trigger_respected(self):
        fault = bind(GaussianNoise(sigma=0.2, trigger=Trigger(start_frame=100)))
        b = bundle(frame=5)
        out = fault.apply(b, frame=5)
        assert np.array_equal(out.image, b.image)
        assert fault.log.frames == []

    def test_activation_logged(self):
        fault = bind(GaussianNoise(sigma=0.2))
        fault.apply(bundle(frame=7), frame=7)
        assert fault.log.frames == [7]

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNoise(sigma=-0.1)


class TestSaltAndPepper:
    def test_extreme_pixels_present(self):
        fault = bind(SaltAndPepper(density=0.2))
        out = fault.apply(bundle(), 0)
        assert (out.image == 0).any()
        assert (out.image == 255).any()

    def test_density_controls_fraction(self):
        fault = bind(SaltAndPepper(density=0.3))
        b = bundle()
        out = fault.apply(b, 0)
        changed = (out.image != b.image).any(axis=2).mean()
        assert 0.15 <= changed <= 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            SaltAndPepper(density=1.5)


class TestOcclusions:
    def test_solid_patch_is_persistent_across_frames(self):
        fault = bind(SolidOcclusion(size_frac=0.3))
        a = fault.apply(bundle(seed=1), 0)
        b = fault.apply(bundle(seed=2), 1)
        mask_a = np.all(a.image == (15, 12, 10), axis=2)
        mask_b = np.all(b.image == (15, 12, 10), axis=2)
        assert mask_a.sum() > 0
        assert np.array_equal(mask_a, mask_b), "occlusion must not move between frames"

    def test_solid_patch_moves_between_episodes(self):
        fault = SolidOcclusion(size_frac=0.3)
        bind(fault, seed=1)
        a = fault.apply(bundle(), 0)
        bind(fault, seed=2)  # new episode, new rng
        b = fault.apply(bundle(), 0)
        assert not np.array_equal(a.image, b.image)

    def test_solid_size_frac(self):
        fault = bind(SolidOcclusion(size_frac=0.5))
        out = fault.apply(bundle(), 0)
        frac = np.all(out.image == (15, 12, 10), axis=2).mean()
        assert 0.15 <= frac <= 0.35  # ~0.25 of the frame

    def test_transparent_blends(self):
        fault = bind(TransparentOcclusion(size_frac=0.4, alpha=0.5))
        b = bundle()
        out = fault.apply(b, 0)
        diff = (out.image.astype(int) - b.image.astype(int))
        assert (diff != 0).any()
        # Blending never saturates to the pure tint at alpha=0.5.
        assert not np.all(out.image == (200, 200, 205))

    def test_validation(self):
        with pytest.raises(ValueError):
            SolidOcclusion(size_frac=0.0)
        with pytest.raises(ValueError):
            TransparentOcclusion(alpha=0.0)


class TestWaterDrop:
    def test_droplets_change_local_regions(self):
        fault = bind(WaterDrop(n_drops=4, radius_frac=0.12))
        b = bundle()
        out = fault.apply(b, 0)
        changed = (out.image != b.image).any(axis=2)
        assert 0.01 < changed.mean() < 0.5

    def test_droplets_persist(self):
        fault = bind(WaterDrop(n_drops=3))
        a = fault.apply(bundle(seed=3), 0)
        b = fault.apply(bundle(seed=3), 1)
        assert np.array_equal(a.image, b.image)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaterDrop(n_drops=0)


class TestBundleCopies:
    """A firing hands on a copy of the bundle; only a fault that writes
    into the image pays for copying it."""

    def test_gaussian_firing_copies_no_image(self, monkeypatch):
        copies = []
        real_copy = SensorFrame.copy

        def spy(frame, share_image=False):
            copies.append(share_image)
            return real_copy(frame, share_image)

        monkeypatch.setattr(SensorFrame, "copy", spy)
        fault = bind(GaussianNoise(sigma=0.1))
        b = bundle()
        image, original = b.image, b.image.copy()
        out = fault.apply(b, frame=0)
        assert copies == [True]
        assert b.image is image and np.array_equal(image, original)
        assert out is not b and out.image is not image
        assert out.lidar is not b.lidar and np.array_equal(out.lidar, b.lidar)

    @pytest.mark.parametrize(
        "fault",
        [SaltAndPepper(), SolidOcclusion(), TransparentOcclusion(), WaterDrop()],
        ids=lambda f: f.name,
    )
    def test_in_place_faults_write_a_private_copy(self, fault):
        fault = bind(fault)
        b = bundle()
        original = b.image.copy()
        out = fault.apply(b, frame=0)
        assert out.image is not b.image
        assert not np.array_equal(out.image, original)
        assert np.array_equal(b.image, original), "the published image must not change"


class TestCameraFreeze:
    def test_replays_last_prefault_frame(self):
        fault = bind(CameraFreeze(trigger=Trigger(start_frame=2)))
        f0 = fault.apply(bundle(frame=0, seed=0), 0)
        f1 = fault.apply(bundle(frame=1, seed=1), 1)
        frozen = fault.apply(bundle(frame=2, seed=2), 2)
        assert np.array_equal(frozen.image, f1.image)
        later = fault.apply(bundle(frame=3, seed=3), 3)
        assert np.array_equal(later.image, f1.image)


class TestNonCameraFaults:
    def test_gps_noise_shifts_fix(self):
        fault = bind(GPSNoiseFault(sigma_m=5.0))
        out = fault.apply(bundle(), 0)
        assert out.gps != (10.0, 20.0)

    def test_gps_freeze_holds_fix(self):
        fault = bind(GPSFreezeFault(trigger=Trigger(start_frame=1)))
        fault.apply(bundle(frame=0), 0)
        b = bundle(frame=1)
        b.gps = (99.0, 99.0)
        out = fault.apply(b, 1)
        assert out.gps == (10.0, 20.0)

    def test_speed_scale(self):
        fault = bind(SpeedometerScaleFault(scale=0.5))
        out = fault.apply(bundle(), 0)
        assert out.speed == pytest.approx(2.5)

    def test_lidar_dropout(self):
        fault = bind(LidarDropoutFault(drop_prob=1.0, max_range=40.0))
        b = bundle()
        b.lidar[:] = 5.0
        out = fault.apply(b, 0)
        assert np.all(out.lidar == 40.0)

    def test_lidar_dropout_no_lidar_ok(self):
        fault = bind(LidarDropoutFault(drop_prob=1.0))
        b = bundle()
        b.lidar = None
        out = fault.apply(b, 0)
        assert out.lidar is None

    def test_weather_shift_mutates_world(self):
        town = build_grid_town(GridTownConfig(rows=2, cols=3))
        world = World(town, weather="ClearNoon")
        fault = bind(WeatherShiftFault("FoggyNoon"))
        fault.step(world, frame=1)
        assert world.weather.name == "FoggyNoon"
        assert fault.log.frames == [1]

    def test_weather_shift_fires_once_by_default(self):
        town = build_grid_town(GridTownConfig(rows=2, cols=3))
        world = World(town)
        fault = bind(WeatherShiftFault("Night"))
        for f in range(5):
            fault.step(world, frame=f)
        assert fault.log.frames == [1]

    def test_weather_shift_validates_name_eagerly(self):
        with pytest.raises(KeyError):
            WeatherShiftFault("Blizzard")
