"""View pipeline: normalization, augmentation, batch pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amimv import views as V
from amimv.errors import ContractError, ValidationError


GRAY_STATS = (np.array([0.5]), np.array([0.25]))


def gray_image(size=16, value=None, seed=0):
    """A batch of one grayscale image, [1,size,size] uint8."""
    if value is not None:
        return np.full((1, size, size), value, dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, 256, size=(1, size, size), dtype=np.uint8)


def identity_config(size):
    return V.AugmentConfig(
        jitter_probability=0.0,
        flip_probability=0.0,
        blur_probability=0.0,
        crop_scale=(1.0, 1.0),
        crop_aspect=(1.0, 1.0),
        crop_output=size,
    )


class TestNormalizeView:
    def test_constant_at_mean_is_zero(self):
        stats = (np.array([128 / 255]), np.array([1e-6]))
        out = V.normalize_view(gray_image(value=128), stats, 16)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_pixel_arithmetic(self):
        img = np.full((1, 8, 8), 191, dtype=np.uint8)  # 191/255 ~ 0.749
        out = V.normalize_view(img, GRAY_STATS, 8)
        np.testing.assert_allclose(out.data, (191 / 255 - 0.5) / 0.25, atol=1e-6)

    def test_train_split_standardized(self):
        # statistics oracle: standardizing with the split's own stats
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(64, 12, 12), dtype=np.uint8)
        x = images.astype(np.float64) / 255.0
        stats = (np.array([x.mean()]), np.array([x.std()]))
        outs = V.normalize_view(images, stats, 12).data
        assert abs(outs.mean()) < 1e-3
        assert abs(outs.std() - 1.0) < 1e-2

    def test_shape_chw(self):
        out = V.normalize_view(gray_image(16), GRAY_STATS, 10).data[0]
        assert out.shape == (1, 10, 10)


class TestGaussianKernel:
    """The 1-D weights of the separable blur; its 2-D kernel is their outer product."""

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 3.7])
    def test_sums_to_one(self, sigma):
        assert V.gaussian_weights(sigma, 3).sum() == pytest.approx(1.0)

    def test_near_delta_at_tiny_sigma(self):
        w = V.gaussian_weights(0.1, 3)
        assert np.outer(w, w)[1, 1] > 0.999

    def test_reflection_symmetric(self):
        w = V.gaussian_weights(0.8, 5)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValidationError):
            V.AugmentConfig(blur_kernel=4)

    @pytest.mark.parametrize("sigma", [(0.0, 0.0), (0.0, 1.0), (-0.5, 1.0)])
    def test_sigma_range_must_start_above_zero(self, sigma):
        with pytest.raises(ValidationError, match="blur_sigma"):
            V.AugmentConfig(blur_sigma=sigma)


@pytest.mark.parametrize(
    "field,value",
    [
        ("blur_kernel", -1),
        ("blur_kernel", 0),
        ("blur_kernel", -3),
        ("crop_aspect", (0.0, 1.0)),
        ("crop_aspect", (-1.0, 1.0)),
        ("crop_scale", (-1.0, 1.0)),
        ("crop_scale", (0.0, 1.0)),
        ("crop_scale", (0.5, 1.5)),
        ("crop_scale", (float("nan"), 1.0)),
        ("crop_scale", (0.8, 0.5)),  # unordered ranges name their field
        ("crop_aspect", (1.2, 0.9)),
        ("blur_sigma", (1.0, 0.5)),
    ],
)
def test_augment_config_rejects_out_of_range(field, value):
    with pytest.raises(ValidationError, match=field):
        V.AugmentConfig(**{field: value})


class TestAugmentView:
    def test_identity_configuration(self):
        img = gray_image(16, seed=3)
        cfg = identity_config(16)
        rngs = V.RngStream(0).items(1, 0, 0, 1)
        out = V.augment_view(img, GRAY_STATS, cfg, rngs)
        expected = V.normalize_view(img, GRAY_STATS, 16)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_keyed_determinism(self):
        img = gray_image(16, seed=4)
        cfg = V.AugmentConfig(crop_output=16)
        stream = V.RngStream(42)
        a = V.augment_view(img, GRAY_STATS, cfg, [stream.generator(1, 2, 3, 1)])
        b = V.augment_view(img, GRAY_STATS, cfg, [stream.generator(1, 2, 3, 1)])
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_keys_differ(self):
        img = gray_image(16, seed=4)
        cfg = V.AugmentConfig(crop_output=16)
        stream = V.RngStream(42)
        a = V.augment_view(img, GRAY_STATS, cfg, [stream.generator(1, 2, 3, 1)])
        b = V.augment_view(img, GRAY_STATS, cfg, [stream.generator(1, 2, 4, 1)])
        assert not np.array_equal(a.data, b.data)

    def test_double_flip_is_identity(self):
        # pipeline oracle with blur and jitter disabled: flipping the
        # already-flipped output reproduces the unflipped pipeline
        img = gray_image(16, seed=5)
        base = identity_config(16)
        flipped_cfg = V.AugmentConfig(**{**base.__dict__, "flip_probability": 1.0})
        rng = V.RngStream(7)
        out_plain = V.augment_view(img, GRAY_STATS, base, rng.items(1, 0, 0, 1))
        out_flip = V.augment_view(img, GRAY_STATS, flipped_cfg, rng.items(1, 0, 0, 1))
        np.testing.assert_allclose(out_flip.data[..., ::-1], out_plain.data, atol=1e-6)

    def test_output_shape_matches_config(self):
        img = gray_image(28, seed=6)
        cfg = V.AugmentConfig(crop_output=20)
        out = V.augment_view(img, GRAY_STATS, cfg, V.RngStream(0).items(1, 0, 0, 1)).data[0]
        assert out.shape == (1, 20, 20)

    def test_generator_count_must_match_batch(self):
        cfg = V.AugmentConfig(crop_output=16)
        images = np.zeros((2, 16, 16), np.uint8)
        with pytest.raises(ContractError):
            V.augment_view(images, GRAY_STATS, cfg, V.RngStream(0).items(1, 0, 0, 1))

    @given(
        n=st.integers(1, 6),
        channels=st.sampled_from([1, 3]),
        probs=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_match_single_image_calls(self, n, channels, probs, seed):
        # each image's view depends only on its own generator, not on the batch
        rng = np.random.default_rng(seed)
        shape = (n, 12, 12) if channels == 1 else (n, 12, 12, 3)
        images = rng.integers(0, 256, size=shape, dtype=np.uint8)
        stats = (np.full(channels, 0.5), np.full(channels, 0.25))
        cfg = V.AugmentConfig(
            crop_output=10, jitter_probability=probs[0], flip_probability=probs[1],
            blur_probability=probs[2], jitter_saturation=0.5, jitter_hue=0.2,
        )
        stream = V.RngStream(seed)
        batch = V.augment_view(images, stats, cfg, stream.items(n, 0, 0, 1)).data
        assert batch.shape == (n, channels, 10, 10)
        for i, item_rng in enumerate(stream.items(n, 0, 0, 1)):
            single = V.augment_view(images[i : i + 1], stats, cfg, [item_rng]).data
            assert batch[i : i + 1].tobytes() == single.tobytes()

    def test_grayscale_hue_saturation_noop(self):
        img = (gray_image(12, seed=8).astype(np.float64) / 255.0)[..., None]
        np.testing.assert_array_equal(V.adjust_hue(img, 0.01), img)
        np.testing.assert_array_equal(V.adjust_saturation(img, 1.1), img)


class TestColorJitterPrimitives:
    def test_zero_magnitude_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0.05, 0.95, size=(1, 8, 8, 3))
        np.testing.assert_allclose(V.adjust_brightness(img, 1.0), img, atol=1e-6)
        np.testing.assert_allclose(V.adjust_contrast(img, 1.0), img, atol=1e-6)
        np.testing.assert_allclose(V.adjust_saturation(img, 1.0), img, atol=1e-6)
        np.testing.assert_allclose(V.adjust_hue(img, 0.0), img, atol=1e-6)

    def test_hsv_round_trip(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, size=(16, 16, 3))
        back = V._hsv_to_rgb(V._rgb_to_hsv(img))
        np.testing.assert_allclose(back, img, atol=1e-10)


class TestResize:
    def test_identity_same_size(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(1, 9, 9, 1))
        np.testing.assert_array_equal(V.bilinear_resize(img, [[0, 0, 9, 9]], 9, 9), img)

    def test_constant_preserved(self):
        img = np.full((1, 8, 8, 1), 0.37)
        np.testing.assert_allclose(V.bilinear_resize(img, [[0, 0, 8, 8]], 13, 5), 0.37, atol=1e-12)


class TestBatch:
    def _images(self, n, size=12, seed=0):
        return np.random.default_rng(seed).integers(0, 256, size=(n, size, size), dtype=np.uint8)

    def test_n2_pairing_is_swap(self):
        batch = V.build_amimv_batch(
            self._images(2), GRAY_STATS, V.AugmentConfig(crop_output=12), V.RngStream(0)
        )
        np.testing.assert_array_equal(batch.pairing, [1, 0])

    @given(n=st.integers(2, 12), seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_derangement_has_no_fixed_points(self, n, seed):
        perm = V.random_derangement(n, V.RngStream(seed).generator(0, 0, -1, 0))
        assert not np.any(perm == np.arange(n))

    def test_pairing_deterministic(self):
        imgs = self._images(8)
        cfg = V.AugmentConfig(crop_output=12)
        a = V.build_amimv_batch(imgs, GRAY_STATS, cfg, V.RngStream(11), epoch=3, batch=2)
        b = V.build_amimv_batch(imgs, GRAY_STATS, cfg, V.RngStream(11), epoch=3, batch=2)
        np.testing.assert_array_equal(a.pairing, b.pairing)
        np.testing.assert_array_equal(a.v1a.data, b.v1a.data)

    def test_counterpart_views_follow_pairing(self):
        imgs = self._images(4)
        cfg = identity_config(12)
        batch = V.build_amimv_batch(imgs, GRAY_STATS, cfg, V.RngStream(1))
        expected = V.normalize_view(imgs[batch.pairing], GRAY_STATS, 12)
        for i in range(4):
            np.testing.assert_allclose(batch.v2n.data[i], expected.data[i], atol=1e-6)

    def test_singleton_batch_rejected(self):
        with pytest.raises(ValidationError):
            V.build_amimv_batch(self._images(1), GRAY_STATS, V.AugmentConfig(), V.RngStream(0))

    def test_view_shapes_agree(self):
        cfg = V.AugmentConfig(crop_output=10)
        batch = V.build_amimv_batch(self._images(5), GRAY_STATS, cfg, V.RngStream(2))
        assert batch.v1n.shape == batch.v1a.shape == batch.v2n.shape == batch.v2a.shape == (5, 1, 10, 10)
