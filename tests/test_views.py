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

    @pytest.mark.parametrize("size,k", [(28, 3), (5, 3), (3, 7), (1, 3), (6, 1)])
    def test_blur_matrix_matches_padded_blur(self, size, k):
        # reference: shift-and-add over a reflect-padded copy, rows then columns
        rng = np.random.default_rng(size * k)
        x = rng.uniform(size=(4, size, size, 2))
        weights = V.gaussian_weights(rng.uniform(0.3, 3.0, 4), k)
        w, r = weights[:, :, None, None, None], k // 2
        padded = np.pad(x, ((0, 0), (r, r), (0, 0), (0, 0)), mode="reflect")
        ref = sum(w[:, i] * padded[:, i : i + size] for i in range(k))
        padded = np.pad(ref, ((0, 0), (0, 0), (r, r), (0, 0)), mode="reflect")
        ref = sum(w[:, i] * padded[:, :, i : i + size] for i in range(k))
        m = V.blur_matrix(weights, size)
        np.testing.assert_allclose(V.apply_separable(x, m, m), ref, rtol=0, atol=1e-14)

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
        ("jitter_probability", 1.5),
        ("flip_probability", -0.1),
        ("blur_probability", float("nan")),
    ],
)
def test_augment_config_rejects_out_of_range(field, value):
    with pytest.raises(ValidationError, match=field):
        V.AugmentConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("field", ["jitter_brightness", "jitter_contrast", "jitter_saturation", "jitter_hue"])
def test_augment_config_rejects_bad_jitter_magnitude(field, value):
    # a NaN magnitude would turn every jittered view into NaN
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
        a = V.augment_view(img, GRAY_STATS, cfg, V.RngStream(42).items(4, 1, 2, 1)[3:])
        b = V.augment_view(img, GRAY_STATS, cfg, V.RngStream(42).items(4, 1, 2, 1)[3:])
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_keys_differ(self):
        img = gray_image(16, seed=4)
        cfg = V.AugmentConfig(crop_output=16)
        keys = V.RngStream(42).items(5, 1, 2, 1)
        a = V.augment_view(img, GRAY_STATS, cfg, keys[3:4])
        b = V.augment_view(img, GRAY_STATS, cfg, keys[4:5])
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
        # each image's view depends only on its own key, not on the batch
        rng = np.random.default_rng(seed)
        shape = (n, 12, 12) if channels == 1 else (n, 12, 12, 3)
        images = rng.integers(0, 256, size=shape, dtype=np.uint8)
        stats = (np.full(channels, 0.5), np.full(channels, 0.25))
        cfg = V.AugmentConfig(
            crop_output=10, jitter_probability=probs[0], flip_probability=probs[1],
            blur_probability=probs[2], jitter_saturation=0.5, jitter_hue=0.2,
        )
        keys = V.RngStream(seed).items(n, 0, 0, 1)
        batch = V.augment_view(images, stats, cfg, keys).data
        assert batch.shape == (n, channels, 10, 10)
        for i in range(n):
            single = V.augment_view(images[i : i + 1], stats, cfg, keys[i : i + 1]).data
            assert batch[i : i + 1].tobytes() == single.tobytes()

    @pytest.mark.parametrize("shape,aspect", [((12, 16), 4.0), ((16, 12), 0.25)])
    def test_crop_falls_back_to_centre_square(self, shape, aspect):
        # no try fits at scale 1 and this aspect: the crop is the centre
        # 12x12 square, resampled at its own size (the identity)
        images = np.random.default_rng(9).integers(0, 256, size=(3, *shape), dtype=np.uint8)
        cfg = V.AugmentConfig(**{**identity_config(12).__dict__, "crop_aspect": (aspect, aspect)})
        out = V.augment_view(images, GRAY_STATS, cfg, V.RngStream(0).items(3, 0, 0, 1))
        top, left = (shape[0] - 12) // 2, (shape[1] - 12) // 2
        expected = V.normalize_view(images[:, top : top + 12, left : left + 12], GRAY_STATS, 12)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_grayscale_hue_saturation_noop(self):
        img = (gray_image(12, seed=8).astype(np.float64) / 255.0)[..., None]
        np.testing.assert_array_equal(V.adjust_hue(img, 0.01), img)
        np.testing.assert_array_equal(V.adjust_saturation(img, 1.1), img)


# pure-Python reference of the counter hash: SplitMix64 on Python ints
MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_key(seed, epoch, batch, item, branch):
    state = 0
    for word in (seed, epoch, batch, item, branch):
        state = ref_mix(((state ^ (word & MASK)) + GAMMA) & MASK)
    return state


def ref_uniform(key, slot):
    return (ref_mix((key + (slot + 1) * GAMMA) & MASK) >> 11) * 2.0**-53


class TestCounterHash:
    def test_known_answers(self):
        # slots from key 0 are the published SplitMix64 outputs from state 0
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        bits = V.uniforms(np.zeros(1, np.uint64), 3)[0] * 2.0**53
        assert bits.tolist() == [float(e >> 11) for e in expected]
        # the key of seed 0, epoch 0, batch 0, item 0, branch 1 fixes every view
        assert ref_key(0, 0, 0, 0, 1) == V.RngStream(0).items(1, 0, 0, 1)[0] == 11949023478716900198

    @pytest.mark.parametrize(
        "seed,epoch,batch,branch",
        [(0, 0, 0, 1), (12345, 3, 7, 2), (2**63 + 5, 1, -1, 0), (-4, 50, 2**40, 1)],
    )
    def test_keys_and_uniforms_match_reference(self, seed, epoch, batch, branch):
        keys = V.RngStream(seed).items(6, epoch, batch, branch)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [ref_key(seed, epoch, batch, i, branch) for i in range(6)]
        u = V.uniforms(keys, 5)
        assert u.tolist() == [[ref_uniform(k, j) for j in range(5)] for k in keys.tolist()]

    def test_keys_differ_across_items_and_branches(self):
        stream = V.RngStream(1)
        keys = np.concatenate([stream.items(512, 2, 3, b) for b in (1, 2)])
        assert len(np.unique(keys)) == keys.size

    def test_uniformity(self):
        u = V.uniforms(V.RngStream(3).items(1000, 0, 0, 1), 1000)
        assert u.min() >= 0.0 and u.max() < 1.0
        flat = u.ravel()
        # 1e6 draws: the standard error of the mean is 2.9e-4, of the variance 7.5e-5
        assert abs(flat.mean() - 0.5) < 1.5e-3
        assert abs(flat.var() - 1 / 12) < 4e-4
        counts = np.bincount((flat * 100).astype(int), minlength=100)
        chi2 = ((counts - 1e4) ** 2 / 1e4).sum()
        assert chi2 < 99 + 6 * np.sqrt(2 * 99)  # 99 degrees of freedom
        # neighbouring slots and neighbouring items are uncorrelated
        assert abs(np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]) < 5e-3
        assert abs(np.corrcoef(u[:-1].ravel(), u[1:].ravel())[0, 1]) < 5e-3


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

    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_four_tap_gather(self, channels):
        # reference: gather the four half-pixel-center taps of each output pixel
        rng = np.random.default_rng(channels)
        x = rng.uniform(size=(16, 20, 24, channels))
        boxes = np.stack(
            [rng.integers(0, 8, 16), rng.integers(0, 8, 16), rng.integers(1, 13, 16), rng.integers(1, 17, 16)], 1
        )

        def taps(start, extent, out):
            pos = (np.arange(out) + 0.5) * extent / out - 0.5
            i0 = np.clip(np.floor(pos).astype(int), 0, extent - 1)
            return start + i0, start + np.minimum(i0 + 1, extent - 1), np.clip(pos - i0, 0.0, 1.0)

        top, left, h, w = boxes.T[:, :, None]
        y0, y1, wy = taps(top, h, 11)
        x0, x1, wx = taps(left, w, 9)
        n = np.arange(16)[:, None, None]
        y0, y1, x0, x1 = y0[:, :, None], y1[:, :, None], x0[:, None], x1[:, None]
        wy, wx = wy[:, :, None, None], wx[:, None, :, None]
        upper = x[n, y0, x0] * (1 - wx) + x[n, y0, x1] * wx
        lower = x[n, y1, x0] * (1 - wx) + x[n, y1, x1] * wx
        expected = upper * (1 - wy) + lower * wy
        np.testing.assert_allclose(V.bilinear_resize(x, boxes, 11, 9), expected, rtol=0, atol=1e-14)

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
        perm = V.random_derangement(n, V.RngStream(seed), 0, 0)
        assert not np.any(perm == np.arange(n))

    def test_derangement_uniform_over_the_nine_of_four(self):
        stream = V.RngStream(5)
        draws = [tuple(V.random_derangement(4, stream, epoch, 0)) for epoch in range(3600)]
        found, counts = np.unique(draws, axis=0, return_counts=True)
        assert len(found) == 9 and not np.any(found == np.arange(4))
        chi2 = ((counts - 400) ** 2 / 400).sum()
        assert chi2 < 8 + 6 * np.sqrt(2 * 8)  # 8 degrees of freedom

    @pytest.mark.parametrize("n", [1, 2, 7, 512])
    def test_permutation_is_a_permutation(self, n):
        stream = V.RngStream(9)
        perm = stream.permutation(n, 3, -2, 0)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        np.testing.assert_array_equal(perm, stream.permutation(n, 3, -2, 0))
        if n == 512:
            assert not np.array_equal(perm, stream.permutation(n, 4, -2, 0))

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


    @staticmethod
    def _count_philox(monkeypatch) -> list:
        made = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(a) or philox(*a, **k))
        return made

    def test_one_generator_per_batch(self, monkeypatch):
        # the views and the derangement all draw from the counter hash
        made = self._count_philox(monkeypatch)
        V.build_amimv_batch(self._images(64), GRAY_STATS, V.AugmentConfig(crop_output=12), V.RngStream(0))
        assert made == []

    def test_no_generator_in_an_epoch_of_pretraining(self, monkeypatch, tmp_path):
        from amimv.trainer import RunConfig, pretrain

        made = self._count_philox(monkeypatch)
        config = RunConfig(
            dataset="synthetic:C=2,counts=20:20,size=8", out_dir=str(tmp_path), epochs=1, batch_size=8
        )
        pretrain(config)
        assert made == []
