"""Encoder pair: init, forward, EMA, and checkpoint round-trips."""

import hashlib
import json

import numpy as np
import pytest

from amimv import model as M
from amimv import tensor as T
from amimv.errors import DimensionError, ValidationError


CFG = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)


def batch(n=4, seed=0, cfg=CFG):
    rng = np.random.default_rng(seed)
    return T.Tensor(
        rng.normal(size=(n, cfg.input_channels, cfg.input_size, cfg.input_size)).astype(np.float32)
    )


class TestInitPair:
    def test_k_equals_q_at_init(self):
        pair = M.init_pair(CFG, seed=0)
        for name, q in pair.q_params.items():
            np.testing.assert_array_equal(q.data, pair.k_params[name].data)
            assert not pair.k_params[name].requires_grad

    def test_same_seed_identical(self):
        a = M.init_pair(CFG, seed=3)
        b = M.init_pair(CFG, seed=3)
        for name in a.q_params:
            np.testing.assert_array_equal(a.q_params[name].data, b.q_params[name].data)

    def test_different_seeds_differ(self):
        a = M.init_pair(CFG, seed=1)
        b = M.init_pair(CFG, seed=2)
        assert any(
            not np.array_equal(a.q_params[n].data, b.q_params[n].data) for n in a.q_params
        )

    def test_bad_arch(self):
        with pytest.raises(ValidationError):
            M.EncoderConfig(arch="resnet50")

    def test_input_size_divisibility(self):
        with pytest.raises(ValidationError):
            M.EncoderConfig(arch="tiny", input_size=30)

    @pytest.mark.parametrize("field", ["input_size", "input_channels", "projector_hidden", "projector_out"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_dimension_below_one_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be >= 1, got {value}"):
            M.EncoderConfig(arch="tiny", **{field: value})


# blake2b of param_specs over both archs, 1 and 3 channels, the smallest and two larger legal input sizes,
# and the default and a (7, 5) projector: the names, shapes and order that drive the init draws and the
# checkpoint layout. The golden manifests in test_trainer.py pin only tiny@16 and small_residual@32.
_GOLDEN_PARAM_SPECS = (
    "412cf4cbb18eceb0cbb00ad35dba3821d7f20a9c6d1728bdf1f9fe972bf1d8f5"
    "ececa748359e4c907a0e6caf12e495877b87880c5737a2ffc0c164ef0b2b4900"
)


class TestParamSpecs:
    def test_param_specs_digest(self):
        rows = []
        for arch, sizes in (("tiny", (4, 28, 64)), ("small_residual", (16, 32, 64))):
            for c in (1, 3):
                for s in sizes:
                    for h, o in ((512, 128), (7, 5)):
                        cfg = M.EncoderConfig(arch, c, s, projector_hidden=h, projector_out=o)
                        rows.append([arch, c, s, h, o, M.param_specs(cfg)])
        assert hashlib.blake2b(json.dumps(rows).encode()).hexdigest() == _GOLDEN_PARAM_SPECS

    def test_feature_dim_and_input_divisor(self):
        assert {a: M.EncoderConfig(a, input_size=32).feature_dim for a in M.INPUT_DIVISOR} == {
            "tiny": 64, "small_residual": 256,
        }
        assert M.INPUT_DIVISOR == {"tiny": 4, "small_residual": 16}


class TestEncode:
    def test_projection_unit_norm(self):
        pair = M.init_pair(CFG, seed=0)
        _, proj = M.encode(pair.q_params, batch(), CFG)
        np.testing.assert_allclose(np.linalg.norm(proj.data, axis=1), 1.0, atol=1e-5)

    def test_output_shapes(self):
        pair = M.init_pair(CFG, seed=0)
        feats, proj = M.encode(pair.q_params, batch(n=6), CFG)
        assert feats.shape == (6, 64)
        assert proj.shape == (6, 128)

    def test_duplicate_rows_duplicate_outputs(self):
        pair = M.init_pair(CFG, seed=0)
        x = batch(n=2).data
        x[1] = x[0]
        feats, proj = M.encode(pair.q_params, T.Tensor(x), CFG)
        np.testing.assert_array_equal(feats.data[0], feats.data[1])
        np.testing.assert_array_equal(proj.data[0], proj.data[1])

    def test_pure_given_params(self):
        pair = M.init_pair(CFG, seed=0)
        x = batch()
        a, _ = M.encode(pair.q_params, x, CFG)
        b, _ = M.encode(pair.q_params, x, CFG)
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch(self):
        pair = M.init_pair(CFG, seed=0)
        with pytest.raises(DimensionError):
            M.encode(pair.q_params, T.Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)), CFG)

    def test_small_residual_forward(self):
        cfg = M.EncoderConfig(arch="small_residual", input_channels=3, input_size=32)
        pair = M.init_pair(cfg, seed=0)
        feats, proj = M.encode(pair.q_params, batch(n=2, cfg=cfg), cfg)
        assert feats.shape == (2, 256)
        assert proj.shape == (2, 128)

    @pytest.mark.parametrize("arch,size", [("tiny", 28), ("small_residual", 32)])
    def test_no_grad_pass_gives_the_recorded_bytes(self, arch, size):
        """The key passes and feature extraction run the encoder unrecorded; its features and projections
        have the bytes of the same call recorded on a tape. 16 images put several squares slices in every
        group norm."""
        cfg = M.EncoderConfig(arch=arch, input_channels=3, input_size=size)
        pair = M.init_pair(cfg, seed=3)
        x = batch(n=16, seed=4, cfg=cfg)
        with T.no_grad():
            unrecorded = M.encode(pair.q_params, x, cfg)
        with T.Tape() as tape:
            recorded = M.encode(pair.q_params, x, cfg)
        assert tape.records
        for got, want in zip(unrecorded, recorded):
            assert got.record is None and want.record is not None
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got.data, want.data)


class TestEmaUpdate:
    def test_m_one_freezes_k(self):
        pair = M.init_pair(CFG, seed=0, momentum=1.0)
        before = {n: t.data.copy() for n, t in pair.k_params.items()}
        for t in pair.q_params.values():
            t.data = t.data + 1.0
        M.ema_update(pair)
        for n in before:
            np.testing.assert_array_equal(pair.k_params[n].data, before[n])

    def test_m_zero_copies_q(self):
        pair = M.init_pair(CFG, seed=0, momentum=0.0)
        for t in pair.q_params.values():
            t.data = t.data + 0.5
        M.ema_update(pair)
        for n, q in pair.q_params.items():
            np.testing.assert_array_equal(pair.k_params[n].data, q.data)

    def test_scalar_convex_combination(self):
        pair = M.init_pair(CFG, seed=0, momentum=0.99)
        name = "feat.b"
        pair.k_params[name].data = np.zeros_like(pair.k_params[name].data)
        pair.q_params[name].data = np.ones_like(pair.q_params[name].data)
        M.ema_update(pair)
        np.testing.assert_allclose(pair.k_params[name].data, 0.01, atol=1e-7)

    def test_elementwise_formula(self):
        pair = M.init_pair(CFG, seed=4, momentum=0.9)
        for t in pair.q_params.values():
            t.data = t.data + np.float32(0.25)
        expect = {
            n: 0.9 * pair.k_params[n].data + 0.1 * pair.q_params[n].data for n in pair.k_params
        }
        M.ema_update(pair)
        for n in expect:
            np.testing.assert_allclose(pair.k_params[n].data, expect[n], atol=1e-7)

    def test_k_stays_in_convex_hull_scalar(self):
        pair = M.init_pair(CFG, seed=0, momentum=0.7)
        name = "feat.b"
        pair.k_params[name].data = np.zeros_like(pair.k_params[name].data)
        history = [0.0]
        q_vals = [1.0, -2.0, 0.5]
        for qv in q_vals:
            pair.q_params[name].data = np.full_like(pair.q_params[name].data, qv)
            M.ema_update(pair)
            k = float(pair.k_params[name].data[0])
            lo = min(history + q_vals)
            hi = max(history + q_vals)
            assert lo - 1e-6 <= k <= hi + 1e-6
            history.append(k)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        pair = M.init_pair(CFG, seed=9, momentum=0.95)
        pair.step = 123
        M.ema_update(pair)  # make k differ from q
        M.save_checkpoint(pair, tmp_path)
        loaded = M.load_checkpoint(tmp_path)
        assert loaded.momentum == 0.95
        assert loaded.step == 123
        assert loaded.config == pair.config
        for n in pair.q_params:
            np.testing.assert_array_equal(loaded.q_params[n].data, pair.q_params[n].data)
            np.testing.assert_array_equal(loaded.k_params[n].data, pair.k_params[n].data)

    def test_missing_digest_rejected(self, tmp_path):
        M.save_checkpoint(M.init_pair(CFG, seed=9), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["blob_blake2b"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="digest"):
            M.load_checkpoint(tmp_path)

    def test_blob_bytes_stable(self, tmp_path):
        pair = M.init_pair(CFG, seed=9)
        M.save_checkpoint(pair, tmp_path / "a")
        M.save_checkpoint(pair, tmp_path / "b")
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
            tmp_path / "b" / "checkpoint.bin"
        ).read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("params,encoder", [("q_params", "query"), ("k_params", "key")])
    def test_non_finite_weight_rejected_by_name(self, tmp_path, value, params, encoder):
        pair = M.init_pair(CFG, seed=9)
        getattr(pair, params)["gn2.beta"].data[3] = value
        M.save_checkpoint(pair, tmp_path)
        with pytest.raises(ValidationError, match=f"{encoder} parameter 'gn2.beta' is not finite"):
            M.load_checkpoint(tmp_path)
