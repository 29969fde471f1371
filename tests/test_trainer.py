"""Schedules, optimizers, and the pretraining loop."""

import csv
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from amimv import model as M
from amimv import tensor as T
from amimv import trainer as TR
from amimv.cli import _parse_overrides
from amimv.datasets import make_synthetic_longtail
from amimv.errors import ContractError, ValidationError
from amimv.tensor import Tensor


class TestSchedule:
    def sched(self, base=0.375, total=1000):
        return TR.Schedule(base_lr=base, total_steps=total)

    def test_starts_at_warmup_start(self):
        assert TR.lr_at(0, self.sched()) == 1e-4

    def test_batch_scaling_rule(self):
        assert TR.base_lr_for_batch(128) == pytest.approx(0.375, abs=1e-12)
        assert TR.base_lr_for_batch(256) == pytest.approx(0.75, abs=1e-12)

    def test_warmup_end_hits_base(self):
        s = self.sched()
        assert abs(TR.lr_at(s.warmup_steps, s) - s.base_lr) <= 1e-12

    def test_cosine_midpoint_half_base(self):
        s = self.sched(total=1000)
        w = s.warmup_steps
        mid = w + (s.total_steps - w) // 2
        assert TR.lr_at(mid, s) == pytest.approx(s.base_lr / 2, abs=1e-12)

    def test_final_step_zero(self):
        s = self.sched()
        assert TR.lr_at(s.total_steps, s) == pytest.approx(0.0, abs=1e-15)

    def test_continuity_at_warmup_joint(self):
        s = self.sched(total=730)
        w = s.warmup_steps
        assert abs(TR.lr_at(w, s) - TR.lr_at(w - 1, s)) < 2 * s.base_lr / w

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            TR.lr_at(-1, self.sched())
        with pytest.raises(ContractError):
            TR.lr_at(1001, self.sched(total=1000))


def one_param(value):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    return {"p": p}


class TestSgdStep:
    def test_zero_grad_no_change(self):
        params = one_param(1.5)
        params["p"].grad = None
        TR.sgd_step(params, TR.OptimState(), lr=0.1)
        assert params["p"].data[0] == np.float32(1.5)

    def test_plain_step(self):
        params = one_param(1.0)
        params["p"].grad = np.array([1.0], dtype=np.float32)
        TR.sgd_step(params, TR.OptimState(momentum=0.0), lr=0.1)
        assert params["p"].data[0] == pytest.approx(0.9)

    def test_momentum_recurrence(self):
        # hand-rolled: v1=1, p=-0.1; v2=0.9+1=1.9, p=-0.1-0.19=-0.29
        params = one_param(0.0)
        state = TR.OptimState(momentum=0.9)
        for _ in range(2):
            params["p"].grad = np.array([1.0], dtype=np.float32)
            TR.sgd_step(params, state, lr=0.1)
        assert params["p"].data[0] == pytest.approx(-0.29, abs=1e-6)


class TestConfig:
    def test_unknown_key_listed(self):
        with pytest.raises(ValidationError, match="foo"):
            TR.config_from_dict({"foo": 1})

    def test_override_coercion(self):
        cfg = TR.config_from_dict({}, {"epochs": "7", "tau": "0.3", "mode": "simclr_baseline"})
        assert cfg.epochs == 7 and cfg.tau == 0.3 and cfg.mode == "simclr_baseline"

    def test_amimv_needs_two(self):
        with pytest.raises(ValidationError):
            TR.config_from_dict({"batch_size": 1})

    @pytest.mark.parametrize(
        "raw, value",
        [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
    )
    def test_boolean_spellings(self, raw, value):
        cfg = TR.config_from_dict({}, {"standardize_augmented": raw})
        assert cfg.standardize_augmented is value

    def test_range_edges_accepted(self):
        cfg = TR.config_from_dict(
            {}, {"crop_scale": "1:1", "warmup_fraction": "0", "base_lr": "0", "seed": "0"}
        )
        assert cfg.crop_scale == (1.0, 1.0) and cfg.base_lr == 0.0

    @pytest.mark.parametrize("raw", ["flase", "", "on", "2"])
    def test_boolean_typo_rejected(self, raw):
        with pytest.raises(ValidationError, match="standardize_augmented"):
            TR.config_from_dict({}, {"standardize_augmented": raw})

    @pytest.mark.parametrize("epochs", [[0], [1, 3], [-1]])
    def test_snapshot_epochs_outside_the_run_rejected(self, epochs):
        with pytest.raises(ValidationError, match=r"snapshot_epochs must lie in \[1, epochs=2\]"):
            TR.RunConfig(epochs=2, snapshot_epochs=epochs)

    def test_snapshot_epochs_edges_accepted(self):
        assert TR.RunConfig(epochs=2, snapshot_epochs=[1, 2]).snapshot_epochs == [1, 2]

    def test_unknown_arch_rejected(self):
        # before any dataset is resolved, and by name rather than as a missing divisor
        with pytest.raises(ValidationError, match="unknown arch 'resnet'"):
            TR.config_from_dict({}, {"arch": "resnet"})


# CLI strings over every setting: valid, boundary and malformed spellings of each kind
_CLI_STRINGS = [
    "", " ", "0", "1", "-1", "2", "7", "64", "28", "30", "1_000", " 7 ", "3.0", "0.5", "1.5", "-0.1", "1e-4",
    "1e400", "nan", "inf", "-inf", "9223372036854775807", "true", "YES", "False", "no", "on", "flase", "1:1",
    "0:1", "1:2", "0.2:1", "0.8:0.5", "-1:-0.5", "1:2:3", "1:", ":1", "a", "a:b", "amimv", "simclr_baseline",
    "tiny", "small_residual", "resnet", "before", "after", "mean_norm", "bogus",
]
# JSON values of every JSON type, over every setting
_JSON_VALUES = [
    None, True, False, 0, 1, -1, 2, 7, 64, 2**63 - 1, 0.0, 0.5, 1.0, 2.0, 1.5, -0.5, 1e-4,
    float("nan"), float("inf"), float("-inf"), "", "x", "1", "1:1", "YES", "0.2:1", "amimv",
    [], [1], [1, 2], [2, 1], [1.0, 1.0], [0.5, 1], [0.2, 1.0], [1, 2, 3], [1.5], ["a", "b"], [True, False],
    [None], [[1]], {}, {"a": 1},
]


def _settings(value):
    """A setting with every number as a float, so an int and a float of one value compare equal."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_settings, value))
    return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else value


def _outcome(data, tokens=()):
    try:
        config = TR.config_from_dict(data, _parse_overrides(list(tokens)))
    except ValidationError as exc:  # a number in the message as a float too: "got 2" and "got 2.0" match
        return "error: " + re.sub(r"\d+(\.\d+)?(e[+-]?\d+)?", lambda m: repr(float(m[0])), str(exc))
    return repr({f.name: _settings(getattr(config, f.name)) for f in dataclasses.fields(config)})


def _config_corpus():
    keys = [f.name for f in dataclasses.fields(TR.RunConfig)]
    for key in keys:
        for raw in _CLI_STRINGS:
            yield {}, (f"--{key}", raw)
            yield {}, (f"--{key.replace('_', '-')}={raw}",)
        for value in _JSON_VALUES:
            yield {key: value}, ()
            yield {key: value}, (f"--{key}", "2")  # the flag wins over the file
    # 2**63 lies past the seed range; epochs and view_size refuse it too, as test_cli's huge-int cases test
    yield {"seed": 2**63}, ()
    yield {}, ("--seed", "9223372036854775808")
    yield {"foo": 1, "bar": 2}, ("--baz", "1")
    yield {"epochs": 3, "snapshot_epochs": [1, 3]}, ()
    yield {"epochs": 3}, ("--snapshot_epochs", "3:1")
    yield {"mode": "simclr_baseline", "batch_size": 1}, ()
    yield {"arch": "small_residual"}, ("--view_size", "28")
    yield {"arch": "small_residual"}, ("--view_size", "32")


# blake2b over the outcome of every corpus case: the error line, or the settings with numbers as floats
_CONFIG_CORPUS_DIGEST = (
    "9eacacf835e272f97676ce10c969ff8c77be8835c6a937908f39a6b7989a03fc"
    "bec8241534ebc798a2d22831b0f3c5a25d7fbd604031483293ceb0806b96a61d"
)


def test_config_corpus_outcomes():
    lines = [f"{data!r} {tokens!r} -> {_outcome(data, tokens)}" for data, tokens in _config_corpus()]
    assert len(lines) == 21 * (2 * len(_CLI_STRINGS) + 2 * len(_JSON_VALUES)) + 8
    assert hashlib.blake2b("\n".join(lines).encode()).hexdigest() == _CONFIG_CORPUS_DIGEST


def tiny_run_config(tmp_path, **kw):
    defaults = dict(
        dataset="synthetic:C=2,counts=40:24,size=16",
        out_dir=str(tmp_path / "run"),
        epochs=2,
        batch_size=8,
        seed=0,
    )
    defaults.update(kw)
    return TR.RunConfig(**defaults)


class TestPretrain:
    def test_artifacts_and_log_rows(self, tmp_path):
        result = TR.pretrain(tiny_run_config(tmp_path))
        out = tmp_path / "run"
        assert (out / "log.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "manifest.json").exists()
        assert (out / "run.json").exists()
        with open(out / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(math.isfinite(float(r["mean_loss"])) for r in rows)
        loaded = M.load_checkpoint(out)
        for n in result.pair.q_params:
            np.testing.assert_array_equal(loaded.q_params[n].data, result.pair.q_params[n].data)

    def test_bitwise_determinism(self, tmp_path):
        a = TR.pretrain(tiny_run_config(tmp_path / "a", out_dir=str(tmp_path / "a")))
        b = TR.pretrain(tiny_run_config(tmp_path / "b", out_dir=str(tmp_path / "b")))
        assert a.epoch_losses == b.epoch_losses
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
            tmp_path / "b" / "checkpoint.bin"
        ).read_bytes()
        assert (tmp_path / "a" / "log.csv").read_text() == (tmp_path / "b" / "log.csv").read_text()

    def test_key_branch_gets_no_gradient(self, tmp_path):
        result = TR.pretrain(tiny_run_config(tmp_path, epochs=1))
        for t in result.pair.k_params.values():
            assert t.grad is None
            assert not t.requires_grad

    def test_k_differs_from_q_after_training(self, tmp_path):
        result = TR.pretrain(tiny_run_config(tmp_path, epochs=1))
        diffs = [
            not np.array_equal(result.pair.q_params[n].data, result.pair.k_params[n].data)
            for n in result.pair.q_params
        ]
        assert any(diffs)

    @pytest.mark.parametrize("placement, equal", [("after", True), ("before", False)])
    def test_ema_placement_with_zero_momentum(self, tmp_path, placement, equal):
        # m = 0 copies q into k: after the optimizer step k is the final q,
        # before it k is q as it was one step earlier
        cfg = tiny_run_config(tmp_path, epochs=1, ema_momentum=0.0, ema_placement=placement)
        pair = TR.pretrain(cfg).pair
        same = [np.array_equal(pair.q_params[n].data, pair.k_params[n].data) for n in pair.q_params]
        assert all(same) if equal else not any(same)

    def test_baseline_mode_runs(self, tmp_path):
        result = TR.pretrain(tiny_run_config(tmp_path, mode="simclr_baseline", epochs=1))
        assert len(result.epoch_losses) == 1
        assert math.isfinite(result.epoch_losses[0])
        # the baseline has no key views, so it never EMA-updates k
        init = M.init_pair(result.pair.config, seed=0)
        for n, t in result.pair.k_params.items():
            assert t.data.tobytes() == init.k_params[n].data.tobytes()

    def test_snapshot_epochs(self, tmp_path):
        TR.pretrain(tiny_run_config(tmp_path, snapshot_epochs=[1]))
        assert (tmp_path / "run" / "epoch_1" / "checkpoint.bin").exists()

    def test_loss_decreases_over_training(self, tmp_path):
        ds = make_synthetic_longtail(2, [48, 24], image_size=16, seed=1)
        cfg = tiny_run_config(tmp_path, epochs=12, batch_size=16, dataset="unused")
        result = TR.pretrain(cfg, dataset=ds)
        assert result.epoch_losses[-1] < result.epoch_losses[0]


# blake2b of checkpoint.bin after one seed-0 epoch. A change that moves a run's bytes on purpose updates
# these pins and says so in CHANGES.md; any other change must leave them alone.
_GOLDEN_CHECKPOINTS = {
    # 2 steps at batch 16
    "tiny": "d2e3992fea90daf8e3efde5f33028d498a2b463b3b7470752313187cc16cf950"
    "2e8c53a7c5c86c71a1a087625e05de15a355611e19876e65db680f1d500efe06",
    # 1 step at batch 32: block 0's forward and input-gradient im2col gathers take six chunks each, its
    # kernel-gradient gather takes five, and the kernel gradient sums their five GEMMs in chunk order. The
    # step runs at warmup_start = 1e-4, where a one-ulp change in a gradient does not reach the float32
    # weights; _GOLDEN_VISIBLE_STEP pins the same step at a rate where it does
    "small_residual": "1559e76f22d3729c494f984fce20ffa2be9247d014c02dc8666db4c5042a2970"
    "401c25a3bbf62178a05306a595afa73f0990de18b602ed9d3b30c25fb5cd4887",
    # 2 steps at batch 16: two augmentations and nt_xent; k stays at its init copy
    "simclr_baseline": "508b7e8834fe4a687592291240aadfde928eb3d43842bae78da34fe0fafe3d63"
    "c94cd00e04463b09d71770badc7167d5e0dd586c03f0c7e4661bc3b16450237e",
    # 2 steps at batch 16, the EMA update after the optimizer step
    "ema_after": "2b2fedb993d50c29b05c3f4c530e824b477e08c8e86d37641b7901ad0c08bd31"
    "f4b6a3ccecb136d555b7f6f7572f2e4cf9cee093ceae7fe988159208e7a3509a",
}


# blake2b of the manifest.json written beside each of those checkpoints: its keys, their order and the
# JSON text are part of the checkpoint format
_GOLDEN_MANIFESTS = {
    "tiny": "f5ae60499e03db771becfd86991b66e90c03287ed84defe4d4772c12d5ee0938"
    "ed98cd28d8f26df2471205c94bb3105f12a96540c05c11d1b5385e8751641102",
    "small_residual": "1868aa555083c7cb9a675ce67dd65fcee1ba34b14ae4a81251df2f870aee39d2"
    "48c3bf521a7d18acfc94116945e08f07f0cbe3ea7abf6a6a32b4615e5d5650b0",
    "simclr_baseline": "428c7640582c2900759e044a32c6ea23294e859d641d7861167cf703d7e77e10"
    "5a5f535094d8558f332450a3cba5a118da1719dad329edefc3d776c4e19098dc",
    "ema_after": "6e53489a6dfe5acbe76b54d2839566aad6adf1a82dc11d063686f722073407c6"
    "361a5d602e6d27e7189793c0226604f5b5dc5ddca2830f026b16ec052331c833",
}


# checkpoint and manifest blake2b of the small_residual golden step taken at warmup_start = 0.05
_GOLDEN_VISIBLE_STEP = (
    "8002d9614d378b5baf5a17c7f8618fbcb8f1a62978f1e96f1352076dcf5db3a1"
    "dca726bb48d4e8fd836208c3aa8ca63fcf18dda4f8ae2dd05d758adc7b75de85",
    "8dbd7fb3f89200bad3d7e17ebea4fb530a35e8c0950c55e62c74111eed8a8d1c"
    "eb483f5248c40dcd96d6526e717e2c79b046d16fdda6c300b84129d16ee3c832",
)


def _golden_digests(tmp_path, steps, **kw):
    """blake2b of checkpoint.bin and manifest.json after a one-epoch run of `steps` steps."""
    assert TR.pretrain(tiny_run_config(tmp_path, epochs=1, **kw)).pair.step == steps
    return tuple(
        hashlib.blake2b((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in ("checkpoint.bin", "manifest.json")
    )


# the settings of each golden run beside its batch size: tiny amimv with EMA "before" is the default
_GOLDEN_RUNS = {
    "tiny": {},
    "small_residual": {"arch": "small_residual"},
    "simclr_baseline": {"mode": "simclr_baseline"},
    "ema_after": {"ema_placement": "after"},
}


@pytest.mark.parametrize(
    "run,batch_size,steps",
    [("tiny", 16, 2), ("small_residual", 32, 1), ("simclr_baseline", 16, 2), ("ema_after", 16, 2)],
)
def test_golden_checkpoint_digest(tmp_path, run, batch_size, steps):
    digests = _golden_digests(tmp_path, steps, batch_size=batch_size, **_GOLDEN_RUNS[run])
    assert digests == (_GOLDEN_CHECKPOINTS[run], _GOLDEN_MANIFESTS[run])


def test_golden_checkpoint_digest_at_a_visible_rate(tmp_path):
    digests = _golden_digests(tmp_path, 1, batch_size=32, arch="small_residual", warmup_start=0.05)
    assert digests == _GOLDEN_VISIBLE_STEP


@pytest.mark.parametrize(
    "run,records", [("tiny", 39), ("simclr_baseline", 37), ("small_residual", 93)]
)
def test_step_record_count(tmp_path, monkeypatch, run, records):
    """One training step's tape: a recorded tiny pass is 13 records (a small_residual one 40), the fused
    NT-Xent adds 2 for the query fusion and 11 for the loss; the key passes record nothing."""
    counts, backward = [], T.backward

    def spy(loss, tape):
        counts.append(len(tape.records))
        backward(loss, tape)

    monkeypatch.setattr(T, "backward", spy)
    TR.pretrain(tiny_run_config(tmp_path, epochs=1, batch_size=32, **_GOLDEN_RUNS[run]))
    assert counts == [records]
