"""End-to-end command-line behavior and exit-code contract."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_datasets import damaged_npz, npy_payload, small_dataset, write_archive

from amimv import datasets
from amimv import model as M
from amimv import trainer as TR
from amimv.cli import main
from amimv.trainer import RunConfig

SMALL_SYNTH = "synthetic:C=2,counts=40:24,size=16"
# a train split of 22 images
SPLIT_22 = "synthetic:C=2,counts=20:12,size=16"
# a run whose loss turns NaN at epoch 2
_DIVERGING = ["--dataset", SPLIT_22, "--epochs", "3", "--batch_size", "8", "--base_lr", "1e30"]

# Wrong types, NaN/inf, negatives, empty lists and strings: none of them is a
# valid value that makes a run longer (epochs and batch_size take only ints).
_BAD_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "a:b", [], {}, {"a": 1}, ["a", "b"]]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(max_value=0),
    st.floats(max_value=0.0),
    st.lists(
        st.one_of(st.none(), st.booleans(), st.integers(max_value=0), st.floats(), st.just("")),
        max_size=3,
    ),
)


class TestAnalyze:
    def test_synthetic_balanced_row(self, tmp_path, capsys):
        code = main(["analyze", "synthetic:C=2,counts=2:2,size=8", "--out", str(tmp_path)])
        assert code == 0
        row = capsys.readouterr().out.strip()
        assert row.startswith("synthetic,1.00,0.00,1.00,0.00,50.00")
        assert (tmp_path / "imbalance.csv").exists()
        data = json.loads((tmp_path / "imbalance.json").read_text())
        assert data["ir"] == pytest.approx(1.0)

    def test_missing_file_exit_2_no_outputs(self, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.npz"), "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "imbalance.csv").exists()
        assert not (tmp_path / "imbalance.json").exists()

    def test_single_class_precondition_exit_3(self, tmp_path):
        code = main(["analyze", "synthetic:C=1,counts=8,size=8", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""])
    def test_out_of_memory_exit_3_one_line(self, tmp_path, capsys, monkeypatch, message):
        def too_big(*args, **kwargs):
            raise MemoryError(message)

        # stands in for "synthetic:C=2,counts=40:40,size=100000", which asks NumPy for 149 GiB
        monkeypatch.setattr(datasets, "make_synthetic_longtail", too_big)
        out = tmp_path / "out"
        assert main(["analyze", SMALL_SYNTH, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage", ["stored", "deflated", "overrun", "non_ascii", "list", "shape_ab", "py2_long"]
    )
    def test_damaged_archive_exit_2_one_line(self, tmp_path, capsys, damage):
        headers = {
            "non_ascii": "{'descr': '<i8\xff', 'fortran_order': False, 'shape': (2,), }",
            "list": "['descr', 'fortran_order', 'shape']",
            "shape_ab": "{'descr': '<i8', 'fortran_order': False, 'shape': 'ab', }",
            # the right train labels behind a Python 2 long literal, which NumPy loads with a UserWarning
            "py2_long": "{'descr': '<i8', 'fortran_order': False, 'shape': (12L,), }",
        }
        path = tmp_path / "damaged.npz"
        if damage in headers:
            data = small_dataset().splits["train"][1].astype("<i8").tobytes()
            payload = npy_payload(headers[damage], data=data)
            write_archive(path, small_dataset(), payloads={"train_labels": payload})
            member = "train_labels"
        else:
            damaged_npz(path, small_dataset(), damage)
            member = "train_images"
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {member}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "pretrain"])
    @pytest.mark.parametrize("hw", [(0, 8), (8, 0)], ids=["h0", "w0"])
    def test_empty_image_axis_exit_2_one_line(self, tmp_path, capsys, command, hw):
        ds = small_dataset()
        for split in datasets.SPLIT_NAMES:
            images, labels = ds.splits[split]
            ds.splits[split] = (np.zeros((len(images),) + hw, dtype=np.uint8), labels)
        path = tmp_path / "empty.npz"
        datasets.save_npz(ds, path)
        out = tmp_path / "out"
        args = {"analyze": [str(path)], "pretrain": ["--dataset", str(path), "--epochs", "1"]}[command]
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train_images: H and W must be >= 1") and err.count("\n") == 1
        assert not out.exists()

    def test_archive_without_images_exit_2_one_line(self, tmp_path, capsys):
        ds = small_dataset()
        for split in datasets.SPLIT_NAMES:
            images, labels = ds.splits[split]
            ds.splits[split] = (images[:0], labels[:0])
        path = tmp_path / "none.npz"
        datasets.save_npz(ds, path)
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: the archive holds no labelled images\n"
        assert not out.exists()

    def test_huge_label_exit_2_one_line(self, tmp_path, capsys):
        # a bincount up to this label would ask for 8 TiB
        ds = small_dataset()
        ds.splits["train"][1][0] = 2**40
        path = tmp_path / "huge.npz"
        datasets.save_npz(ds, path)
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: label {2**40} ") and err.count("\n") == 1
        assert not out.exists()


class TestPretrain:
    def test_minimal_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH,
             "--epochs", "2", "--batch_size", "8"]
        )
        assert code == 0
        for name in ("log.csv", "checkpoint.bin", "run.json"):
            assert (out / name).exists()

    def test_mode_recorded_in_run_json(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH,
             "--epochs", "1", "--batch_size", "8", "--mode", "simclr_baseline"]
        )
        assert code == 0
        assert json.loads((out / "run.json").read_text())["mode"] == "simclr_baseline"

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "r"), "--foo.bar", "1"])
        assert code == 2
        assert "foo.bar" in capsys.readouterr().err

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": SMALL_SYNTH, "epochs": 1, "batch_size": 8}))
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(cfg), "--out", str(out), "--epochs", "2"])
        assert code == 0
        assert json.loads((out / "run.json").read_text())["epochs"] == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epochs", "0"],
            ["--mode", "simclr_baseline", "--batch_size", "0"],
            ["--ema_momentum", "1.5"],
            ["--ema_momentum", "-0.1"],
            ["--standardize_augmented", "flase"],
            ["--crop_scale=-1:-0.5"],
            ["--crop_scale", "0.5"],
            ["--crop_scale", "2:3"],
            ["--warmup_fraction", "2"],
            ["--warmup_fraction", "-1"],
            ["--base_lr", "-1"],
            ["--seed", "-1"],
            ["--crop_scale", "0:1"],
            ["--crop_scale", "0.8:0.5"],
            ["--warmup_fraction", "nan"],
            ["--base_lr", "nan"],
            # a JSON config file: the value over the base settings, or the whole file
            ["--config", {"epochs": [1]}],
            ["--config", {"epochs": 2.0}],
            ["--config", {"seed": 1.5}],
            ["--config", {"tau": [1]}],
            ["--config", {"crop_scale": ["a", "b"]}],
            ["--config", {"dataset": 5}],
            ["--config", [1, 2]],
            ["--config", {"epochs": True}],
            ["--config", {"snapshot_epochs": [1.5]}],
            ["--tau", "inf"],
            ["--tau", "nan"],
            ["--weight_decay", "nan"],
            ["--sgd_momentum", "inf"],
            ["--warmup_start", "nan"],
            ["--seed", "9223372036854775808"],
            ["--view_size", "-4"],
            ["--snapshot_epochs", "0"],
            ["--snapshot_epochs", "1:2"],
            ["--fusion", "bogus"],
            ["--blur_probability", "2"],
            ["--view_size", "30"],
            ["--sgd_momentum", "1"],
            ["--sgd_momentum", "5"],
            ["--base_lr", "inf"],
            ["--config", {"tau": 10**400}],  # past the float range: inf, not an OverflowError
        ],
    )
    def test_bad_config_value_exit_2(self, tmp_path, capsys, flags):
        # a run with these base settings succeeds, so only the value under test can fail it
        base = {"dataset": SMALL_SYNTH, "epochs": 1, "batch_size": 8}
        out = tmp_path / "run"
        if flags[0] == "--config":
            value = flags[1]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(base | value if isinstance(value, dict) else value))
            args = ["--config", str(cfg)]
            key = next(iter(value)) if isinstance(value, dict) else "config"
        else:
            args = [tok for k, v in base.items() for tok in (f"--{k}", str(v))] + flags
            key = [f for f in flags if f.startswith("--")][-1][2:].split("=")[0]
        code = main(["pretrain", "--out", str(out), *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--fusion", "bogus"], ["--blur_probability", "2"], ["--view_size", "30"], ["--tau", "0"]]
    )
    def test_bad_config_value_fails_before_the_dataset(self, tmp_path, monkeypatch, flags):
        def resolve_dataset(*args, **kwargs):
            raise AssertionError("the dataset was resolved before the config was checked")

        monkeypatch.setattr(TR, "resolve_dataset", resolve_dataset)
        out = tmp_path / "run"
        assert main(["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH, *flags]) == 2
        assert not out.exists()

    @given(
        field=st.sampled_from([f.name for f in dataclasses.fields(RunConfig) if f.name != "out_dir"]),
        value=_BAD_JSON_VALUES,
    )
    @example(field="tau", value=10**400)
    @example(field="base_lr", value=10**400)
    @example(field="weight_decay", value=10**400)
    @example(field="epochs", value=10**400)
    @example(field="view_size", value=4 * 10**400)
    @settings(max_examples=200, deadline=None)
    def test_no_config_value_ends_in_exit_1(self, field, value):
        # out_dir is left out: --out below overrides it
        config = {"dataset": SMALL_SYNTH, "epochs": 1, "batch_size": 8, field: value}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(config, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["pretrain", "--config", cfg, "--out", os.path.join(tmp, "run")])
        assert code in (0, 2, 3, 4)
        assert err.getvalue().count("\n") <= 1

    def test_json_and_flag_spellings_write_equal_run_json(self, tmp_path, monkeypatch):
        # a JSON int for a float setting is read as a float, as its flag spelling is
        base = ["--dataset", SMALL_SYNTH, "--epochs", "1", "--batch_size", "8"]
        (tmp_path / "cfg.json").write_text(json.dumps({"tau": 1, "crop_scale": [1, 1]}))
        spellings = {"json": ["--config", "../cfg.json"], "flags": ["--tau", "1", "--crop_scale", "1:1"]}
        for name, flags in spellings.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["pretrain", "--out", "run", *base, *flags]) == 0
        assert (tmp_path / "json" / "run" / "run.json").read_bytes() == (
            tmp_path / "flags" / "run" / "run.json"
        ).read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMIMV_SEED", "7")
        out = tmp_path / "run"
        code = main(
            ["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH,
             "--epochs", "1", "--batch_size", "8"]
        )
        assert code == 0
        assert json.loads((out / "run.json").read_text())["seed"] == 7

    def test_non_integer_env_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AMIMV_SEED", "seven")
        out = tmp_path / "run"
        assert main(["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_snapshots_of_another_run_exit_2(self, tmp_path, capsys):
        """A run into an --out holding epoch_<n>/ snapshots it would not rewrite stops before it trains,
        names them on one line and leaves every file as it was; one that rewrites them all runs."""
        out = tmp_path / "run"
        args = ["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH, "--batch_size", "16"]
        assert main([*args, "--epochs", "2", "--snapshot_epochs", "1:2"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert json.loads((out / "epoch_2" / "manifest.json").read_text())["step"] == 4
        capsys.readouterr()
        assert main([*args, "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epoch_1/" in err and "epoch_2/" in err
        assert main([*args, "--epochs", "2", "--snapshot_epochs", "2"]) == 2
        assert "epoch_1/" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert main([*args, "--epochs", "2", "--snapshot_epochs", "1:2", "--seed", "1"]) == 0

    @pytest.mark.parametrize(
        "spec,flags,size",
        [
            ("synthetic:C=2,counts=40:24,size=28", ["--view_size", "16", "--batch_size", "8"], 16),
            # 8 px is not divisible by small_residual's 16: the views fall back to the recipe's 64 px
            ("synthetic:C=2,counts=20:12,size=8", ["--arch", "small_residual", "--batch_size", "22"], 64),
        ],
        ids=["view_size", "fallback-64"],
    )
    def test_view_size_reaches_the_checkpoint(self, tmp_path, spec, flags, size):
        out = tmp_path / "run"
        assert main(["pretrain", "--out", str(out), "--dataset", spec, "--epochs", "1", *flags]) == 0
        assert json.loads((out / "run.json").read_text())["view_size"] == size
        assert json.loads((out / "manifest.json").read_text())["input_size"] == size
        assert main(["probe", str(out), spec, "--epochs", "1"]) == 0

    def test_batch_larger_than_the_train_split_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--dataset", SPLIT_22, "--epochs", "1", "--batch_size", "1000"]
        assert main(["pretrain", "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err == "error: train split of 22 images is smaller than batch_size 1000\n"
        assert not out.exists()

    def test_empty_out_dir_exit_2_before_the_dataset(self, tmp_path, capsys, monkeypatch):
        def resolve_dataset(*args, **kwargs):
            raise AssertionError("the dataset was resolved before the config was checked")

        monkeypatch.setattr(TR, "resolve_dataset", resolve_dataset)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"dataset": SMALL_SYNTH, "epochs": 1, "out_dir": ""}))
        assert main(["pretrain", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_last_step_overflow_exit_4_no_checkpoint(self, tmp_path, capsys):
        """A last step whose update overflows the weights leaves the loss it was taken on finite: the run
        exits 4 naming the parameter, with one line, and writes no checkpoint that probe would reject."""
        out = tmp_path / "run"
        # one step, at a rate that overflows float32
        args = ["--dataset", SPLIT_22, "--epochs", "1", "--batch_size", "22", "--warmup_fraction", "0"]
        args += ["--base_lr", "1e39"]
        assert main(["pretrain", "--out", str(out), *args]) == 4
        err = capsys.readouterr().err
        assert err == "error: query parameter 'conv1.w' is not finite after step 1\n"
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "run.json").exists()  # it would describe the checkpoint that was not written

    def test_diverging_run_exit_4_one_line(self, tmp_path, capsys):
        # the suite turns warnings into errors, so an overflow warning would raise out of main
        assert main(["pretrain", "--out", str(tmp_path / "run"), *_DIVERGING]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1
        assert not (tmp_path / "run" / "run.json").exists()

    def test_diverging_run_as_a_process_prints_one_line(self, tmp_path):
        """The console entry point under default warning filters, as a user runs it: no warning lines."""
        src = os.path.dirname(os.path.dirname(M.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"} | {"PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "amimv.cli", "pretrain", "--out", str(tmp_path / "run"), *_DIVERGING],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


def _without(key):
    return lambda manifest: {k: v for k, v in manifest.items() if k != key}


_MANIFEST_CONFIG = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
# every top-level key of a saved manifest
_MANIFEST_KEYS = [f.name for f in dataclasses.fields(M.EncoderConfig)] + [
    "momentum", "step", "dtype", "params", "blob_blake2b",
]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert (
        main(
            ["pretrain", "--out", str(out), "--dataset", SMALL_SYNTH,
             "--epochs", "2", "--batch_size", "8"]
        )
        == 0
    )
    return out


class TestProbe:
    def test_end_to_end_reports(self, trained_run):
        code = main(["probe", str(trained_run), SMALL_SYNTH, "--epochs", "5"])
        assert code == 0
        data = json.loads((trained_run / "eval.json").read_text())
        assert 0.0 <= data["accuracy"] <= 1.0
        test_size = 40 - int(0.7 * 40) - int(0.1 * 40) + 24 - int(0.7 * 24) - int(0.1 * 24)
        assert sum(sum(row) for row in data["confusion"]) == test_size
        assert (trained_run / "eval.csv").exists()
        assert (trained_run / "confusion.csv").exists()

    def test_deterministic_given_seed(self, trained_run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(
                ["probe", str(trained_run), SMALL_SYNTH, "--epochs", "5",
                 "--seed", "3", "--out", str(out)]
            )
            assert code == 0
        assert (a / "eval.json").read_text() == (b / "eval.json").read_text()

    def test_channel_mismatch_exit_2(self, tmp_path):
        from amimv import model as M

        cfg = M.EncoderConfig(arch="tiny", input_channels=3, input_size=16)
        M.save_checkpoint(M.init_pair(cfg, seed=0), str(tmp_path))
        assert main(["probe", str(tmp_path), SMALL_SYNTH]) == 2

    @pytest.mark.parametrize(
        "edit,missing",
        [
            (lambda m: m.update(arch="small_residual"), None),
            (lambda m: m.update(arch=["tiny"]), None),
            (lambda m: m.update(arch={}), None),
            (lambda m: m["params"][0].update(shape=[8, 1, 5, 5]), None),
            (lambda m: m.update(dtype="float64"), None),
            (lambda m: m.update(input_size="16"), None),
            (lambda m: [1], None),
            (lambda m: m.update(momentum="x"), None),
            (_without("arch"), "arch"),
            (_without("dtype"), "dtype"),
            (_without("params"), "params"),
        ],
        ids=[
            "arch", "arch-list", "arch-object", "shape", "dtype", "input_size-str", "not-an-object",
            "momentum-str",
            "missing-arch", "missing-dtype", "missing-params",
        ],
    )
    def test_mismatched_manifest_exit_2(self, tmp_path, capsys, edit, missing):
        from amimv import model as M

        cfg = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        M.save_checkpoint(M.init_pair(cfg, seed=0), str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest = edit(manifest) or manifest  # an edit edits in place or returns a new manifest
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["probe", str(tmp_path), SMALL_SYNTH]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if missing:
            assert "manifest" in err and repr(missing) in err
        assert not (tmp_path / "eval.json").exists()

    @given(key=st.sampled_from(_MANIFEST_KEYS), value=_BAD_JSON_VALUES)
    @example(key="arch", value=["tiny"])
    @settings(max_examples=40, deadline=None)
    def test_no_manifest_value_ends_in_exit_1(self, key, value):
        """Any one top-level manifest value replaced by a wrong type, a non-finite or a non-positive number
        gives exit 0 or 2 and at most one line on stderr."""
        from amimv import model as M

        with tempfile.TemporaryDirectory() as tmp:
            M.save_checkpoint(M.init_pair(_MANIFEST_CONFIG, seed=0), tmp)
            path = os.path.join(tmp, "manifest.json")
            with open(path) as fh:
                manifest = json.load(fh)
            manifest[key] = value
            with open(path, "w") as fh:
                json.dump(manifest, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["probe", tmp, SMALL_SYNTH, "--epochs", "1"])
        assert code in (0, 2)
        assert err.getvalue().count("\n") <= 1

    def test_corrupted_blob_exit_2(self, tmp_path, capsys):
        from amimv import model as M

        cfg = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        M.save_checkpoint(M.init_pair(cfg, seed=0), str(tmp_path))
        blob = bytearray((tmp_path / "checkpoint.bin").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (tmp_path / "checkpoint.bin").write_bytes(bytes(blob))
        assert main(["probe", str(tmp_path), SMALL_SYNTH]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "eval.json").exists()

    def test_missing_checkpoint_exit_2(self, tmp_path):
        code = main(["probe", str(tmp_path / "absent"), SMALL_SYNTH])
        assert code == 2

    def test_empty_test_split_exit_3(self, tmp_path, capsys):
        from amimv import model as M
        from amimv.datasets import make_synthetic_longtail, save_npz

        ds = make_synthetic_longtail(2, [40, 24], image_size=16, seed=0)
        images, labels = ds.splits["test"]
        ds.splits["test"] = (images[:0], labels[:0])
        data = tmp_path / "empty_test.npz"
        save_npz(ds, str(data))
        cfg = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        M.save_checkpoint(M.init_pair(cfg, seed=0), str(tmp_path / "run"))
        out = tmp_path / "out"
        assert main(["probe", str(tmp_path / "run"), str(data), "--epochs", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'test'" in err and "no images" in err
        assert not any((d / name).exists() for d in (out, tmp_path / "run")
                       for name in ("eval.json", "eval.csv", "confusion.csv"))

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_bad_epochs_exit_2(self, trained_run, tmp_path, capsys, epochs):
        out = tmp_path / "out"
        assert main(["probe", str(trained_run), SMALL_SYNTH, "--epochs", epochs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "epochs" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def charts_dir(trained_run):
    assert main(["probe", str(trained_run), SMALL_SYNTH, "--epochs", "5"]) == 0
    assert main(["report", str(trained_run), SMALL_SYNTH]) == 0
    return trained_run


class TestReport:
    def test_well_formed_svg(self, charts_dir):
        for name in ("per_class.svg", "confusion.svg", "embedding.svg"):
            root = ET.fromstring((charts_dir / name).read_text())
            assert root.tag.endswith("svg")

    def test_bar_count_matches_classes(self, charts_dir):
        root = ET.fromstring((charts_dir / "per_class.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        bars = [r for r in root.iter(f"{ns}rect") if r.get("fill", "").startswith("#")]
        assert len(bars) == 2

    def test_heatmap_text_matches_confusion_csv(self, charts_dir):
        confusion = [
            [int(v) for v in line.split(",")]
            for line in (charts_dir / "confusion.csv").read_text().strip().splitlines()
        ]
        root = ET.fromstring((charts_dir / "confusion.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        texts = [t.text for t in root.iter(f"{ns}text")]
        for row in confusion:
            for value in row:
                assert str(value) in texts

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path), SMALL_SYNTH]) == 2

    @pytest.mark.parametrize(
        "eval_data",
        [
            {}, [1], {"per_class_accuracy": ["x"]}, {"per_class_accuracy": 5}, {"per_class_accuracy": [True]},
            {"per_class_accuracy": [-0.5, 0.5]}, {"per_class_accuracy": [0.5, 3.0]},
            {"per_class_accuracy": [0.5, float("inf")]},
        ],
    )
    def test_bad_eval_json_exit_2(self, trained_run, tmp_path, capsys, eval_data):
        # a complete run dir in which only eval.json is at fault
        run = tmp_path / "run"
        run.mkdir()
        for name in ("manifest.json", "checkpoint.bin"):
            shutil.copy(trained_run / name, run / name)
        (run / "confusion.csv").write_text("1,0\n0,1\n")
        (run / "eval.json").write_text(json.dumps(eval_data))
        out = tmp_path / "charts"
        assert main(["report", str(run), SMALL_SYNTH, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "per_class_accuracy" in err
        assert not out.exists() and not list(run.glob("*.svg"))


    @pytest.mark.parametrize("accs", [[float("nan"), 1.0], [None, 0.0]], ids=["nan", "null"])
    def test_bars_stay_on_the_chart(self, trained_run, tmp_path, accs):
        run = tmp_path / "run"
        _report_run(run, trained_run, json.dumps({"per_class_accuracy": accs}), "1,0\n0,1\n")
        assert main(["report", str(run), SMALL_SYNTH]) == 0
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring((run / "per_class.svg").read_text())
        bars = [r for r in root.iter(f"{ns}rect") if r.get("fill", "").startswith("#")]
        assert len(bars) == 2
        assert all(float(r.get("height")) >= 0 and float(r.get("y")) >= 0 for r in bars)


class TestSeeds:
    """Seeds are input: a negative or non-integer one exits 2 with one line."""

    @pytest.mark.parametrize("command", ["analyze", "probe", "report"])
    def test_negative_seed_exit_2(self, charts_dir, tmp_path, capsys, command):
        args = [SMALL_SYNTH, "--out", str(tmp_path / "out"), "--seed", "-1"]
        if command != "analyze":
            args.insert(0, str(charts_dir))
        assert main([command, *args]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "pretrain"])
    def test_negative_spec_seed_exit_2(self, tmp_path, capsys, command):
        spec = "synthetic:C=2,counts=5:5,seed=-1"
        out = tmp_path / "out"
        args = [spec, "--out", str(out)] if command == "analyze" else ["--out", str(out), "--dataset", spec]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "probe", "report"])
    @pytest.mark.parametrize("raw", ["seven", "1.5", "-3"])
    def test_bad_env_seed_exit_2(self, charts_dir, tmp_path, capsys, monkeypatch, command, raw):
        monkeypatch.setenv("AMIMV_SEED", raw)
        args = [SMALL_SYNTH, "--out", str(tmp_path / "out")]
        if command != "analyze":
            args.insert(0, str(charts_dir))
        assert main([command, *args]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def _report_run(run, trained_run, eval_text, confusion_text):
    """A run dir holding trained_run's checkpoint and the given probe outputs."""
    os.makedirs(run, exist_ok=True)
    for name in ("manifest.json", "checkpoint.bin"):
        shutil.copy(os.path.join(trained_run, name), os.path.join(run, name))
    with open(os.path.join(run, "eval.json"), "w", encoding="utf-8") as fh:
        fh.write(eval_text)
    with open(os.path.join(run, "confusion.csv"), "w", encoding="utf-8") as fh:
        fh.write(confusion_text)


_TWO_CLASS_EVAL = json.dumps({"per_class_accuracy": [0.5, 0.5]})

# for n classes: arbitrary text, or the JSON and CSV shapes that probe writes
# filled with arbitrary values, so some inputs get through to the charts
_REPORT_INPUTS = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.one_of(
            st.text(),
            st.lists(
                st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2)),
                min_size=n, max_size=n,
            ).map(lambda accs: json.dumps({"per_class_accuracy": accs})),
        ),
        st.one_of(
            st.text(),
            st.lists(st.lists(st.integers(min_value=-1), min_size=n, max_size=n), min_size=n, max_size=n).map(
                lambda rows: "".join(",".join(map(str, row)) + "\n" for row in rows)
            ),
        ),
    )
)


class TestBoundary:
    """Every subcommand's bad input exits 2 with one line and writes nothing."""

    @pytest.mark.parametrize("command", ["analyze", "pretrain", "probe", "report"])
    def test_out_names_a_file_exit_2(self, charts_dir, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("keep")
        args = {
            "analyze": [SMALL_SYNTH],
            "pretrain": ["--dataset", SMALL_SYNTH, "--epochs", "1", "--batch_size", "8"],
            "probe": [str(charts_dir), SMALL_SYNTH, "--epochs", "1"],
            "report": [str(charts_dir), SMALL_SYNTH],
        }[command]
        assert main([command, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert out.read_text() == "keep" and os.listdir(tmp_path) == ["taken"]

    @staticmethod
    def _forbid_compute(monkeypatch):
        from amimv import cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        for name in ("imbalance_metrics", "label_histogram"):
            monkeypatch.setattr(cli, name, no_compute)
        for name in ("extract_features", "linear_probe", "pca_project"):
            monkeypatch.setattr(cli.E, name, no_compute)
        monkeypatch.setattr(cli.TR, "resolve_dataset", no_compute)

    @pytest.mark.parametrize("command", ["analyze", "pretrain", "probe", "report"])
    def test_out_checked_before_compute(self, charts_dir, tmp_path, capsys, monkeypatch, command):
        self._forbid_compute(monkeypatch)
        out = tmp_path / "taken"
        out.write_text("keep")
        # probe at its default --epochs
        args = {"analyze": [SMALL_SYNTH], "pretrain": ["--dataset", SMALL_SYNTH]}.get(
            command, [str(charts_dir), SMALL_SYNTH]
        )
        for target in (out, out / "sub"):
            assert main([command, *args, "--out", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --out {target}: ") and err.count("\n") == 1
        assert out.read_text() == "keep" and os.listdir(tmp_path) == ["taken"]

    @pytest.mark.parametrize("command", ["analyze", "pretrain", "probe", "report"])
    def test_empty_out_exit_2_before_compute(self, charts_dir, tmp_path, capsys, monkeypatch, command):
        """An empty --out names no directory: no subcommand falls back to the working directory, the
        default run directory or run_dir."""
        self._forbid_compute(monkeypatch)
        monkeypatch.chdir(tmp_path)
        args = {"analyze": [SMALL_SYNTH], "pretrain": ["--dataset", SMALL_SYNTH]}.get(
            command, [str(charts_dir), SMALL_SYNTH]
        )
        before = sorted(os.listdir(charts_dir))
        assert main([command, *args, "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.endswith("must name a directory, got ''\n") and err.count("\n") == 1
        assert os.listdir(tmp_path) == [] and sorted(os.listdir(charts_dir)) == before

    def test_report_channel_mismatch_exit_2(self, tmp_path, capsys):
        from amimv import model as M

        cfg = M.EncoderConfig(arch="tiny", input_channels=3, input_size=16)
        M.save_checkpoint(M.init_pair(cfg, seed=0), str(tmp_path))
        (tmp_path / "eval.json").write_text(_TWO_CLASS_EVAL)
        (tmp_path / "confusion.csv").write_text("1,0\n0,1\n")
        assert main(["report", str(tmp_path), SMALL_SYNTH]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "channel" in err
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.parametrize(
        "confusion",
        ["", "\n", "1,2\n", "-1,0\n0,1\n", "1,0,0\n0,1,0\n0,0,1\n", "a,b\nc,d\n"],
        ids=["empty", "blank-line", "one-row", "negative", "3x3", "letters"],
    )
    def test_bad_confusion_csv_exit_2(self, trained_run, tmp_path, capsys, confusion):
        run, out = tmp_path / "run", tmp_path / "charts"
        _report_run(run, trained_run, _TWO_CLASS_EVAL, confusion)
        assert main(["report", str(run), SMALL_SYNTH, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "confusion.csv" in err
        assert not out.exists() and not list(run.glob("*.svg"))

    @given(inputs=_REPORT_INPUTS)
    @settings(max_examples=100, deadline=None)
    def test_no_report_input_ends_in_exit_1(self, trained_run, inputs):
        eval_text, confusion = inputs
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            _report_run(run, trained_run, eval_text, confusion)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["report", run, SMALL_SYNTH, "--out", os.path.join(tmp, "charts")])
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1


def _checkpoint_run(run, config, edit=None):
    """A run dir holding a consistent checkpoint of `config` (its params list and blob agree), and probe
    outputs for report; `edit` changes the pair before it is saved."""
    from amimv import model as M
    from amimv.tensor import Tensor

    specs = M.param_specs(config)
    pair = M.EncoderPair(
        config=config,
        q_params={n: Tensor(np.full(s, 0.5, np.float32), requires_grad=True) for n, s in specs},
        k_params={n: Tensor(np.full(s, 0.5, np.float32)) for n, s in specs},
    )
    if edit:
        edit(pair)
    M.save_checkpoint(pair, str(run))
    (run / "eval.json").write_text(_TWO_CLASS_EVAL)
    (run / "confusion.csv").write_text("1,0\n0,1\n")


_COMMAND_ARGS = {"probe": ["--epochs", "1"], "report": []}


class TestCheckpointContent:
    """A checkpoint whose params list and blob agree can still hold a config or weights no encoder can
    run: each is rejected with one line before any output is written."""

    @pytest.mark.parametrize("command", ["probe", "report"])
    @pytest.mark.parametrize("field", ["input_size", "input_channels", "projector_hidden", "projector_out"])
    def test_zero_dimension_exit_2(self, tmp_path, capsys, command, field):
        from amimv import model as M

        config = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        setattr(config, field, 0)  # past __post_init__, as a hand-written manifest would be
        run, out = tmp_path / "run", tmp_path / "out"
        _checkpoint_run(run, config)
        assert main([command, str(run), SMALL_SYNTH, *_COMMAND_ARGS[command], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {field} must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["probe", "report"])
    @pytest.mark.parametrize(
        "value,code,message",
        [
            (float("nan"), 2, "query parameter 'conv1.w' is not finite"),
            (float("inf"), 2, "query parameter 'conv1.w' is not finite"),
            (1e38, 4, "features on split '{split}' are not finite"),  # finite, but the conv sums overflow
        ],
        ids=["nan", "inf", "1e38"],
    )
    def test_non_finite_or_overflowing_weight(self, tmp_path, capsys, command, value, code, message):
        from amimv import model as M

        def one_weight(pair):
            pair.q_params["conv1.w"].data[0, 0, 1, 1] = value

        config = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        run, out = tmp_path / "run", tmp_path / "out"
        _checkpoint_run(run, config, one_weight)
        assert main([command, str(run), SMALL_SYNTH, *_COMMAND_ARGS[command], "--out", str(out)]) == code
        err = capsys.readouterr().err
        split = "train" if command == "probe" else "test"
        assert err.count("\n") == 1 and message.format(split=split) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["feat.w", "feat.b"])
    def test_huge_features_overflow_the_probe_exit_4(self, tmp_path, capsys, recwarn, name):
        """A feature weight or bias of 1e30 gives finite features, whose squared gradients overflow the
        probe's AdamW second moment in float32: probe exits 4 with one line, no warning, and no eval files."""
        from amimv import model as M

        def one_weight(pair):
            pair.q_params[name].data.reshape(-1)[0] = 1e30

        config = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
        run, out = tmp_path / "run", tmp_path / "out"
        _checkpoint_run(run, config, one_weight)
        assert main(["probe", str(run), SMALL_SYNTH, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "AdamW moments are not finite" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


# blake2b of each CSV the commands write for SMALL_SYNTH: analyze, a 2-epoch batch-8 pretrain and a 5-epoch
# probe, all at seed 0. A change that moves these bytes on purpose updates the pins and says so in CHANGES.md.
_GOLDEN_CSVS = {
    "imbalance.csv": "d864421872be112de3340b6d17c9311361988a08ac5e8dcc59d6e5a73697fd04"
    "a864e64615293c147974f16d2a18d3b91f91f679c709deea233ba0393c94c973",
    "log.csv": "f739a1bed82e34fd45d4247845db3da9d513e30c24b1004ba3870107194fa937"
    "9d6af24033aaf5380de301543fa08f16c7e2f10459b9f35d6f28e5d92a1dc40e",
    "eval.csv": "15e1780310b3127f6fe1f8ba74aa4537752d2cd64ae697f38ddb2a752e6ace9b"
    "edfecf8948e3d393170e8e0a619243c04fb1c5de400036e6a33ed50acc916466",
    "confusion.csv": "d35689a120599fd503067b7da80fb3c6e21a62f9b107bc3b857a9e9eccfad2e7"
    "c800a1935c22f7eba266a5a7ec0da0dd4c6aa7cd6cdc7c5f55c94621f9bb0967",
}


# blake2b of each JSON file the same commands write; run.json records --out as given, here "run"
_GOLDEN_JSONS = {
    "imbalance.json": "bc4f851bc61a861c10e0ba1103bff3256f2e7196c41b3682a591510cb47a084b"
    "8bd37b705866c57c45730ccc0e9f0335c27a3494c892a9056d90b57e1e894eb5",
    "manifest.json": "2cee46fa7ad2fb2cc602423961c08b943c9bc1ebd87d9cc0f38eb97b42cebfee"
    "675ad5b5cf6822f98de8fa862fbf1d1675f31e5fd8b0a6f4c999b399a388d76d",
    "run.json": "ea612fd98724f2cd69bb6d0a814f3508af67ec821f90afc3d49b1b970d84e71e"
    "1003b23304f206c6442551753df809851dd56b7fff1bb4961fd460989a6758c5",
    "eval.json": "2018bb8a0961ec3fa4ca291168a1345adf737d8d9f1d3b73c497a8a082eb7e82"
    "ecbcbe6bc2caa07d8412deb99fd5861416508495c05e1e1e00f6a446a9be8973",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("AMIMV_SEED", raising=False)
        mp.chdir(root)
        assert main(["analyze", SMALL_SYNTH, "--out", "run"]) == 0
        args = ["--dataset", SMALL_SYNTH, "--epochs", "2", "--batch_size", "8"]
        assert main(["pretrain", "--out", "run", *args]) == 0
        assert main(["probe", "run", SMALL_SYNTH, "--epochs", "5"]) == 0
    return root / "run"


def _digests(run, names) -> dict[str, str]:
    return {name: hashlib.blake2b((run / name).read_bytes()).hexdigest() for name in names}


def test_golden_csv_bytes(golden_run):
    assert _digests(golden_run, _GOLDEN_CSVS) == _GOLDEN_CSVS


def test_golden_json_bytes(golden_run):
    assert _digests(golden_run, _GOLDEN_JSONS) == _GOLDEN_JSONS


# blake2b of each SVG that report writes from the golden run's probe outputs, at seed 0
_GOLDEN_SVGS = {
    "per_class.svg": "4c9c3d080b19a6577363823cea3db04f9096f68f7fd29219e553bb796898211d"
    "c9bbe04ffd3347a4c0d7ed791f429d3cd1a2cf3dfdd7489d0d95f881747bd511",
    "confusion.svg": "8418a4f46b519d52b71af19c9a71ff7b7db969b8b62846315e52f587ce5c9ecf"
    "67986d0603d0d67ca3c5a69576ff98a065fee6d36f8c81cffdc7d89749cd901e",
    "embedding.svg": "022a2338db241373b45b952cb909e5eb1cc0426f8842eee1a1b046c59f43d9b2"
    "cda99f32ef31c1af5220fee743c8c7e5ce93d988cefa28e3400dd46d0fd14211",
}


def test_golden_svg_bytes(golden_run, monkeypatch):
    monkeypatch.delenv("AMIMV_SEED", raising=False)
    out = golden_run.parent / "svg"
    assert main(["report", str(golden_run), SMALL_SYNTH, "--out", str(out)]) == 0
    assert _digests(out, _GOLDEN_SVGS) == _GOLDEN_SVGS
