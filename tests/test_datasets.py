"""Dataset ingestion, NPZ round-trips, and synthetic generation."""

import zipfile

import numpy as np
import pytest

from amimv import datasets as D
from amimv.errors import FormatError, ValidationError


def npy_payload(header: str, version: bytes = b"\x01\x00", data: bytes = bytes(16)) -> bytes:
    """An NPY payload with the given header text, padded as NumPy pads it."""
    text = header.encode("latin1")
    text += b" " * (63 - (10 + len(text)) % 64) + b"\n"
    return b"\x93NUMPY" + version + len(text).to_bytes(2, "little") + text + data


def write_archive(path, dataset, compression=zipfile.ZIP_STORED, payloads=None):
    """Write ``dataset``'s six members, taking any member named in
    ``payloads`` from there."""
    with zipfile.ZipFile(path, "w", compression=compression) as zf:
        for split in D.SPLIT_NAMES:
            for kind, arr in zip(("images", "labels"), dataset.splits[split]):
                member = f"{split}_{kind}"
                zf.writestr(f"{member}.npy", (payloads or {}).get(member) or D.write_npy(arr))
    return path


def damaged_npz(path, dataset, damage):
    """Write ``dataset`` and damage its first member, train_images: flip four
    bytes of its stored or deflated data, or ("overrun", stored) make its
    sizes in the central directory run past the end of the file."""
    compression = zipfile.ZIP_DEFLATED if damage == "deflated" else zipfile.ZIP_STORED
    with zipfile.ZipFile(write_archive(path, dataset, compression)) as zf:
        info = zf.infolist()[0]
    raw = bytearray(path.read_bytes())
    if damage == "overrun":
        sizes_at = raw.index(b"PK\x01\x02") + 20  # the first central directory entry
        raw[sizes_at : sizes_at + 8] = (len(raw) * 2).to_bytes(4, "little") * 2
    else:
        start = info.header_offset + 30 + len(info.filename) + len(info.extra) + 8
        raw[start : start + 4] = bytes(b ^ 0xFF for b in raw[start : start + 4])
    path.write_bytes(bytes(raw))
    return path


def small_dataset(num_classes=3, per_split=(12, 4, 6), size=8, rgb=False, seed=0):
    rng = np.random.default_rng(seed)
    splits = {}
    for split, n in zip(D.SPLIT_NAMES, per_split):
        shape = (n, size, size, 3) if rgb else (n, size, size)
        images = rng.integers(0, 256, size=shape, dtype=np.uint8)
        labels = rng.integers(0, num_classes, size=n, dtype=np.int64)
        labels[:num_classes] = np.arange(num_classes)  # every class present
        splits[split] = (images, labels)
    ds = D.ImageDataset(name="toy", splits=splits, num_classes=num_classes)
    ds.channel_stats = D.compute_channel_stats(ds)
    return ds


class TestNpzRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = small_dataset(rgb=True)
        path = tmp_path / "toy.npz"
        D.save_npz(ds, path)
        loaded = D.load_npz(path)
        for split in D.SPLIT_NAMES:
            np.testing.assert_array_equal(loaded.splits[split][0], ds.splits[split][0])
            np.testing.assert_array_equal(loaded.splits[split][1], ds.splits[split][1])
        assert loaded.num_classes == ds.num_classes

    def test_npy_payload_bitwise(self):
        arr = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        again = D.read_npy(D.write_npy(arr))
        np.testing.assert_array_equal(arr, again)
        assert D.write_npy(arr) == D.write_npy(again)

    def test_numpy_interop(self, tmp_path):
        # our writer emits payloads numpy itself can parse, and vice versa
        arr = np.random.default_rng(0).integers(0, 255, size=(5, 4), dtype=np.uint8)
        path = tmp_path / "x.npy"
        path.write_bytes(D.write_npy(arr))
        np.testing.assert_array_equal(np.load(path), arr)

    def test_missing_member(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "toy.npz"
        D.save_npz(ds, path)
        stripped = tmp_path / "stripped.npz"
        with zipfile.ZipFile(path) as zin, zipfile.ZipFile(stripped, "w") as zout:
            for name in zin.namelist():
                if name != "val_labels.npy":
                    zout.writestr(name, zin.read(name))
        with pytest.raises(FormatError, match="missing member val_labels"):
            D.load_npz(stripped)

    def test_fortran_order_rejected(self):
        payload = bytearray(D.write_npy(np.zeros((2, 2), dtype=np.uint8)))
        text = payload.decode("latin1").replace("'fortran_order': False", "'fortran_order': True ")
        with pytest.raises(FormatError, match="fortran"):
            D.read_npy(text.encode("latin1"))

    @pytest.mark.parametrize("damage", ["stored", "deflated", "overrun"])
    def test_damaged_member_rejected(self, tmp_path, damage):
        # zipfile raises BadZipFile (CRC), zlib.error and EOFError for these
        path = damaged_npz(tmp_path / "damaged.npz", small_dataset(), damage)
        with pytest.raises(FormatError, match="^train_images: damaged archive member") as info:
            D.load_npz(path)
        assert "\n" not in str(info.value)

    def test_single_class_rejected(self, tmp_path):
        ds = small_dataset()
        for split in D.SPLIT_NAMES:
            images, labels = ds.splits[split]
            ds.splits[split] = (images, np.zeros_like(labels))
        path = tmp_path / "one.npz"
        D.save_npz(ds, path)
        with pytest.raises(ValidationError, match="2 classes"):
            D.load_npz(path)

    @pytest.mark.parametrize("shape", [(12, 0, 8), (12, 8, 0), (12, 0, 0, 3)])
    def test_empty_image_axis_rejected(self, tmp_path, shape):
        ds = small_dataset(rgb=len(shape) == 4)
        for split in D.SPLIT_NAMES:
            images, labels = ds.splits[split]
            ds.splits[split] = (np.zeros((len(images),) + shape[1:], dtype=np.uint8), labels)
        path = tmp_path / "empty.npz"
        D.save_npz(ds, path)
        with pytest.raises(FormatError, match=r"^train_images: H and W must be >= 1"):
            D.load_npz(path)

    def test_label_beyond_the_image_count_rejected(self, tmp_path):
        # 22 labelled images; label 21 would mean 22 classes, the most the archive can hold
        ds = small_dataset()
        for label, ok in ((21, True), (22, False), (2**40, False)):
            ds.splits["val"][1][0] = label
            D.save_npz(ds, tmp_path / "labels.npz")
            if ok:
                assert D.load_npz(tmp_path / "labels.npz").num_classes == 22
            else:
                with pytest.raises(ValidationError, match=f"^label {label} is not below .* 22 labelled"):
                    D.load_npz(tmp_path / "labels.npz")

    def test_labels_flattened_from_column(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "col.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for split in D.SPLIT_NAMES:
                images, labels = ds.splits[split]
                zf.writestr(f"{split}_images.npy", D.write_npy(images))
                zf.writestr(f"{split}_labels.npy", D.write_npy(labels.reshape(-1, 1)))
        loaded = D.load_npz(path)
        assert loaded.splits["train"][1].ndim == 1


_GOOD_HEADER = "{'descr': '|u1', 'fortran_order': False, 'shape': (2, 8), }"


class TestMalformedNpy:
    def test_written_header_is_numpy_form(self):
        payload = D.write_npy(np.zeros((2, 8), dtype=np.uint8))
        assert payload == npy_payload(_GOOD_HEADER)
        assert len(payload) % 64 == 16

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (npy_payload(_GOOD_HEADER.replace("'|u1'", "'|u1\xff'")), "malformed NPY header"),
            (npy_payload("['descr', 'fortran_order', 'shape']"), "not a dictionary"),
            (npy_payload(_GOOD_HEADER.replace("(2, 8)", "'ab'")), "shape is not valid"),
            (npy_payload(_GOOD_HEADER.replace("(2, 8)", "(-1,)")), "negative dimension"),
            (npy_payload("{[1]: 2}"), "unhashable"),
            (npy_payload("{'descr': ("), "EOF in multi-line statement"),
            (npy_payload(_GOOD_HEADER, version=b"\x02\x00"), "unsupported NPY version 2.0"),
            (npy_payload(_GOOD_HEADER, data=bytes(15)), "truncated payload"),
            (b"\x93NUMPX" + npy_payload(_GOOD_HEADER)[6:], "magic string"),
            (npy_payload(_GOOD_HEADER.replace("|u1", "<f8")), "unsupported dtype '<f8'"),
            (npy_payload(_GOOD_HEADER.replace("|u1", ">i8")), "unsupported dtype '>i8'"),
        ],
        ids=[
            "non_ascii", "list", "shape_ab", "negative", "unhashable_key", "unclosed",
            "v2", "truncated", "magic", "f8", "big_endian",
        ],
    )
    def test_one_line_format_error(self, payload, reason):
        with pytest.raises(FormatError) as info:
            D.read_npy(payload, "train_labels")
        message = str(info.value)
        assert message.startswith("train_labels: ") and reason in message
        assert "\n" not in message


class TestChannelStats:
    def test_constant_image_floored_std(self):
        ds = small_dataset()
        images, labels = ds.splits["train"]
        ds.splits["train"] = (np.full_like(images, 128), labels)
        mean, std = D.compute_channel_stats(ds)
        assert mean[0] == pytest.approx(128 / 255)
        assert std[0] == 1e-6

    def test_half_zero_half_max(self):
        ds = small_dataset()
        images, labels = ds.splits["train"]
        flat = np.zeros_like(images)
        flat.reshape(-1)[: flat.size // 2] = 255
        ds.splits["train"] = (flat, labels)
        mean, std = D.compute_channel_stats(ds)
        assert mean[0] == pytest.approx(0.5)
        assert std[0] == pytest.approx(0.5)

    def test_grayscale_gives_one_channel(self):
        mean, std = D.compute_channel_stats(small_dataset(rgb=False))
        assert mean.shape == (1,) and std.shape == (1,)

    def test_rgb_gives_three(self):
        mean, _ = D.compute_channel_stats(small_dataset(rgb=True))
        assert mean.shape == (3,)


class TestHistogram:
    def test_counts(self):
        ds = small_dataset(num_classes=2)
        images = ds.splits["train"][0][:3]
        ds.splits["train"] = (images, np.array([0, 0, 1], dtype=np.int64))
        hist = D.label_histogram(ds, "train")
        assert hist.counts == [2, 1]
        assert hist.total == 3

    def test_unknown_split(self):
        with pytest.raises(ValidationError, match="unknown split"):
            D.label_histogram(small_dataset(), "dev")

    def test_totals_match_split_sizes(self):
        ds = small_dataset(per_split=(20, 5, 9))
        for split, n in zip(D.SPLIT_NAMES, (20, 5, 9)):
            assert D.label_histogram(ds, split).total == n


class TestSynthetic:
    def test_split_histogram(self):
        ds = D.make_synthetic_longtail(2, [100, 10], image_size=8, seed=0)
        hist = D.label_histogram(ds, "train")
        assert hist.counts == [70, 7]

    def test_determinism(self):
        a = D.make_synthetic_longtail(3, [30, 12, 9], image_size=10, seed=5)
        b = D.make_synthetic_longtail(3, [30, 12, 9], image_size=10, seed=5)
        for split in D.SPLIT_NAMES:
            np.testing.assert_array_equal(a.splits[split][0], b.splits[split][0])
            np.testing.assert_array_equal(a.splits[split][1], b.splits[split][1])

    def test_seed_changes_pixels(self):
        a = D.make_synthetic_longtail(2, [10, 10], image_size=8, seed=1)
        b = D.make_synthetic_longtail(2, [10, 10], image_size=8, seed=2)
        assert not np.array_equal(a.splits["train"][0], b.splits["train"][0])

    def test_floor_split_imbalance_ratio(self):
        from amimv.imbalance import imbalance_metrics

        ds = D.make_synthetic_longtail(2, [50, 5], image_size=8, seed=0)
        hist = D.label_histogram(ds, "train")
        assert hist.counts == [35, 3]
        assert imbalance_metrics(hist).ir == pytest.approx(35 / 3)

    def test_totals_preserved(self):
        counts = [41, 17, 6]
        ds = D.make_synthetic_longtail(3, counts, image_size=8, seed=3)
        for c in range(3):
            n = sum(
                int((ds.splits[s][1] == c).sum()) for s in D.SPLIT_NAMES
            )
            assert n == counts[c]

    def test_count_mismatch(self):
        with pytest.raises(ValidationError):
            D.make_synthetic_longtail(3, [5, 5], image_size=8, seed=0)
