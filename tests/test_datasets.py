import hashlib
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mslg.datasets
from mslg.datasets import (
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    LabeledDataset,
    _fit_probe,
    gen_blobs,
    inject_feature_dependent,
    inject_uniform,
    load_dataset_csv,
    load_idx_images,
    save_dataset_csv,
    split,
)
from mslg.losses import PROB_FLOOR, cce_logit_loss
from mslg.model import Mlp, sgd_step
from mslg.rng import Rng

from helpers import disk_fills_mid_write, idx_images_bytes, idx_labels_bytes


def _probe_accuracy(ds, seed=0):
    probe = _fit_probe(ds.features, ds.true_labels, ds.num_classes, seed)
    preds = probe.predict(ds.features).argmax(axis=1)
    return float(np.mean(preds == ds.true_labels))


def _sgd_fit(x, y, sizes, epochs, seed):
    """An MLP of `sizes` fit for `epochs` as the probe is fit: init and batch
    orders from the streams Rng(seed, 101) and Rng(seed, 102), batch 32,
    learning rate 0.1, momentum 0.9, on `cce_logit_loss`'s gradient."""
    model = Mlp(sizes, Rng(seed, 101))
    velocity, orders = np.zeros(model.num_params), Rng(seed, 102)
    for _ in range(epochs):
        order = orders.permutation(len(y))
        for start in range(0, len(y), 32):
            idx = order[start:start + 32]
            probs, cache = model.forward(x[idx])
            grad = model.backward(cache, cce_logit_loss(probs, y[idx])[1])
            sgd_step(model, grad, velocity, 0.1, 0.9, 0.0)
    return model


# -- generators -----------------------------------------------------------------


def test_blobs_deterministic_and_balanced():
    a = gen_blobs(101, 4, 2, 6.0, Rng(7))
    b = gen_blobs(101, 4, 2, 6.0, Rng(7))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.true_labels, b.true_labels)
    counts = np.bincount(a.true_labels, minlength=4)
    assert counts.max() - counts.min() <= 1


@pytest.mark.parametrize("n,c,d,sep,seed,digest", [
    (2000, 4, 2, 6.0, 1, "40d4ef512f71bb05d815f0e303fabd3aa8a8ca87b17733510a8b96f8cc4eb193"),
    (8000, 10, 64, 8.0, 7, "8b4ee596cbfbad6a753355a01d35004de75d0d260acea152e8ebd96b448f4a9c"),
], ids=["desk", "wide"])
def test_blobs_bits_are_pinned(n, c, d, sep, seed, digest):
    # the benchmark's desk and wide shapes: a rewrite of gen_blobs must keep
    # every feature and label bit, since each artifact downstream hashes them
    ds = gen_blobs(n, c, d, sep, Rng(seed))
    h = hashlib.sha256()
    for part in (ds.features.astype("<f8"), ds.true_labels.astype("<i8"),
                 ds.noisy_labels.astype("<i8")):
        h.update(part.tobytes())
    assert h.hexdigest() == digest


def test_blobs_zero_separation_near_chance():
    ds = gen_blobs(400, 4, 2, 0.0, Rng(1))
    assert _probe_accuracy(ds) <= 0.40  # ~1/C for indistinguishable classes


def test_blobs_wide_separation_separable():
    ds = gen_blobs(400, 4, 2, 10.0, Rng(2))
    assert _probe_accuracy(ds) > 0.99


def test_blobs_in_one_dimension_sit_evenly_spaced_on_the_line():
    # class c's centre is c * sep; at sep 100 a unit-variance draw never
    # strays halfway to the next centre
    sep = 100.0
    ds = gen_blobs(600, 3, 1, sep, Rng(4))
    assert ds.features.shape == (600, 1)
    assert np.array_equal(np.rint(ds.features[:, 0] / sep), ds.true_labels)
    for c in range(3):
        mean = ds.features[ds.true_labels == c, 0].mean()
        assert mean == pytest.approx(c * sep, abs=0.3)


def test_blobs_argument_validation():
    with pytest.raises(ValueError):
        gen_blobs(3, 4, 2, 1.0, Rng(0))
    with pytest.raises(ValueError):
        gen_blobs(10, 1, 2, 1.0, Rng(0))


# -- IDX reader -------------------------------------------------------------------


def test_idx_valid_pair_exact_features(tmp_path):
    # two 2x2 images, byte values chosen by hand
    images = [[[0, 51], [102, 153]], [[204, 255], [10, 20]]]
    labels = [1, 0]
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(idx_images_bytes(images))
    lp.write_bytes(idx_labels_bytes(labels))
    ds = load_idx_images(ip, lp)
    expect = np.array([[0, 51, 102, 153], [204, 255, 10, 20]]) / 255.0
    assert ds.features.shape == (2, 4)
    assert np.array_equal(ds.features, expect)
    assert ds.true_labels.tolist() == labels
    assert ds.noisy_labels.tolist() == labels
    assert ds.num_classes == 2


def test_idx_bad_magic_on_labels(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(idx_images_bytes([[[0, 0], [0, 0]]]))
    # labels file carrying the *images* magic
    lp.write_bytes(idx_labels_bytes([1], magic=0x00000803))
    with pytest.raises(IdxBadMagicError, match="0x00000803"):
        load_idx_images(ip, lp)


@pytest.mark.parametrize("n,rows,cols", [(0, 2, 2), (3, 0, 2), (3, 2, 0)])
def test_idx_without_pixels_names_images_file(tmp_path, n, rows, cols):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols))
    lp.write_bytes(idx_labels_bytes([0] * n))
    with pytest.raises(IdxFormatError, match=f"imgs.idx: no pixels: {n} images"):
        load_idx_images(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(idx_images_bytes([[[0, 0], [0, 0]]] * 3))
    lp.write_bytes(idx_labels_bytes([0, 1]))
    with pytest.raises(IdxCountMismatchError, match="3 images but .* 2 labels"):
        load_idx_images(ip, lp)


def test_idx_truncated_pixels(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    blob = idx_images_bytes([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    ip.write_bytes(blob[:-3])
    lp.write_bytes(idx_labels_bytes([0, 1]))
    with pytest.raises(IdxTruncatedError, match="pixel bytes"):
        load_idx_images(ip, lp)


def test_idx_truncated_labels(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(idx_images_bytes([[[1, 2], [3, 4]], [[5, 6], [7, 8]]]))
    lp.write_bytes(idx_labels_bytes([0, 1])[:-1])
    with pytest.raises(IdxTruncatedError) as exc:
        load_idx_images(ip, lp)
    assert str(exc.value) == f"{lp}: expected 2 label bytes, found 1"


def test_idx_truncated_header(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(b"\x00\x00\x08")
    lp.write_bytes(idx_labels_bytes([0]))
    with pytest.raises(IdxTruncatedError, match="header"):
        load_idx_images(ip, lp)


# -- uniform noise ------------------------------------------------------------------


def test_uniform_zero_ratio_identity():
    ds = gen_blobs(100, 3, 2, 5.0, Rng(8))
    out = inject_uniform(ds, 0.0, Rng(9))
    assert np.array_equal(out.noisy_labels, out.true_labels)


def test_uniform_exact_flip_count():
    ds = gen_blobs(1000, 4, 2, 5.0, Rng(10))
    out = inject_uniform(ds, 0.4, Rng(11))
    assert int(np.sum(out.noisy_labels != out.true_labels)) == 400
    assert np.array_equal(out.true_labels, ds.true_labels)


def test_uniform_never_flips_to_same_class():
    ds = gen_blobs(500, 5, 2, 5.0, Rng(12))
    out = inject_uniform(ds, 0.5, Rng(13))
    flipped = out.corrupted_mask()
    assert int(flipped.sum()) == 250
    assert np.all(out.noisy_labels[flipped] != out.true_labels[flipped])


def test_uniform_flip_targets_chi_square():
    # flipped-to classes uniform over the C-1 alternatives:
    # chi^2 over 5*(4) cells conditioned on source class, dof = 5*3 = 15,
    # critical value at p = 0.01 is 30.578
    c = 5
    n = 100_000
    labels = np.tile(np.arange(c), n // c)
    ds = LabeledDataset(np.zeros((n, 1)), labels, labels.copy(), c)
    out = inject_uniform(ds, 0.5, Rng(14))
    mask = out.corrupted_mask()
    chi2 = 0.0
    for src in range(c):
        sel = mask & (out.true_labels == src)
        targets = out.noisy_labels[sel]
        expected = sel.sum() / (c - 1)
        for dst in range(c):
            if dst == src:
                continue
            obs = int(np.sum(targets == dst))
            chi2 += (obs - expected) ** 2 / expected
    assert chi2 <= 30.578


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), c=st.integers(2, 6),
       ratio=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_uniform_exact_count_property(data, n, c, ratio, seed):
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    ds = LabeledDataset(np.zeros((n, 1)), labels, labels.copy(), c)
    out = inject_uniform(ds, ratio, Rng(seed))
    assert np.array_equal(out.true_labels, labels)
    # exactly round(ratio*n) samples are chosen, and every one of them moved
    # off its true class
    assert int(out.corrupted_mask().sum()) == round(ratio * n)


def test_uniform_invalid_ratio():
    ds = gen_blobs(20, 2, 2, 5.0, Rng(15))
    with pytest.raises(ValueError, match="ratio"):
        inject_uniform(ds, 1.0, Rng(0))
    with pytest.raises(ValueError, match="ratio"):
        inject_uniform(ds, -0.1, Rng(0))


# -- feature-dependent noise -----------------------------------------------------------


def test_featdep_zero_ratio_identity():
    ds = gen_blobs(120, 3, 2, 6.0, Rng(16))
    out = inject_feature_dependent(ds, 0.0, 17)
    assert np.array_equal(out.noisy_labels, out.true_labels)


def test_featdep_exact_count_and_true_labels_kept():
    ds = gen_blobs(500, 4, 2, 6.0, Rng(18))
    out = inject_feature_dependent(ds, 0.3, 19)
    assert int(np.sum(out.noisy_labels != out.true_labels)) == 150
    assert np.array_equal(out.true_labels, ds.true_labels)


@settings(max_examples=8, deadline=None)  # each example fits a probe
@given(n=st.integers(40, 120), c=st.integers(2, 4), ratio=st.floats(0.0, 0.4),
       seed=st.integers(0, 2**32 - 1))
def test_featdep_exact_count_property(n, c, ratio, seed):
    ds = gen_blobs(n, c, 2, 8.0, Rng(seed))
    out = inject_feature_dependent(ds, ratio, seed)
    assert np.array_equal(out.true_labels, ds.true_labels)
    assert int(out.corrupted_mask().sum()) == round(ratio * n)


def test_featdep_flips_lowest_margin_to_runner_up():
    ds = gen_blobs(500, 4, 2, 6.0, Rng(20))
    out = inject_feature_dependent(ds, 0.3, 21)

    # recompute what the injector saw: the probe of the same seed
    probe = _fit_probe(ds.features, ds.true_labels, 4, 21)
    probs = probe.predict(ds.features)
    ranked = np.argsort(probs, axis=1, kind="stable")
    top1, runner = ranked[:, -1], ranked[:, -2]
    margin = probs[np.arange(ds.n), top1] - probs[np.arange(ds.n), runner]

    flipped = out.corrupted_mask()
    # every flip targets the probe's runner-up class
    assert np.array_equal(out.noisy_labels[flipped], runner[flipped])
    # flipped samples hug the boundary more than the survivors
    assert margin[flipped].mean() < margin[~flipped].mean()


def test_probe_steps_on_exact_logit_space_ce():
    # features scaled so the untrained probe gives one sample of its first
    # batch f_y ~ 2e-78, far below PROB_FLOOR: a floored gradient steps off
    n, seed = 96, 5
    ds = gen_blobs(n, 3, 2, 6.0, Rng(4))
    x, y = ds.features * 20.0, ds.true_labels
    first = Rng(seed, 102).permutation(n)[:32]
    untrained = Mlp((2, 16, 3), Rng(seed, 101))
    assert (untrained.predict(x[first])[np.arange(32), y[first]] < PROB_FLOOR).any()
    ref = _sgd_fit(x, y, (2, 16, 3), 30, seed)
    probe = _fit_probe(x, y, 3, seed)
    assert probe.params.tobytes() == ref.params.tobytes()


def test_featdep_refuses_chance_probe():
    # constant features and balanced classes: the probe cannot beat chance
    n, c = 120, 4
    labels = np.tile(np.arange(c), n // c)
    ds = LabeledDataset(np.zeros((n, 3)), labels, labels.copy(), c)
    with pytest.raises(ValueError, match="chance"):
        inject_feature_dependent(ds, 0.2, 22)


# -- split ---------------------------------------------------------------------------


def test_split_sizes_disjoint_and_complete():
    ds = gen_blobs(50_000, 4, 2, 6.0, Rng(23))
    train, meta, test = split(ds, 0.02, 0.1, Rng(24))
    assert meta.n == 1000
    assert test.n == 5000
    assert train.n == 44_000
    all_ids = np.concatenate([train.ids, meta.ids, test.ids])
    assert len(set(all_ids.tolist())) == 50_000


def test_split_meta_labels_clean():
    ds = gen_blobs(300, 3, 2, 6.0, Rng(25))
    train, meta, test = split(ds, 0.1, 0.2, Rng(26))
    assert np.array_equal(meta.noisy_labels, meta.true_labels)
    assert np.array_equal(test.noisy_labels, test.true_labels)


def test_split_invalid_fractions():
    ds = gen_blobs(30, 2, 2, 6.0, Rng(27))
    with pytest.raises(ValueError):
        split(ds, 0.6, 0.5, Rng(0))
    with pytest.raises(ValueError):
        split(ds, -0.1, 0.2, Rng(0))
    with pytest.raises(ValueError, match="the meta split of 30 samples would be empty"):
        split(ds, 0.01, 0.2, Rng(0))


# -- CSV interchange --------------------------------------------------------------------


def test_dataset_csv_roundtrip(tmp_path):
    ds = gen_blobs(200, 3, 2, 6.0, Rng(28))
    train, meta, test = split(ds, 0.1, 0.2, Rng(29))
    train = inject_uniform(train, 0.3, Rng(30))
    path = tmp_path / "dataset.csv"
    splits = {"train": train, "meta": meta, "test": test}
    save_dataset_csv(path, splits)
    loaded = load_dataset_csv(path, num_classes=3)
    for tag, orig in splits.items():
        got = loaded[tag]
        assert np.array_equal(got.features, orig.features)
        assert np.array_equal(got.true_labels, orig.true_labels)
        assert np.array_equal(got.noisy_labels, orig.noisy_labels)
        assert np.array_equal(got.ids, orig.ids)
        assert got.fingerprint() == orig.fingerprint()


def test_fingerprint_reads_features_and_noisy_labels_only():
    ds = inject_uniform(gen_blobs(60, 3, 2, 6.0, Rng(34)), 0.3, Rng(35))
    digest = ds.fingerprint()
    assert len(digest) == 64
    # true labels and ids are not what training reads
    other = LabeledDataset(ds.features, np.zeros(60, np.int64), ds.noisy_labels, 3, ds.ids + 1)
    assert other.fingerprint() == digest
    flipped = ds.noisy_labels.copy()
    flipped[0] = (flipped[0] + 1) % 3
    assert LabeledDataset(ds.features, ds.true_labels, flipped, 3).fingerprint() != digest
    moved = ds.features.copy()
    moved[59, 1] = np.nextafter(moved[59, 1], np.inf)
    assert LabeledDataset(moved, ds.true_labels, ds.noisy_labels, 3).fingerprint() != digest


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), c=st.integers(1, 5),
       tags=st.sets(st.sampled_from(["train", "meta", "test"]), min_size=1))
def test_dataset_csv_roundtrip_bitwise_property(data, d, c, tags):
    # any finite float64, -0.0 and subnormals included, and any int64 id
    splits = {}
    for tag in sorted(tags):
        n = data.draw(st.integers(1, 6))
        labels = hnp.arrays(np.int64, n, elements=st.integers(0, c - 1))
        splits[tag] = LabeledDataset(
            data.draw(hnp.arrays(np.float64, (n, d),
                                 elements=st.floats(allow_nan=False, allow_infinity=False))),
            data.draw(labels), data.draw(labels), c,
            data.draw(hnp.arrays(np.int64, n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        save_dataset_csv(path, splits)
        loaded = load_dataset_csv(path, c)
    assert set(loaded) == set(splits)
    for tag, orig in splits.items():
        got = loaded[tag]
        for name in ("features", "true_labels", "noisy_labels", "ids"):
            assert getattr(got, name).tobytes() == getattr(orig, name).tobytes(), name


# any text, an integer of any size, or a float that is not finite
_FIELD_TEXT = st.one_of(
    st.text(),
    st.integers(-10**450, 10**450).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", str(2**63), str(-2**63 - 1)]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), text=_FIELD_TEXT, num_classes=st.sampled_from([None, 3]))
def test_dataset_csv_with_one_field_replaced_loads_or_names_the_file(data, text, num_classes):
    ds = gen_blobs(9, 3, 2, 6.0, Rng(36))
    train, meta, test = split(ds, 0.2, 0.3, Rng(37))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        save_dataset_csv(path, {"train": train, "meta": meta, "test": test})
        lines = path.read_text(encoding="utf-8").splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = text
        lines[row] = ",".join(cells)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_dataset_csv(path, num_classes)
            except ValueError as exc:
                assert str(exc).startswith(str(path)), exc


def test_dataset_csv_load_peak_memory_is_near_the_feature_bytes(tmp_path):
    # features are packed as they are read; a Python float per field, held
    # until the file ends, would take the peak past 6x the feature bytes
    ds = gen_blobs(2000, 4, 32, 6.0, Rng(38))
    path = tmp_path / "dataset.csv"
    save_dataset_csv(path, {"train": ds})
    tracemalloc.start()
    try:
        loaded = load_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded["train"].features.tobytes() == ds.features.tobytes()
    assert peak <= 2.5 * ds.features.nbytes, peak / ds.features.nbytes


@pytest.mark.parametrize("cells,message", [
    ({0: "x", 1: "y"}, "'id': invalid literal for int() with base 10: 'x'"),
    ({2: "y", 3: "z"}, "'f1': could not convert string to float: 'y'"),
    ({3: "z"}, "'true_label': invalid literal for int() with base 10: 'z'"),
], ids=["bad id and feature", "bad feature and true_label", "bad true_label"])
def test_dataset_csv_names_the_first_bad_field_in_column_order(tmp_path, cells, message):
    path = tmp_path / "dataset.csv"
    save_dataset_csv(path, {"train": gen_blobs(6, 3, 2, 6.0, Rng(39))})
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[4].split(",")  # id,f0,f1,true_label,noisy_label,split
    for col, text in cells.items():
        row[col] = text
    lines[4] = ",".join(row)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_dataset_csv(path)
    assert str(err.value) == f"{path}:5: {message}"


def test_dataset_csv_rerun_identical_bytes(tmp_path):
    def render(path):
        ds = gen_blobs(100, 3, 2, 6.0, Rng(31))
        train, meta, test = split(ds, 0.1, 0.2, Rng(32))
        train = inject_uniform(train, 0.2, Rng(33))
        save_dataset_csv(path, {"train": train, "meta": meta, "test": test})
        return path.read_bytes()

    assert render(tmp_path / "a.csv") == render(tmp_path / "b.csv")


def test_dataset_csv_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "dataset.csv"
    save_dataset_csv(path, {"train": gen_blobs(20, 3, 2, 6.0, Rng(34))})
    before = path.read_bytes()
    # the disk fills in the second of several chunks, at no row boundary in particular
    monkeypatch.setattr(mslg.datasets, "atomic_write",
                        disk_fills_mid_write(mslg.datasets.atomic_write, after=1))
    with pytest.raises(OSError, match="no space left"):
        save_dataset_csv(path, {"train": gen_blobs(1000, 3, 2, 6.0, Rng(35))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]
