import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mslg.soft_labels
from mslg.rng import Rng
from mslg.soft_labels import LabelSnapshotError, SoftLabelStore

from helpers import FailingArray, disk_fills_mid_write


def _store(noisy, c=3, k=10.0):
    return SoftLabelStore.init_from_noisy(noisy, c, k)


# -- initialization --------------------------------------------------------------


def test_init_peaked_values():
    store = _store([2], c=3, k=10.0)
    yhat = store.soft_labels([0])[0]
    off = 1.0 / (math.exp(10.0) + 2.0)
    assert yhat[0] == pytest.approx(off, rel=1e-12)
    assert yhat[1] == pytest.approx(off, rel=1e-12)
    assert yhat[2] == pytest.approx(math.exp(10.0) * off, rel=1e-12)
    assert yhat[0] == pytest.approx(4.54e-5, abs=1e-6)
    assert yhat[2] == pytest.approx(0.99991, abs=1e-5)


def test_init_zero_k_uniform():
    store = _store([0, 1, 2, 1], c=3, k=0.0)
    assert np.allclose(store.soft_labels(), 1.0 / 3.0, atol=1e-15)


def test_init_argmax_matches_noisy_for_positive_k():
    noisy = Rng(0).integers(0, 5, size=200)
    for k in (0.5, 1.0, 10.0, 100.0):
        store = _store(noisy, c=5, k=k)
        assert np.array_equal(store.soft_labels().argmax(axis=1), noisy)


def test_init_out_of_range_label():
    with pytest.raises(ValueError, match="out of range"):
        _store([0, 3], c=3)
    with pytest.raises(ValueError, match="out of range"):
        _store([-1], c=3)


def test_soft_labels_unknown_id():
    store = _store([0, 1], c=2)
    with pytest.raises(KeyError, match="unknown sample id"):
        store.soft_labels([5])
    with pytest.raises(KeyError, match="unknown sample id -1"):
        store.soft_labels([0, -1])
    with pytest.raises(KeyError, match="unknown sample id 2"):
        store.apply_label_gradient([2], np.zeros((1, 2)), beta=1.0)


# -- gradient application -----------------------------------------------------------


def test_apply_zero_gradient_is_noop():
    store = _store([0, 1, 2], c=3)
    before = store.logits.copy()
    skipped = store.apply_label_gradient([0, 2], np.zeros((2, 3)), beta=5.0)
    assert skipped == 0
    assert np.array_equal(store.logits, before)


def test_apply_constant_gradient_is_noop():
    # a constant row shifts every logit of a sample equally, which softmax
    # ignores: the soft labels do not move
    store = _store([1, 0], c=2)
    before = store.soft_labels()
    store.apply_label_gradient([0, 1], np.full((2, 2), 3.3), beta=2.0)
    assert np.abs(store.soft_labels() - before).max() <= 1e-15


def test_apply_hand_case_delta():
    store = SoftLabelStore(np.array([[0.5, -1.0]]), k=0.0)
    store.apply_label_gradient([0], np.array([[1.0, -0.25]]), beta=2.0)
    assert np.allclose(store.logits, [[-1.5, -0.5]], atol=1e-15)


def test_apply_leaves_other_rows_bitwise_untouched():
    rng = Rng(1)
    store = _store(rng.integers(0, 4, size=50), c=4)
    store.logits += rng.normal(size=store.logits.shape)
    before = store.logits.copy()
    batch = np.array([3, 10, 41])
    store.apply_label_gradient(batch, rng.normal(size=(3, 4)), beta=7.0)
    untouched = np.setdiff1d(np.arange(50), batch)
    assert np.array_equal(store.logits[untouched], before[untouched])
    assert not np.array_equal(store.logits[batch], before[batch])


def test_apply_scales_linearly_in_beta():
    rng = Rng(2)
    grad = rng.normal(size=(2, 3))
    base = _store([0, 2], c=3)
    base.logits += rng.normal(size=(2, 3))
    start = base.logits.copy()

    one = SoftLabelStore(start.copy(), k=10.0)
    one.apply_label_gradient([0, 1], grad, beta=0.5)
    two = SoftLabelStore(start.copy(), k=10.0)
    two.apply_label_gradient([0, 1], grad, beta=1.0)

    delta_one = one.logits - start
    delta_two = two.logits - start
    assert np.allclose(delta_two, 2.0 * delta_one, rtol=0, atol=1e-12)

    zero = SoftLabelStore(start.copy(), k=10.0)
    zero.apply_label_gradient([0, 1], grad, beta=0.0)
    assert np.array_equal(zero.logits, start)


def test_apply_skips_and_counts_nonfinite_rows():
    store = _store([0, 1, 1], c=2)
    before = store.logits.copy()
    grad = np.array([[1.0, 0.0], [np.nan, 1.0], [0.5, np.inf]])
    skipped = store.apply_label_gradient([0, 1, 2], grad, beta=1.0)
    assert skipped == 2
    assert np.array_equal(store.logits[1:], before[1:])
    assert not np.array_equal(store.logits[0], before[0])


def test_simplex_preserved_after_many_updates():
    rng = Rng(3)
    store = _store(rng.integers(0, 4, size=20), c=4)
    for step in range(200):
        ids = rng.choice(20, size=8, replace=False)
        store.apply_label_gradient(ids, rng.normal(size=(8, 4)) * 5, beta=2.0)
    sums = store.soft_labels().sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9


def test_apply_shape_mismatch():
    store = _store([0, 1], c=2)
    with pytest.raises(ValueError, match="shape"):
        store.apply_label_gradient([0], np.zeros((2, 2)), beta=1.0)


# -- snapshot io ---------------------------------------------------------------------


def test_snapshot_roundtrip_bitwise(tmp_path):
    rng = Rng(4)
    store = _store(rng.integers(0, 3, size=17), c=3, k=7.5)
    store.logits += rng.normal(size=store.logits.shape)
    path = tmp_path / "labels.slbl"
    store.save(path)
    loaded = SoftLabelStore.load(path)
    assert loaded.k == store.k
    assert np.array_equal(loaded.logits, store.logits)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), c=st.integers(1, 6),
       k=st.floats(width=64))
def test_snapshot_roundtrip_bitwise_property(data, n, c, k):
    # any float64 bit pattern for the logits and K, NaN and infinities included
    logits = data.draw(hnp.arrays(np.float64, (n, c), elements=st.floats(width=64)))
    store = SoftLabelStore(logits, k)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.slbl"
        store.save(path)
        loaded = SoftLabelStore.load(path)
    assert loaded.logits.shape == (n, c)
    assert loaded.logits.tobytes() == logits.tobytes()
    assert struct.pack("<d", loaded.k) == struct.pack("<d", k)


def test_snapshot_truncated_file(tmp_path):
    store = _store([0, 1, 2], c=3)
    path = tmp_path / "labels.slbl"
    store.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(LabelSnapshotError, match="logit bytes"):
        SoftLabelStore.load(path)


def test_snapshot_corrupt_header(tmp_path):
    path = tmp_path / "bad.slbl"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(LabelSnapshotError, match="header"):
        SoftLabelStore.load(path)
    path.write_bytes(b"SL")
    with pytest.raises(LabelSnapshotError, match="header"):
        SoftLabelStore.load(path)


def test_csv_export_argmax_matches_noisy(tmp_path):
    noisy = Rng(5).integers(0, 4, size=25)
    store = _store(noisy, c=4)
    path = tmp_path / "labels.csv"
    store.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_id,yhat_0,yhat_1,yhat_2,yhat_3,argmax"
    assert len(lines) == 26
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert int(cells[-1]) == noisy[i]
        probs = [float(v) for v in cells[1:-1]]
        assert abs(sum(probs) - 1.0) <= 1e-9


def test_snapshot_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "last_good.slbl"
    _store([0, 1, 2], c=3).save(path)
    before = path.read_bytes()
    store = _store([2, 1, 0], c=3)
    store.logits = store.logits.view(FailingArray)
    with pytest.raises(OSError, match="no space"):
        store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_export_csv_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "labels.csv"
    _store([0, 1, 2], c=3).export_csv(path)
    before = path.read_bytes()
    monkeypatch.setattr(mslg.soft_labels, "atomic_write",
                        disk_fills_mid_write(mslg.soft_labels.atomic_write, after=2))
    with pytest.raises(OSError, match="no space"):
        _store([2, 1, 0], c=3).export_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
