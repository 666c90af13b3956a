import numpy as np
import pytest

from orag.catalog import (
    Catalog,
    ProjectionMode,
    project_row,
    read_snapshot,
    write_snapshot,
)
from orag.errors import (
    DimensionMismatch,
    DuplicateId,
    IdRetired,
    NonFiniteInput,
    SnapshotFormatError,
    UnknownId,
)


def test_construction_rejects_wrong_row_length():
    with pytest.raises(DimensionMismatch):
        Catalog(2, [("a", [0.0, 0.0, 0.0])])


def test_empty_catalog_is_valid():
    cat = Catalog(3)
    assert len(cat) == 0
    assert cat.ids == ()
    assert cat.max_row_norm() == 0.0


def test_add_item_unit_ball_projects():
    cat = Catalog(2, projection=ProjectionMode.UNIT_BALL)
    cat.add_item("c", [3.0, 4.0])
    np.testing.assert_allclose(cat.row("c"), [0.6, 0.8], atol=1e-15)


def test_add_item_mode_none_stores_verbatim():
    cat = Catalog(2)
    cat.add_item("c", [0.1, 0.2])
    np.testing.assert_array_equal(cat.row("c"), [0.1, 0.2])


def test_add_existing_id_raises():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    with pytest.raises(DuplicateId):
        cat.add_item("a", [0.0, 1.0])


def test_remove_item():
    cat = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    cat.remove_item("b")
    assert cat.ids == ("a",)
    assert len(cat) == 1


def test_remove_from_empty_raises():
    with pytest.raises(UnknownId):
        Catalog(2).remove_item("a")


def test_removed_id_is_retired_forever():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    cat.remove_item("a")
    with pytest.raises(IdRetired):
        cat.add_item("a", [0.0, 1.0])


def test_project_row_examples():
    np.testing.assert_allclose(
        project_row(np.array([3.0, 4.0]), ProjectionMode.UNIT_BALL), [0.6, 0.8]
    )
    np.testing.assert_array_equal(
        project_row(np.array([0.3, 0.4]), ProjectionMode.UNIT_BALL), [0.3, 0.4]
    )
    np.testing.assert_array_equal(
        project_row(np.array([3.0, 4.0]), ProjectionMode.NONE), [3.0, 4.0]
    )


def test_project_row_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        project_row(np.array([np.nan, 0.0]), ProjectionMode.UNIT_BALL)


def test_project_row_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(scale=3.0, size=4)
        once = project_row(v, ProjectionMode.UNIT_BALL)
        twice = project_row(once, ProjectionMode.UNIT_BALL)
        np.testing.assert_allclose(twice, once, atol=1e-15)
        np.testing.assert_array_equal(project_row(v, ProjectionMode.NONE), v)


def test_generation_increments_on_every_mutation():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    assert cat.generation == 0  # construction is not a mutation
    cat.add_item("b", [0.0, 1.0])
    assert cat.generation == 1
    cat.update_rows({"a": np.zeros(2)}, eta=0.1)
    assert cat.generation == 2
    cat.remove_item("b")
    assert cat.generation == 3


def test_add_then_remove_restores_row_set():
    cat = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    before = {(i, tuple(v)) for i, v in cat.items()}
    cat.add_item("c", [0.5, 0.5])
    cat.remove_item("c")
    after = {(i, tuple(v)) for i, v in cat.items()}
    assert before == after


def test_unit_ball_norm_invariant_under_random_ops():
    rng = np.random.default_rng(1)
    cat = Catalog(3, projection=ProjectionMode.UNIT_BALL)
    for k in range(20):
        cat.add_item(f"i{k}", rng.normal(scale=5.0, size=3))
    for _ in range(30):
        deltas = {i: rng.normal(scale=2.0, size=3) for i in cat.ids}
        cat.update_rows(deltas, eta=rng.uniform(0.01, 1.0))
        assert cat.max_row_norm() <= 1.0 + 1e-12


def test_update_rows_arithmetic():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    cat.update_rows({"a": np.array([1.0, 0.0])}, eta=0.1)
    np.testing.assert_allclose(cat.row("a"), [-0.1, 0.0])


def test_update_rows_projects_after_step():
    cat = Catalog(2, [("a", [1.0, 0.0])], projection=ProjectionMode.UNIT_BALL)
    cat.update_rows({"a": np.array([-10.0, 0.0])}, eta=0.2)
    # raw step lands at [3, 0]; the unit ball pulls it back
    np.testing.assert_allclose(cat.row("a"), [1.0, 0.0])


def test_update_rows_unknown_id():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    with pytest.raises(UnknownId):
        cat.update_rows({"zzz": np.zeros(2)}, eta=0.1)


def test_zero_gradient_leaves_rows_unchanged_but_bumps_generation():
    cat = Catalog(2, [("a", [0.3, 0.7])])
    gen = cat.generation
    cat.update_rows({"a": np.zeros(2)}, eta=1.0)
    np.testing.assert_array_equal(cat.row("a"), [0.3, 0.7])
    assert cat.generation == gen + 1


def test_copy_is_independent():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    dup = cat.copy()
    dup.update_rows({"a": np.array([1.0, 1.0])}, eta=0.5)
    np.testing.assert_array_equal(cat.row("a"), [1.0, 0.0])
    assert dup.generation == cat.generation + 1


def _assert_untouched(cat, rows, generation):
    np.testing.assert_array_equal(cat.matrix(), rows)
    assert cat.generation == generation


def test_update_rows_unknown_id_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    g = np.array([1.0, 0.0])
    with pytest.raises(UnknownId):
        cat.update_rows({"a": g, "missing": g}, eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_overflow_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [1e308, 0.0])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
        cat.update_rows({"a": np.array([1.0, 0.0]), "b": np.array([-1e308, 0.0])}, eta=1.0)
    _assert_untouched(cat, rows, gen)


def test_update_rows_wrong_width_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(DimensionMismatch):
        cat.update_rows({"a": np.ones(2), "b": np.ones(3)}, eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_empty_mapping_only_bumps_generation():
    cat = Catalog(2, [("a", [0.3, 0.7])])
    cat.update_rows({}, eta=0.1)
    np.testing.assert_array_equal(cat.row("a"), [0.3, 0.7])
    assert cat.generation == 1


def test_project_row_block_matches_per_row_reference():
    # Reference: the per-row rule with np.linalg.norm. Equal bits, not a
    # tolerance: the golden digests depend on them.
    def reference(row):
        norm = float(np.linalg.norm(row))
        return row if norm <= 1.0 else row / norm

    rng = np.random.default_rng(2)
    for d in (1, 5, 16, 64):
        block = rng.normal(scale=2.0 / np.sqrt(d), size=(200, d))
        expected = np.stack([reference(v) for v in block])
        np.testing.assert_array_equal(project_row(block, ProjectionMode.UNIT_BALL), expected)
        for v, e in zip(block, expected):
            np.testing.assert_array_equal(project_row(v, ProjectionMode.UNIT_BALL), e)


def test_ids_stay_sorted():
    cat = Catalog(1, [("b", [0.0]), ("a", [1.0]), ("c", [2.0])])
    assert cat.ids == ("a", "b", "c")
    cat.add_item("ab", [3.0])
    assert cat.ids == ("a", "ab", "b", "c")


def test_snapshot_round_trip_bitwise_f64(tmp_path):
    rng = np.random.default_rng(2)
    cat = Catalog(4, [(f"item{k}", rng.normal(size=4)) for k in range(7)])
    path = str(tmp_path / "cat.orag")
    write_snapshot(cat, path)
    back = read_snapshot(path)
    assert back.ids == cat.ids
    assert back.dtype == np.float64
    assert back.matrix().tobytes() == cat.matrix().tobytes()


def test_snapshot_round_trip_f32(tmp_path):
    rng = np.random.default_rng(3)
    cat = Catalog(3, [("a", rng.normal(size=3))], dtype=np.float32)
    path = str(tmp_path / "cat32.orag")
    write_snapshot(cat, path)
    back = read_snapshot(path)
    assert back.dtype == np.float32
    assert back.matrix().tobytes() == cat.matrix().tobytes()


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.orag"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(str(path))


def test_snapshot_bad_version(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path = str(tmp_path / "v.orag")
    write_snapshot(cat, path)
    raw = bytearray(open(path, "rb").read())
    raw[4:8] = (999).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_never_leaves_partial_file(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path = str(tmp_path / "x.orag")
    write_snapshot(cat, path)
    import os

    assert os.listdir(tmp_path) == ["x.orag"]
