import struct
from pathlib import Path

import numpy as np
import pytest

from orag.catalog import (
    Catalog,
    ProjectionMode,
    _project_rows,
    read_snapshot,
    write_snapshot,
)
from orag.errors import (
    DimensionMismatch,
    DuplicateId,
    IdRetired,
    IoError,
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


def _project(v, mode):
    """`_project_rows` on a float64 copy of a row or an (n, d) block."""
    v = np.array(v, dtype=np.float64)
    _project_rows(np.atleast_2d(v), mode)
    return v


def test_project_row_examples():
    np.testing.assert_allclose(
        _project(np.array([3.0, 4.0]), ProjectionMode.UNIT_BALL), [0.6, 0.8]
    )
    np.testing.assert_array_equal(
        _project(np.array([0.3, 0.4]), ProjectionMode.UNIT_BALL), [0.3, 0.4]
    )
    np.testing.assert_array_equal(
        _project(np.array([3.0, 4.0]), ProjectionMode.NONE), [3.0, 4.0]
    )


def test_project_row_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        _project(np.array([np.nan, 0.0]), ProjectionMode.UNIT_BALL)


def test_a_row_whose_squared_norm_overflows_projects_onto_the_sphere(tmp_path):
    # 3.4e154 squared overflows, and dividing by an infinite norm zeroed the row.
    row = np.array([2.04, 3.4e154, 0.418])
    out = _project(row, ProjectionMode.UNIT_BALL)
    np.testing.assert_allclose(out, [2.04 / 3.4e154, 1.0, 0.418 / 3.4e154], rtol=1e-15)
    block = np.array([[1e300, -1e300], [3.0, 4.0], [0.1, 0.2]])
    _project_rows(block, ProjectionMode.UNIT_BALL)
    np.testing.assert_allclose(block, [[2**-0.5, -(2**-0.5)], [0.6, 0.8], [0.1, 0.2]],
                               rtol=1e-15)
    cat = Catalog.from_rows(3, ["a", "b"], np.array([row, [0.1, 0.2, 0.3]]))
    write_snapshot(cat, str(tmp_path / "big.orag"))
    read = read_snapshot(str(tmp_path / "big.orag"), ProjectionMode.UNIT_BALL)
    assert read.row("a").tobytes() == out.tobytes()


def test_project_row_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(scale=3.0, size=4)
        once = _project(v, ProjectionMode.UNIT_BALL)
        twice = _project(once, ProjectionMode.UNIT_BALL)
        np.testing.assert_allclose(twice, once, atol=1e-15)
        np.testing.assert_array_equal(_project(v, ProjectionMode.NONE), v)


def test_generation_increments_on_every_mutation():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    assert cat.generation == 0  # construction is not a mutation
    cat.add_item("b", [0.0, 1.0])
    assert cat.generation == 1
    cat.update_rows(["a"], np.zeros(1), np.zeros(2), eta=0.1)
    assert cat.generation == 2
    cat.remove_item("b")
    assert cat.generation == 3


def test_add_then_remove_restores_row_set():
    cat = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    before = {(i, tuple(v)) for i, v in zip(cat.ids, cat.matrix())}
    cat.add_item("c", [0.5, 0.5])
    cat.remove_item("c")
    after = {(i, tuple(v)) for i, v in zip(cat.ids, cat.matrix())}
    assert before == after


def test_unit_ball_norm_invariant_under_random_ops():
    rng = np.random.default_rng(1)
    cat = Catalog(3, projection=ProjectionMode.UNIT_BALL)
    for k in range(20):
        cat.add_item(f"i{k}", rng.normal(scale=5.0, size=3))
    for _ in range(30):
        deltas = {i: rng.normal(scale=2.0, size=3) for i in cat.ids}
        eta = rng.uniform(0.01, 1.0)
        for i, g in deltas.items():
            cat.update_rows([i], np.ones(1), g, eta=eta)
        assert cat.max_row_norm() <= 1.0 + 1e-12


def test_update_rows_arithmetic():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    cat.update_rows(["a"], np.ones(1), np.array([1.0, 0.0]), eta=0.1)
    np.testing.assert_allclose(cat.row("a"), [-0.1, 0.0])


def test_update_rows_projects_after_step():
    cat = Catalog(2, [("a", [1.0, 0.0])], projection=ProjectionMode.UNIT_BALL)
    cat.update_rows(["a"], np.ones(1), np.array([-10.0, 0.0]), eta=0.2)
    # raw step lands at [3, 0]; the unit ball pulls it back
    np.testing.assert_allclose(cat.row("a"), [1.0, 0.0])


def test_update_rows_unknown_id():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    with pytest.raises(UnknownId):
        cat.update_rows(["zzz"], np.zeros(1), np.zeros(2), eta=0.1)


def test_zero_gradient_leaves_rows_unchanged_but_bumps_generation():
    cat = Catalog(2, [("a", [0.3, 0.7])])
    gen = cat.generation
    cat.update_rows(["a"], np.zeros(1), np.zeros(2), eta=1.0)
    np.testing.assert_array_equal(cat.row("a"), [0.3, 0.7])
    assert cat.generation == gen + 1


def test_copy_is_independent():
    cat = Catalog(2, [("a", [1.0, 0.0])])
    dup = cat.copy()
    dup.update_rows(["a"], np.ones(1), np.array([1.0, 1.0]), eta=0.5)
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
        cat.update_rows(["a", "missing"], np.ones(2), g, eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_overflow_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [1e308, 0.0])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
        cat.update_rows(["a", "b"], np.array([1.0, -1e308]), np.array([1.0, 0.0]), eta=1.0)
    _assert_untouched(cat, rows, gen)


def test_update_rows_wrong_width_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(DimensionMismatch):
        cat.update_rows(["a", "b"], np.ones(2), np.ones(3), eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_row_count_mismatch_writes_nothing():
    # One coefficient would otherwise broadcast over both rows.
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(DimensionMismatch):
        cat.update_rows(["a", "b"], np.ones(1), np.ones(2), eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_repeated_id_writes_nothing():
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    with pytest.raises(DuplicateId):
        cat.update_rows(["a", "b", "a"], np.ones(3), np.ones(2), eta=0.1)
    _assert_untouched(cat, rows, gen)


def test_update_rows_takes_only_the_rank_1_form():
    # An (n, 1) coefficient block or a (1, d) query is not the rank-1 form,
    # even where broadcasting would give the same rows.
    cat = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.5, 0.5])])
    rows, gen = cat.matrix().copy(), cat.generation
    for coeff, q in [(np.ones((2, 1)), np.ones(2)), (np.ones(2), np.ones((1, 2))),
                     (np.ones((2, 1)), np.ones((1, 2))), (np.eye(2), np.ones((2, 2)))]:
        with pytest.raises(DimensionMismatch):
            cat.update_rows(["a", "b"], coeff, q, eta=0.1)
        _assert_untouched(cat, rows, gen)


def test_update_rows_empty_mapping_only_bumps_generation():
    cat = Catalog(2, [("a", [0.3, 0.7])])
    cat.update_rows([], np.zeros(0), np.zeros(2), eta=0.1)
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
        np.testing.assert_array_equal(_project(block, ProjectionMode.UNIT_BALL), expected)
        for v, e in zip(block, expected):
            np.testing.assert_array_equal(_project(v, ProjectionMode.UNIT_BALL), e)


def test_float32_build_matches_per_row_reference():
    # float32 rows are projected in float64 and rounded once.
    def reference(row):
        norm = float(np.linalg.norm(row))
        return row if norm <= 1.0 else row / norm

    rng = np.random.default_rng(3)
    for d in (1, 5, 16, 64):
        block = rng.normal(scale=2.0 / np.sqrt(d), size=(200, d)).astype(np.float32)
        ids = [f"i{k:03d}" for k in range(len(block))]
        cat = Catalog.from_rows(d, ids, block, dtype=np.float32, projection=ProjectionMode.UNIT_BALL)
        expected = np.stack([reference(v.astype(np.float64)).astype(np.float32) for v in block])
        assert cat.matrix().tobytes() == expected.tobytes()


@pytest.mark.parametrize("projection", list(ProjectionMode))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_build_and_read_make_one_catalog_sized_block(tmp_path, dtype, projection):
    import tracemalloc

    n, d = 10_000, 64
    ids = [f"i{k:05d}" for k in range(n)]
    rows = np.random.default_rng(0).normal(size=(n, d)).astype(dtype)
    path = str(tmp_path / "c.orag")
    write_snapshot(Catalog.from_rows(d, ids, rows, dtype=dtype), path)
    tracemalloc.start()
    try:
        cat = Catalog.from_rows(d, ids, rows, projection=projection, dtype=dtype)
        build = tracemalloc.get_traced_memory()[1]
        del cat
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_snapshot(path, projection)
        read = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(back) == n
    # The build keeps one block; ids, dicts and 64 KB chunk temporaries come
    # on top. The read also holds the file's bytes while it builds.
    assert build <= 1.6 * rows.nbytes
    assert read <= 3.0 * rows.nbytes


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


@pytest.mark.parametrize("dim", [2**62, 2**63 + 5])
def test_snapshot_empty_with_impossible_width_is_rejected(tmp_path, dim):
    path = tmp_path / "wide.orag"
    path.write_bytes(b"ORAG" + struct.pack("<IQQB", 1, 0, dim, 0))
    with pytest.raises(SnapshotFormatError, match="row width"):
        read_snapshot(str(path))


def test_snapshot_bad_version(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path = str(tmp_path / "v.orag")
    write_snapshot(cat, path)
    raw = bytearray(Path(path).read_bytes())
    raw[4:8] = (999).to_bytes(4, "little")
    Path(path).write_bytes(raw)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_snapshot_with_non_finite_row_is_rejected(tmp_path, dtype, bad):
    path = str(tmp_path / "nf.orag")
    write_snapshot(Catalog(2, [("a", [0.5, 0.5]), ("b", [1.0, 2.0])], dtype=dtype), path)
    raw = bytearray(Path(path).read_bytes())
    wire = np.dtype(dtype).newbyteorder("<")
    raw[-wire.itemsize:] = np.array([bad], dtype=wire).tobytes()
    Path(path).write_bytes(raw)
    for projection in ProjectionMode:
        with pytest.raises(NonFiniteInput):
            read_snapshot(path, projection)


def test_snapshot_never_leaves_partial_file(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path = str(tmp_path / "x.orag")
    write_snapshot(cat, path)
    import os

    assert os.listdir(tmp_path) == ["x.orag"]


def test_matrix_is_a_fresh_array():
    cat = Catalog(2, [("b", [0.0, 1.0]), ("a", [1.0, 0.0])])
    m = cat.matrix()
    m[:] = 7.0
    np.testing.assert_array_equal(cat.matrix(), [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("projection", list(ProjectionMode))
def test_constructor_matches_one_by_one_adds(dtype, projection):
    # The bulk build against the one-row-at-a-time path it replaced: same
    # ids, same bits, ids given unsorted and partly as non-str values.
    rng = np.random.default_rng(4)
    keys = [f"id{k}" for k in rng.permutation(60)] + [7, 3.5, "7.5"]
    rows = rng.normal(scale=2.0, size=(len(keys), 5))
    ref = Catalog(5, projection=projection, dtype=dtype)
    for k, r in zip(keys, rows):
        ref.add_item(k, list(r))
    for bulk in (Catalog(5, zip(keys, rows), projection=projection, dtype=dtype),
                 Catalog.from_rows(5, keys, rows, projection=projection, dtype=dtype)):
        assert bulk.ids == ref.ids
        assert bulk.dtype == dtype
        assert bulk.matrix().tobytes() == ref.matrix().tobytes()
        assert bulk.generation == 0
        assert all(bulk.row(i).tobytes() == ref.row(i).tobytes() for i in ref.ids)


@pytest.mark.parametrize("items, error", [
    ([(1, [0.0, 0.0]), ("1", [1.0, 1.0])], DuplicateId),
    ([("a", [0.0, 0.0]), ("b", [1.0, 1.0]), ("a", [2.0, 2.0])], DuplicateId),
    ([("a", [0.0, 0.0]), ("b", [1.0])], DimensionMismatch),
    ([("a", [0.0, 0.0, 0.0])], DimensionMismatch),
    ([("a", ["x", 0.0])], DimensionMismatch),
    ([("a", [0.0, 0.0]), ("b", [np.nan, 1.0])], NonFiniteInput),
    ([("a", [np.inf, 0.0])], NonFiniteInput),
])
def test_constructor_errors(items, error):
    for projection in ProjectionMode:
        with pytest.raises(error):
            Catalog(2, items, projection=projection)
        with pytest.raises(error):
            Catalog.from_rows(2, [k for k, _ in items], [v for _, v in items],
                              projection=projection)
        with pytest.raises(error):
            cat = Catalog(2, projection=projection)
            for k, v in items:
                cat.add_item(k, v)


def test_from_rows_needs_one_row_per_id():
    with pytest.raises(DimensionMismatch):
        Catalog.from_rows(2, ["a", "b"], np.zeros((3, 2)))


def _snapshot_bytes(tmp_path, cat):
    path = tmp_path / "cat.orag"
    write_snapshot(cat, str(path))
    return path, path.read_bytes()


def _expect_format_error(path, raw):
    path.write_bytes(raw)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(str(path))


def test_snapshot_truncated_anywhere(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0]), ("bb", [3.0, 4.0])])
    path, raw = _snapshot_bytes(tmp_path, cat)
    for cut in range(len(raw)):
        _expect_format_error(path, raw[:cut])


def test_snapshot_bad_utf8_id(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path, raw = _snapshot_bytes(tmp_path, cat)
    header = 4 + 21 + 4  # magic, version/count/dim/dtype, id length
    _expect_format_error(path, raw[:header] + b"\xff" + raw[header + 1:])


def test_snapshot_trailing_bytes(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    path, raw = _snapshot_bytes(tmp_path, cat)
    _expect_format_error(path, raw + b"\x00")


def test_snapshot_ids_not_increasing(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
    path, raw = _snapshot_bytes(tmp_path, cat)
    first, second = 4 + 21 + 4, 4 + 21 + 4 + 1 + 4  # offsets of "a" and "b"
    assert raw[first:first + 1] == b"a" and raw[second:second + 1] == b"b"
    _expect_format_error(path, raw[:first] + b"b" + raw[first + 1:second] + b"a" + raw[second + 1:])
    _expect_format_error(path, raw[:second] + b"a" + raw[second + 1:])  # a repeated id


def test_snapshot_failed_write_leaves_no_temp_file(tmp_path):
    cat = Catalog(2, [("a", [1.0, 2.0])])
    target = tmp_path / "taken"
    target.mkdir()
    (target / "keep").write_text("x")
    with pytest.raises(IoError):
        write_snapshot(cat, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_snapshot_of_an_id_utf8_cannot_encode_is_a_format_error(tmp_path):
    # A lone surrogate is a valid str but has no UTF-8 bytes.
    cat = Catalog(2, [("a", [1.0, 2.0]), ("b\ud800", [0.0, 1.0])])
    with pytest.raises(SnapshotFormatError, match=r"'b\\ud800'"):
        write_snapshot(cat, str(tmp_path / "cat.orag"))
    assert list(tmp_path.iterdir()) == []


def test_snapshot_path_utf8_cannot_encode_is_not_blamed_on_an_id(tmp_path):
    # The ids are checked before the file is opened; the path's own error is open's.
    with pytest.raises(UnicodeEncodeError) as err:
        write_snapshot(Catalog(2, [("a", [1.0, 2.0])]), str(tmp_path / "cat\ud800.orag"))
    assert not isinstance(err.value, SnapshotFormatError)
    assert list(tmp_path.iterdir()) == []


def test_snapshot_into_a_missing_directory_is_an_io_error(tmp_path):
    with pytest.raises(IoError):
        write_snapshot(Catalog(2, [("a", [1.0, 2.0])]), str(tmp_path / "absent" / "cat.orag"))
    assert list(tmp_path.iterdir()) == []


def test_snapshot_whose_temp_path_is_a_directory_is_an_io_error(tmp_path):
    (tmp_path / "cat.orag.tmp").mkdir()
    with pytest.raises(IoError):
        write_snapshot(Catalog(2, [("a", [1.0, 2.0])]), str(tmp_path / "cat.orag"))
    assert [p.name for p in tmp_path.iterdir()] == ["cat.orag.tmp"]


@pytest.mark.parametrize("name", ["absent.orag", "."])
def test_snapshot_read_of_a_missing_file_or_a_directory_is_an_io_error(tmp_path, name):
    with pytest.raises(IoError):
        read_snapshot(str(tmp_path / name))


def test_snapshot_round_trip_after_churn(tmp_path):
    cat = Catalog(3, [(f"i{k}", np.full(3, float(k))) for k in range(6)])
    cat.remove_item("i1")
    cat.add_item("h", [9.0, 9.0, 9.0])
    cat.remove_item("i5")
    path, _ = _snapshot_bytes(tmp_path, cat)
    back = read_snapshot(str(path))
    assert back.ids == cat.ids == ("h", "i0", "i2", "i3", "i4")
    assert back.matrix().tobytes() == cat.matrix().tobytes()


def test_scale_build_snapshot_and_churn(tmp_path):
    # Guards the cost model: the build, the snapshot round trip and each
    # remove/add pair must not do O(I) Python work or O(I^2) copying.
    import time

    n, d = 20_000, 16
    rng = np.random.default_rng(9)
    start = time.perf_counter()
    cat = Catalog(d, zip((f"item{k:06d}" for k in rng.permutation(n)), rng.normal(size=(n, d))))
    path = str(tmp_path / "big.orag")
    write_snapshot(cat, path)
    back = read_snapshot(path)
    for k, victim in enumerate(back.ids[::20]):
        back.remove_item(victim)
        back.add_item(f"new{k:04d}", rng.normal(size=d))
    elapsed = time.perf_counter() - start
    assert len(back) == n and back.generation == 2000
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def _churned(n, dim, dtype=np.float64, seed=0, projection=ProjectionMode.NONE):
    rng = np.random.default_rng(seed)
    cat = Catalog.from_rows(dim, [f"i{k:05d}" for k in rng.permutation(n)],
                            rng.normal(size=(n, dim)), projection=projection, dtype=dtype)
    for k, old in enumerate(list(cat.ids)[:: max(1, n // 50)]):
        cat.remove_item(old)
        cat.add_item(f"new{k:03d}", rng.normal(size=dim))
    return cat


def test_from_rows_copies_unless_told_not_to():
    rows = np.arange(6.0).reshape(3, 2)
    copied = Catalog.from_rows(2, ["a", "b", "c"], rows)
    adopted = Catalog.from_rows(2, ["a", "b", "c"], rows, copy=False)
    rows[0] = -1.0
    assert copied.row("a").tolist() == [0.0, 1.0]
    assert adopted.row("a").tolist() == [-1.0, -1.0]
    # A block of another dtype is converted, so never shared.
    converted = Catalog.from_rows(2, ["a", "b", "c"], rows, dtype=np.float32, copy=False)
    rows[0] = 5.0
    assert converted.row("a").tolist() == [-1.0, -1.0]


def test_snapshot_read_back_is_writable(tmp_path):
    cat = _churned(40, 3)
    path = str(tmp_path / "c.orag")
    write_snapshot(cat, path)
    back = read_snapshot(path)
    back.update_rows([back.ids[0]], np.ones(1), np.ones(3), 0.5)
    assert back.row(back.ids[0]).tolist() == (cat.row(cat.ids[0]) - 0.5).tolist()


@pytest.mark.parametrize("dtype, wire", [(np.float64, "<f8"), (np.float32, "<f4")])
def test_snapshot_row_block_spans_chunks(tmp_path, dtype, wire):
    # 5000 rows of width 3 are written in several chunks; the block must be
    # the id-ordered matrix all the same.
    cat = _churned(5000, 3, dtype)
    path = str(tmp_path / "c.orag")
    write_snapshot(cat, path)
    data = (tmp_path / "c.orag").read_bytes()
    block = cat.matrix().astype(wire).tobytes()
    assert data.endswith(block)
    assert read_snapshot(path).matrix().tobytes() == cat.matrix().tobytes()


def test_snapshot_write_makes_no_catalog_sized_temporary(tmp_path):
    import tracemalloc

    cat = _churned(20000, 32)
    tracemalloc.start()
    try:
        write_snapshot(cat, str(tmp_path / "c.orag"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.matrix().nbytes / 4


def test_one_retire_and_one_insert_copy_no_index():
    import tracemalloc

    # The churn workload's delta: the index moves are memmoves in place.
    cat = _churned(10_000, 64)
    row = np.random.default_rng(5).normal(size=64)
    cat.apply_changes([cat.ids[123]], [("fresh-0", row)])  # warm-up
    for gone in (cat.ids[4567], cat.ids[-1]):
        tracemalloc.start()
        try:
            cat.apply_changes([gone], [(f"fresh-{gone}", row)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024  # the id index alone is 80 KB


def _reference_update(cat, ids, coeff, q, eta):
    """The id-ordered matrix after project(row - eta * g) row by row, with
    g = coeff[k] * q rounded to the catalog dtype."""
    g = (coeff[:, None] * q[None, :]).astype(cat.dtype)
    new = dict(zip(cat.ids, cat.matrix()))
    for k, i in enumerate(ids):
        new[i] = _project(new[i] - eta * g[k], cat.projection).astype(cat.dtype)
    return np.array([new[i] for i in cat.ids])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("projection", list(ProjectionMode))
def test_update_rows_matches_row_by_row_reference(dtype, projection):
    # A churned catalog: slot order is far from id order. 300 rows of width 7
    # are one 64 KB chunk; of width 64, three.
    rng = np.random.default_rng(11)
    for dim in (7, 64):
        cat = _churned(300, dim, dtype, projection=projection)
        sub = [cat.ids[k] for k in rng.choice(len(cat), 40, replace=False)]
        for ids in (cat.ids, list(cat.ids), sub, [cat.ids[17]]):
            coeff, q = rng.normal(size=len(ids)), rng.normal(size=dim)
            expected, gen = _reference_update(cat, ids, coeff, q, 0.3), cat.generation
            cat.update_rows(ids, coeff, q, 0.3)
            assert cat.matrix().tobytes() == expected.tobytes()
            assert cat.generation == gen + 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_full_update_overflow_writes_nothing(dtype):
    # Each row in turn overflows: at width 64 the 300 rows are three chunks,
    # and the last chunk must be checked as well as the first.
    for dim in (7, 64):
        cat = _churned(300, dim, dtype)
        rows, gen = cat.matrix().copy(), cat.generation
        for k in range(len(cat)):
            coeff = np.ones(len(cat))
            coeff[k] = 1e308
            with pytest.raises(NonFiniteInput, match="update makes"), np.errstate(over="ignore"):
                cat.update_rows(cat.ids, coeff, np.full(dim, 10.0), eta=1.0)
            assert cat.matrix().tobytes() == rows.tobytes()
            assert cat.generation == gen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("projection", list(ProjectionMode))
def test_full_update_makes_one_catalog_sized_block(projection, dtype):
    import tracemalloc

    cat = _churned(10_000, 64, dtype=dtype, projection=projection)
    coeff, q = np.full(len(cat), 1e-3), np.ones(64)
    cat.update_rows(cat.ids, coeff, q, 0.1)  # warm-up
    nbytes = cat.matrix().nbytes
    tracemalloc.start()
    try:
        cat.update_rows(cat.ids, coeff, q, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * nbytes


def test_ids_compare_by_content_and_bisect():
    cat = Catalog(1, [("b", [0.0]), ("a", [1.0]), ("c", [2.0])])
    ids = cat.ids
    assert ids == ("a", "b", "c") and ("a", "b", "c") == ids and ids != ("a", "b")
    assert ids == Catalog.from_rows(1, ["c", "b", "a"], np.zeros((3, 1))).ids
    assert ids != ["a", "b", "c"] and ids[1:] == ("b", "c") and list(ids) == ["a", "b", "c"]
    assert [ids.index(i) for i in ids] == [0, 1, 2] and "b" in ids
    for missing in ("", "bb", "d", 3):
        assert missing not in ids
        with pytest.raises(ValueError):
            ids.index(missing)
    assert repr(ids) == "SortedIds(('a', 'b', 'c'))"


def test_held_ids_keep_the_id_set_they_were_read_at():
    cat = Catalog(1, [(i, [0.0]) for i in "bdf"])
    held = cat.ids
    assert cat.ids is held  # one object per id set
    cat.update_rows(["b"], [1.0], [1.0], 0.5)  # rows change, the id set does not
    cat.apply_changes((), ())
    assert cat.ids is held
    cat.apply_changes(["d"], [("a", [1.0]), ("e", [2.0])])
    assert held == ("b", "d", "f") and held.index("d") == 1 and "a" not in held
    assert cat.ids == ("a", "b", "e", "f") and cat.ids is not held
    copied = cat.copy()
    assert copied.ids == cat.ids and copied.ids is not cat.ids
    copied.remove_item("a")
    assert cat.ids == ("a", "b", "e", "f")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_max_row_norm_is_the_largest_row_norm(dtype):
    rng = np.random.default_rng(17)
    for n, d in [(0, 3), (1, 1), (5, 3), (3000, 8), (777, 64)]:
        rows = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
        cat = Catalog.from_rows(d, [f"i{k:05d}" for k in range(n)], rows, dtype=dtype)
        expected = max((np.linalg.norm(row) for row in cat.matrix()), default=0.0)
        assert cat.max_row_norm() == float(expected)


def test_max_row_norm_makes_no_catalog_sized_temporary():
    import tracemalloc

    cat = _churned(10_000, 64)
    cat.max_row_norm()  # warm-up
    tracemalloc.start()
    try:
        cat.max_row_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.matrix().nbytes / 4
