"""Property-based checks for the algebraic invariants."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orag.catalog import Catalog, ProjectionMode, _project_rows, read_snapshot, write_snapshot
from orag.errors import (
    DimensionMismatch,
    DuplicateId,
    IdRetired,
    NonFiniteInput,
    OragError,
    UnknownId,
    ValidationError,
)
from orag.io_utils import (
    RunConfig, ingest_embedding_dump, load_config, read_event_log, write_event_log)
from orag.learner import (
    Feedback,
    RoundRecord,
    estimate_gradient_chosen_only,
    estimate_gradient_full,
)
from orag.policy import score

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def _project(v, mode):
    """`_project_rows` on a float64 copy of a row or an (n, d) block."""
    v = np.array(v, dtype=np.float64)
    _project_rows(np.atleast_2d(v), mode)
    return v


def _instance(draw, max_i=6, max_d=4):
    n = draw(st.integers(2, max_i))
    d = draw(st.integers(1, max_d))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    cat = Catalog(d, [(f"i{k}", rng.normal(size=d)) for k in range(n)])
    q = rng.normal(size=d)
    i_star = f"i{int(rng.integers(n))}"
    return cat, q, i_star


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_full_estimator_is_unbiased(data):
    cat, q, i_star = _instance(data.draw)
    p = score(q, cat)
    expected = {
        i: (p[i] - (1.0 if i == i_star else 0.0)) * q for i in p.ids
    }
    accum = {i: np.zeros(cat.dim) for i in p.ids}
    for chosen in p.ids:
        fb = Feedback(chosen, chosen == i_star, p[chosen])
        g = estimate_gradient_full(p, q, fb)
        for i in p.ids:
            accum[i] += p[chosen] * (g.coeff[g.ids.index(i)] * g.q)
    for i in p.ids:
        np.testing.assert_allclose(accum[i], expected[i], atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chosen_only_estimator_is_unbiased(data):
    cat, q, i_star = _instance(data.draw)
    p = score(q, cat)
    accum = {i: np.zeros(cat.dim) for i in p.ids}
    for chosen in p.ids:
        fb = Feedback(chosen, chosen == i_star, p[chosen])
        g = estimate_gradient_chosen_only(p, q, fb)
        accum[chosen] += p[chosen] * (g.coeff[g.ids.index(chosen)] * g.q)
    for i in p.ids:
        expected = (p[i] - (1.0 if i == i_star else 0.0)) * q
        np.testing.assert_allclose(accum[i], expected, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expected_gradient_sums_to_zero_vector(data):
    cat, q, i_star = _instance(data.draw)
    p = score(q, cat)
    total = np.zeros(cat.dim)
    for chosen in p.ids:
        fb = Feedback(chosen, chosen == i_star, p[chosen])
        g = estimate_gradient_full(p, q, fb)
        for i in p.ids:
            total += p[chosen] * (g.coeff[g.ids.index(i)] * g.q)
    np.testing.assert_allclose(total, 0.0, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=1, max_size=6))
def test_projection_idempotent(entries):
    v = np.array(entries)
    once = _project(v, ProjectionMode.UNIT_BALL)
    np.testing.assert_allclose(_project(once, ProjectionMode.UNIT_BALL), once, atol=1e-15)
    np.testing.assert_array_equal(_project(v, ProjectionMode.NONE), v)
    assert np.linalg.norm(once) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_score_is_simplex_and_shift_invariant(data):
    cat, q, _ = _instance(data.draw, max_i=8, max_d=5)
    p = score(q, cat)
    assert abs(p.probs.sum() - 1.0) < 1e-12
    assert np.all(p.probs > 0.0)
    v = np.full(cat.dim, data.draw(finite))
    shifted = Catalog(cat.dim, [(i, row + v) for i, row in zip(cat.ids, cat.matrix())])
    np.testing.assert_allclose(score(q, shifted).probs, p.probs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_snapshot_round_trip_random_catalogs(d, n, seed):
    rng = np.random.default_rng(seed)
    cat = Catalog(d, [(f"item-{k}", rng.normal(scale=10.0, size=d)) for k in range(n)])
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.orag")
        write_snapshot(cat, path)
        back = read_snapshot(path)
    assert back.ids == cat.ids
    assert back.matrix().tobytes() == cat.matrix().tobytes()


ids = st.text(alphabet="abc", min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_catalog_matches_reference_dict(data):
    # Random add/remove/update/copy/multi-item change sequences against a
    # dict of rows computed one row at a time.
    d = data.draw(st.integers(1, 4))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    projection = data.draw(st.sampled_from(list(ProjectionMode)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    cat = Catalog(d, projection=projection, dtype=dtype)
    ref: dict[str, np.ndarray] = {}
    retired: set[str] = set()
    copies = []
    slots: list[str] = []  # the documented layout: a removal moves the last slot into the hole
    q = rng.normal(size=d)

    def unlink(item):
        slots[slots.index(item)] = slots[-1]
        slots.pop()

    def proj(v):
        return _project(np.asarray(v, dtype=dtype), projection).astype(dtype)

    def state(c):
        return c.ids, c.matrix().tobytes(), c.generation

    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(
            ["add", "add", "remove", "update", "copy", "bad_add", "changes", "bad_changes"]))
        gen, before = cat.generation, state(cat)
        mutated = op == "update"  # an update bumps even when it writes no row
        if op == "add":
            item = data.draw(ids)
            v = rng.normal(scale=2.0, size=d)
            if item in retired:
                with pytest.raises(IdRetired):
                    cat.add_item(item, v)
            elif item in ref:
                with pytest.raises(DuplicateId):
                    cat.add_item(item, v)
            else:
                cat.add_item(item, v)
                ref[item] = proj(v)
                slots.append(item)
                mutated = True
        elif op == "bad_add":
            bad = data.draw(st.sampled_from(["width", "nan"]))
            v = rng.normal(size=d + 1) if bad == "width" else np.full(d, np.nan)
            with pytest.raises(DimensionMismatch if bad == "width" else NonFiniteInput):
                cat.add_item(data.draw(ids.filter(lambda i: i not in ref and i not in retired)), v)
        elif op == "remove":
            if not ref:
                with pytest.raises(UnknownId):
                    cat.remove_item("zzz")
            else:
                item = data.draw(st.sampled_from(sorted(ref)))
                cat.remove_item(item)
                del ref[item]
                retired.add(item)
                unlink(item)
                mutated = True
        elif op in ("changes", "bad_changes"):
            # Several removals (the item in the last slot among them, when
            # drawn) and several additions, past the capacity when there are many.
            gone = data.draw(st.lists(st.sampled_from(sorted(ref)), unique=True)) if ref else []
            if slots and data.draw(st.booleans()) and slots[-1] not in gone:
                gone.insert(data.draw(st.integers(0, len(gone))), slots[-1])
            fresh = ids.filter(lambda i: i not in ref and i not in retired and i not in gone)
            new = data.draw(st.lists(fresh, unique=True, max_size=10))
            added = [(i, rng.normal(scale=2.0, size=d)) for i in new]
            if op == "bad_changes":  # one bad id, checked after every good one
                taken = [i for i in ref if i not in gone] + new + sorted(retired) + gone
                if taken and data.draw(st.booleans()):
                    bad = (gone, added + [(data.draw(st.sampled_from(taken)), np.ones(d))])
                else:
                    bad = (gone + ["zzzz"], added)
                with pytest.raises((DuplicateId, IdRetired, UnknownId)):
                    cat.apply_changes(*bad)
            else:
                cat.apply_changes(gone, added)
                for item in gone:
                    del ref[item]
                    retired.add(item)
                    unlink(item)
                for item, v in added:
                    ref[item] = proj(v)
                    slots.append(item)
                mutated = len(gone) + len(added)
        elif op == "update":
            chosen = data.draw(st.lists(st.sampled_from(sorted(ref)), unique=True)) if ref else []
            coeff, g = rng.normal(size=len(chosen)), rng.normal(size=d)
            eta = float(rng.uniform(0.01, 2.0))
            cat.update_rows(chosen, coeff, g, eta)
            for i, c in zip(chosen, coeff):
                ref[i] = proj(ref[i] - eta * (c * g).astype(dtype))
        else:
            dup = cat.copy()
            assert state(dup) == before
            if ref:
                dup.remove_item(sorted(ref)[0])
            dup.add_item("copy-only", np.ones(d))
            copies.append((dup, state(dup)))
            assert state(cat) == before
        assert cat.generation == gen + mutated
        if not mutated:
            assert state(cat) == before
        assert list(cat.ids) == sorted(ref) and len(cat) == len(ref)
        expected = np.stack([ref[i] for i in sorted(ref)]) if ref else np.empty((0, d), dtype)
        assert cat.matrix().dtype == dtype
        assert cat.matrix().tobytes() == expected.tobytes()
        for i in ref:
            assert i in cat and cat.row(i).tobytes() == ref[i].tobytes()
        assert all(i not in cat for i in retired)
        if ref:  # each logit has the bits of its own row's dot product, wherever the row sits
            logits = [np.vecdot(ref[i].astype(np.float64), q) for i in sorted(ref)]
            assert cat.logits(q).tobytes() == np.array(logits).tobytes()
    for dup, snap in copies:
        assert state(dup) == snap


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory, and the bytes of valid float64/float32 snapshots and of valid
    single-hop and multihop event logs."""
    folder = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    for dtype in (np.float64, np.float32):
        cat = Catalog.from_rows(3, ["a", "b", "cc"], rng.normal(size=(3, 3)), dtype=dtype)
        write_snapshot(cat, str(folder / f"{np.dtype(dtype).name}.orag"))
    write_event_log([
        RoundRecord(t=1, query_id="q1", chosen="a", success=True, propensity=0.5, eta=0.1),
        RoundRecord(t=2, query_id="q2", chosen="b", success=False, propensity=0.25, eta=0.1,
                    loss=1.5, generation=3),
    ], str(folder / "events.jsonl"))
    write_event_log([
        RoundRecord(t=1, query_id="t1h1", chosen="a", success=True, propensity=0.5, eta=0.1,
                    loss=0.7, generation=1, hop=1),
        RoundRecord(t=1, query_id="t1h2", chosen="cc", success=False, propensity=0.25,
                    eta=0.1, loss=1.5, generation=2, hop=2),
        RoundRecord(t=2, query_id="t2h1", chosen="b", success=True, propensity=0.75,
                    eta=0.07, loss=0.2, generation=3, hop=1),
    ], str(folder / "multihop.jsonl"))
    return folder, {f.name: f.read_bytes() for f in folder.iterdir()}


def _fuzzed(draw, valid):
    """Random bytes, or a valid file with a few bytes overwritten, then cut short or extended."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    raw = bytearray(valid)
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                                   max_size=4)):
        raw[pos] = byte
    end = draw(st.sampled_from([len(raw), draw(st.integers(0, len(raw)))]))
    return bytes(raw[:end]) + draw(st.binary(max_size=16))


def _read_or_orag_error(read, path, blob):
    with open(path, "wb") as f:
        f.write(blob)
    try:
        read(path)
    except OragError:
        pass  # any other exception fails the test


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_snapshot_fuzz_accepts_or_raises_orag_error(valid_files, data):
    folder, valid = valid_files
    name = data.draw(st.sampled_from(["float64.orag", "float32.orag"]))
    blob = _fuzzed(data.draw, valid[name])
    projection = data.draw(st.sampled_from(list(ProjectionMode)))
    _read_or_orag_error(lambda path: read_snapshot(path, projection),
                        str(folder / "fuzz.orag"), blob)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_event_log_fuzz_accepts_or_raises_orag_error(valid_files, data):
    folder, valid = valid_files
    name = data.draw(st.sampled_from(["events.jsonl", "multihop.jsonl"]))
    blob = _fuzzed(data.draw, valid[name])
    _read_or_orag_error(read_event_log, str(folder / "fuzz.jsonl"), blob)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
# Values each key can take when valid, so that fuzzed configs also reach the later checks.
_CONFIG_VALUES = st.sampled_from([0, 1, 2, 3, 50, 0.5, 1e-3, -1, "plain", "rerank", "dynamic",
                                  "multihop", "full", "chosen_only", "constant", "inverse_sqrt",
                                  "none", "unit_ball"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_config_fuzz_accepts_or_raises_orag_error(valid_files, data):
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=200))
    else:
        raw = {"T": 5, "I": 4, "d": 3, "seed": 0}
        for key in data.draw(st.lists(st.sampled_from(["T", "I", "d", "seed"]), max_size=2)):
            raw.pop(key, None)
        raw.update(data.draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS + ["extra"]),
                                             _CONFIG_VALUES | _JSON, max_size=6)))
        blob = json.dumps(raw).encode()
    seed = data.draw(st.none() | st.integers(-3, 2**64))
    _read_or_orag_error(lambda path: load_config(path, seed=seed),
                        str(valid_files[0] / "fuzz.json"), blob)


# Values each field takes when valid, so that drawn configs also pass every check.
_VALID = {"T": [1, 4, 40], "I": [2, 5], "d": [1, 3], "seed": [0, 7], "K": [1, 2],
          "variant": ["plain", "rerank", "dynamic", "multihop"],
          "update_mode": ["full", "chosen_only"], "schedule": ["constant", "inverse_sqrt"],
          "c": [0.5, 1, 1e-5], "projection": ["none", "unit_ball"], "repeat_passes": [1, 3],
          "sigma": [0, 0.3], "sigma_init": [0.0, 1], "alpha": [0.5, 1],
          "shift_round": [None, 1, 4], "shift_fraction": [0.0, 0.5],
          "queries_path": [None, "q.orag"], "items_path": [None, "items/i.orag"],
          "labels_path": [None, "labels.txt"]}
_REQUIRED_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING]
_ANY_VALUE = (st.sampled_from(sum(_VALID.values(), [-1, True, False]))
              | st.integers(-2**70, 2**70) | st.floats())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_direct_and_json_configs_agree(valid_files, data):
    # RunConfig(**payload) and the same payload read from a JSON file either give equal
    # configs or fail with the same ValidationError.
    assert list(_VALID) == _CONFIG_KEYS
    optional = data.draw(st.lists(st.sampled_from(_CONFIG_KEYS[len(_REQUIRED_KEYS):]),
                                  unique=True, max_size=8))
    payload = {k: data.draw(st.sampled_from(_VALID[k]) if data.draw(st.integers(0, 7))
                            else _ANY_VALUE) for k in _REQUIRED_KEYS + optional}
    path = valid_files[0] / "agree.json"
    path.write_text(json.dumps(payload))
    outcomes = []
    for build in (lambda: RunConfig(**payload), lambda: load_config(str(path))):
        try:
            outcomes.append(build())
        except ValidationError as e:
            outcomes.append(("ValidationError", str(e)))
    assert outcomes[0] == outcomes[1]


@pytest.fixture(scope="module")
def valid_dump(tmp_path_factory):
    """A directory, and the bytes of a valid query snapshot, item snapshot and label file."""
    folder = tmp_path_factory.mktemp("dump")
    rng = np.random.default_rng(4)
    write_snapshot(Catalog.from_rows(3, ["q0", "q1", "q2"], rng.normal(size=(3, 3))),
                   str(folder / "q.orag"))
    write_snapshot(Catalog.from_rows(3, ["doc0", "doc1"], rng.normal(size=(2, 3)),
                                     dtype=np.float32), str(folder / "i.orag"))
    (folder / "labels.txt").write_text("q0 doc1\nq2 doc0\n")
    return folder, {f.name: f.read_bytes() for f in folder.iterdir()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ingest_embedding_dump_fuzz_accepts_or_raises_orag_error(valid_dump, data):
    folder, valid = valid_dump
    names = ["q.orag", "i.orag", "labels.txt"]
    mutated = set(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    paths = []
    for name in names:
        path = folder / f"fuzz-{name}"
        path.write_bytes(_fuzzed(data.draw, valid[name]) if name in mutated else valid[name])
        paths.append(str(path))
    projection = data.draw(st.sampled_from(list(ProjectionMode)))
    try:
        ingest_embedding_dump(*paths, projection)
    except OragError:
        pass  # any other exception fails the test
