import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from orag.catalog import Catalog, read_snapshot, write_snapshot
from orag.errors import (
    DimensionMismatch,
    IoError,
    ParseError,
    SchemaError,
    UndefinedRound,
    UnknownId,
    ValidationError,
)
from orag.io_utils import (
    RunConfig,
    ingest_embedding_dump,
    load_config,
    read_event_log,
    write_event_log,
)
from orag.learner import RoundRecord, ScheduleKind, UpdateMode
from orag.simulator import Environment, Variant


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path, {"I": 10, "d": 4, "T": 100, "seed": 1}))
    assert cfg.K == 1
    assert cfg.variant is Variant.PLAIN
    assert cfg.update_mode is UpdateMode.FULL
    assert cfg.schedule is ScheduleKind.INVERSE_SQRT
    assert cfg.c == 1e-5
    assert cfg.sigma == 0.3 and cfg.sigma_init == 0.0


def test_config_episode_bridge(tmp_path):
    cfg = load_config(
        _write_config(
            tmp_path,
            {"I": 5, "d": 2, "T": 10, "seed": 0, "schedule": "constant", "c": 0.1},
        )
    )
    ep = cfg.episode()
    assert ep.schedule.eta(1) == ep.schedule.eta(50) == 0.1


def test_k_larger_than_catalog_names_the_field(tmp_path):
    with pytest.raises(ValidationError, match="K"):
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": 10, "seed": 0, "K": 4}))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError, match="foo"):
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": 10, "seed": 0, "foo": 1}))
    with pytest.raises(ValidationError, match="out"):  # outputs go only to --out
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": 10, "seed": 0, "out": "x"}))


def test_missing_required_key(tmp_path):
    with pytest.raises(ValidationError, match="seed"):
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": 10}))


def test_bad_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(path))


def test_non_utf8_config_is_a_parse_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"I": 3}'.encode("utf-16-le"))
    with pytest.raises(ParseError, match="utf16.json"):
        load_config(str(path))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_config(str(tmp_path / "nope.json"))


def test_non_integer_dimension_rejected(tmp_path):
    with pytest.raises(ValidationError, match="T"):
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": "many", "seed": 0}))


def test_bad_enum_value_names_field(tmp_path):
    with pytest.raises(ValidationError, match="variant"):
        load_config(
            _write_config(tmp_path, {"I": 3, "d": 2, "T": 10, "seed": 0, "variant": "x"})
        )


def _records():
    return [
        RoundRecord(t=1, query_id="q1", chosen="a", success=True, propensity=0.5, eta=0.1),
        RoundRecord(
            t=2, query_id="q2", chosen="b", success=False, propensity=0.25, eta=0.07,
            loss=1.386, generation=2,
        ),
        RoundRecord(t=5, query_id="q5", chosen="a", success=True, propensity=1.0, eta=0.05),
    ]


def test_event_log_empty_round_trip(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    write_event_log([], path)
    assert Path(path).read_text() == ""
    assert read_event_log(path) == []


def test_event_log_three_record_round_trip(tmp_path):
    path = str(tmp_path / "log.jsonl")
    write_event_log(_records(), path)
    assert len(Path(path).read_text().splitlines()) == 3
    assert read_event_log(path) == _records()


def test_event_log_lines_break_only_at_newlines(tmp_path):
    # U+2028 and NEL end a line for str.splitlines, not for a JSONL reader.
    rec = RoundRecord(t=1, query_id="q\u2028\x85x", chosen="a", success=True,
                      propensity=0.5, eta=0.1)
    row = {"t": 1, "query_id": rec.query_id, "chosen": "a", "success": True,
           "propensity": 0.5, "eta": 0.1}
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert read_event_log(str(path)) == [rec]


def test_event_log_bytes_are_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_event_log(_records(), p1)
    write_event_log(_records(), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_event_log_corrupt_line_cites_its_number(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    write_event_log(_records(), path)
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[1] = "{corrupt\n"
    Path(path).write_text("".join(lines))
    with pytest.raises(SchemaError, match="line 2"):
        read_event_log(path)


def test_non_utf8_event_log_is_a_schema_error(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"chosen": "caf\u00e9"}\n'.encode("latin-1"))
    with pytest.raises(SchemaError, match="UTF-8"):
        read_event_log(str(path))


@pytest.mark.parametrize("text", ['{"t": 1' + "0" * 5000 + "}", "[" * 100_000],
                         ids=["huge-int", "deep-nesting"])
def test_huge_int_or_deep_nesting_is_bad_json(tmp_path, text):
    path = tmp_path / "odd.json"
    path.write_text(text + "\n")
    with pytest.raises(SchemaError, match="line 1: not valid JSON"):
        read_event_log(str(path))
    with pytest.raises(ParseError):
        load_config(str(path))


def test_event_log_rejects_extra_keys(tmp_path):
    path = tmp_path / "extra.jsonl"
    row = {"t": 1, "query_id": "q", "chosen": "a", "success": True,
           "propensity": 0.5, "eta": 0.1, "surprise": 1}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(SchemaError, match="line 1"):
        read_event_log(str(path))


def test_event_log_requires_increasing_t(tmp_path):
    path = tmp_path / "order.jsonl"
    rows = []
    for t in (2, 2):
        rows.append(json.dumps({"t": t, "query_id": "q", "chosen": "a",
                                "success": True, "propensity": 0.5, "eta": 0.1}))
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="line 2"):
        read_event_log(str(path))


def test_event_log_propensity_bounds(tmp_path):
    path = tmp_path / "prop.jsonl"
    path.write_text(json.dumps({"t": 1, "query_id": "q", "chosen": "a",
                                "success": True, "propensity": 1.5, "eta": 0.1}) + "\n")
    with pytest.raises(SchemaError, match="propensity"):
        read_event_log(str(path))


@pytest.mark.parametrize("field, value", [
    ("propensity", "0.5"), ("propensity", None), ("eta", "x"), ("eta", -0.1), ("eta", 0.0),
    ("t", True), ("chosen", 3), ("query_id", None), ("success", "no"), ("success", 1),
    ("loss", "1.5"), ("generation", "2"), ("generation", -1), ("generation", 2.0),
])
def test_event_log_field_types(tmp_path, field, value):
    path = tmp_path / "typed.jsonl"
    write_event_log(_records(), str(path))
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(first), field: value}) + "\n" + "".join(rest))
    with pytest.raises(SchemaError, match="line 1"):
        read_event_log(str(path))


def test_event_log_accepts_int_numbers_and_null_optionals(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps({"t": 1, "query_id": "q", "chosen": "a", "success": False,
                                "propensity": 1, "eta": 2, "loss": None}) + "\n")
    (rec,) = read_event_log(str(path))
    assert (rec.propensity, rec.eta, rec.loss) == (1.0, 2.0, None)
    assert type(rec.propensity) is float and type(rec.eta) is float


def _dump(tmp_path, d_queries=4, d_items=4, dtype=np.float64):
    rng = np.random.default_rng(0)
    queries = Catalog(d_queries, [(f"q{k}", rng.normal(size=d_queries)) for k in range(3)],
                      dtype=dtype)
    items = Catalog(d_items, [(f"doc{k}", rng.normal(size=d_items)) for k in range(3)])
    qp, ip, lp = (str(tmp_path / n) for n in ("q.orag", "i.orag", "labels.txt"))
    write_snapshot(queries, qp)
    write_snapshot(items, ip)
    (tmp_path / "labels.txt").write_text("q0 doc1\nq1 doc2\n")
    return qp, ip, lp


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ingest_dump_happy_path(tmp_path, dtype):
    qp, ip, lp = _dump(tmp_path, dtype=dtype)
    stream = ingest_embedding_dump(qp, ip, lp)
    assert type(stream) is Environment
    assert stream.total_rounds == 2
    assert dict(zip(stream.query_ids, stream.targets)) == {"q0": "doc1", "q1": "doc2"}
    assert stream.queries.shape == (2, 4)
    assert set(stream.catalog.ids) == {"doc0", "doc1", "doc2"}
    assert stream.ids == ("doc0", "doc1", "doc2") and stream.latents is None
    # The labelled rows only (q2 has no label), in id order, with their bits.
    queries = read_snapshot(qp)
    assert stream.query_ids == ["q0", "q1"]
    assert stream.queries.dtype == dtype
    assert stream.queries.tobytes() == np.stack([queries.row("q0"), queries.row("q1")]).tobytes()


def test_replay_stream_serves_the_labelled_queries_as_rounds(tmp_path):
    stream = ingest_embedding_dump(*_dump(tmp_path, dtype=np.float32))
    for t, (qid, item) in enumerate([("q0", "doc1"), ("q1", "doc2")], start=1):
        q = stream.query_at(t)
        assert q.query_id == qid and stream.optimal_item(t) == item
        assert q.q.dtype == np.float64
        assert q.q.tobytes() == stream.queries[t - 1].astype(np.float64).tobytes()
    for t in (0, 3):
        with pytest.raises(UndefinedRound):
            stream.query_at(t)
        with pytest.raises(UndefinedRound):
            stream.optimal_item(t)


def test_ingest_dump_unknown_item(tmp_path):
    qp, ip, lp = _dump(tmp_path)
    (tmp_path / "labels.txt").write_text("q0 ghost\n")
    with pytest.raises(UnknownId):
        ingest_embedding_dump(qp, ip, lp)


def test_ingest_dump_unknown_query(tmp_path):
    qp, ip, lp = _dump(tmp_path)
    (tmp_path / "labels.txt").write_text("qX doc0\n")
    with pytest.raises(UnknownId):
        ingest_embedding_dump(qp, ip, lp)


def test_ingest_dump_dimension_mismatch(tmp_path):
    qp, ip, lp = _dump(tmp_path, d_queries=4, d_items=8)
    with pytest.raises(DimensionMismatch):
        ingest_embedding_dump(qp, ip, lp)


def test_ingest_dump_malformed_label_line(tmp_path):
    qp, ip, lp = _dump(tmp_path)
    (tmp_path / "labels.txt").write_text("q0 doc1 doc2\n")
    with pytest.raises(SchemaError, match="line 1"):
        ingest_embedding_dump(qp, ip, lp)


def test_ingest_dump_query_labelled_twice(tmp_path):
    qp, ip, lp = _dump(tmp_path)
    (tmp_path / "labels.txt").write_text("q0 doc1\nq1 doc2\nq0 doc2\n")
    with pytest.raises(SchemaError, match="line 3"):
        ingest_embedding_dump(qp, ip, lp)


def test_ingest_dump_non_utf8_labels_are_a_schema_error(tmp_path):
    qp, ip, lp = _dump(tmp_path)
    (tmp_path / "labels.txt").write_bytes(b"q0 doc1\nq1 \xffdoc2\n")
    with pytest.raises(SchemaError, match="UTF-8"):
        ingest_embedding_dump(qp, ip, lp)


def test_run_config_direct_construction():
    cfg = RunConfig(T=10, I=4, d=2, seed=0)
    ep = cfg.episode()
    assert (ep.T, ep.I, ep.d) == (10, 4, 2)
    assert RunConfig(T=10, I=4, d=2, seed=0, variant="rerank").variant is Variant.RERANK
    with pytest.raises(ValidationError, match="K"):
        RunConfig(T=10, I=4, d=2, seed=0, K=5)
    with pytest.raises(ValidationError, match="alpha"):
        RunConfig(T=10, I=4, d=2, seed=0, alpha=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.shift_round = 50


@pytest.mark.parametrize("bad", ["q 0", "q\u20280", "q\x850", "q\t", ""])
@pytest.mark.parametrize("snapshot", ["queries", "items"])
def test_ingest_dump_rejects_an_id_no_label_line_can_name(tmp_path, bad, snapshot):
    qp, ip, lp = _dump(tmp_path)
    ids = [bad, "q1"] if snapshot == "queries" else [bad, "doc1", "doc2"]
    write_snapshot(Catalog(4, [(i, np.ones(4)) for i in ids]), qp if snapshot == "queries" else ip)
    with pytest.raises(SchemaError, match=re.escape(repr(bad))):
        ingest_embedding_dump(qp, ip, lp)
