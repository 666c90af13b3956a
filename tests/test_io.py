import ast
import dataclasses
import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import orag
from orag.catalog import Catalog, ProjectionMode, read_snapshot, write_snapshot
from orag.cli import cli_main
from orag.errors import (
    DimensionMismatch,
    InvalidConfig,
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
from orag.policy import RandomSource
from orag.simulator import Environment, EpisodeConfig, Variant, run_episode


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
    with pytest.raises(ValidationError, match=r"K must lie in \[1, I\]; got K=4, I=3"):
        load_config(_write_config(tmp_path, {"I": 3, "d": 2, "T": 10, "seed": 0, "K": 4}))


@pytest.mark.parametrize("variant", ["plain", "dynamic", "multihop"])
def test_k_is_refused_outside_rerank(tmp_path, variant):
    # Only a reranked round draws K candidates; elsewhere K would be read by nothing.
    payload = {"I": 6, "d": 2, "T": 10, "seed": 0, "K": 3, "variant": variant}
    with pytest.raises(ValidationError, match=f"K: only the rerank variant .* variant {variant}"):
        load_config(_write_config(tmp_path, payload))
    assert load_config(_write_config(tmp_path, dict(payload, variant="rerank"))).K == 3
    assert load_config(_write_config(tmp_path, dict(payload, K=1))).K == 1


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


def test_a_config_that_is_not_an_object_is_a_parse_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="single JSON object"):
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


# The config surface, key by key, in field order: its default (or REQUIRED), then a
# value of the wrong type and an out-of-range value, each with its exact message.
REQUIRED = object()
_BASE = {"T": 10, "I": 4, "d": 2, "seed": 0}
_DIMS = "T, I, d must all be >= 1"
_DUMP = ("queries_path, items_path, labels_path: a dump run takes all three paths and is "
         "one pass of a plain or rerank episode")
_SURFACE = {
    "T": (REQUIRED, "x", "T: expected int, got 'x'", 0, _DIMS),
    "I": (REQUIRED, 2.0, "I: expected int, got 2.0", -1, _DIMS),
    "d": (REQUIRED, True, "d: expected int, got True", 0, _DIMS),
    "seed": (REQUIRED, 1.5, "seed: expected int, got 1.5", -1, "seed: must lie in [0, inf]"),
    "K": (1, None, "K: expected int, got None", 5, "K must lie in [1, I]; got K=5, I=4"),
    "variant": (Variant.PLAIN, 1, "variant: expected ['plain', 'rerank', 'dynamic', 'multihop'], "
                "got 1", "all", "variant: expected ['plain', 'rerank', 'dynamic', 'multihop'], "
                "got 'all'"),
    "update_mode": (UpdateMode.FULL, 0, "update_mode: expected ['full', 'chosen_only'], got 0",
                    "both", "update_mode: expected ['full', 'chosen_only'], got 'both'"),
    "schedule": (ScheduleKind.INVERSE_SQRT, None,
                 "schedule: expected ['constant', 'inverse_sqrt'], got None", "linear",
                 "schedule: expected ['constant', 'inverse_sqrt'], got 'linear'"),
    "c": (1e-5, "0.1", "c: expected float, got '0.1'", 0,
          "c: schedule constant must be positive and finite"),
    "projection": (ProjectionMode.NONE, [], "projection: expected ['none', 'unit_ball'], got []",
                   "ball", "projection: expected ['none', 'unit_ball'], got 'ball'"),
    "repeat_passes": (1, 1.0, "repeat_passes: expected int, got 1.0", 0,
                      "repeat_passes must be >= 1"),
    "sigma": (0.3, math.inf, "sigma: expected float, got inf", -0.1, "sigma: must lie in [0, inf]"),
    "sigma_init": (0.0, False, "sigma_init: expected float, got False", -1,
                   "sigma_init: must lie in [0, inf]"),
    "alpha": (1.0, math.nan, "alpha: expected float, got nan", 1.5, "alpha: must lie in [0, 1]"),
    "shift_round": (None, 2.5, "shift_round: expected int, got 2.5", 11,
                    "shift_round: must lie in [1, 10]"),
    "shift_fraction": (0.5, "half", "shift_fraction: expected float, got 'half'", -0.5,
                       "shift_fraction: must lie in [0, 1]"),
    "queries_path": (None, 1, "queries_path: expected str, got 1", "q.orag", _DUMP),
    "items_path": (None, {}, "items_path: expected str, got {}", "i.orag", _DUMP),
    "labels_path": (None, ["l"], "labels_path: expected str, got ['l']", "l.txt", _DUMP),
}


def _config_error(tmp_path, payload) -> str:
    """The message a payload fails with, the same for a JSON file and a direct build."""
    messages = []
    for build in (lambda: load_config(_write_config(tmp_path, payload)),
                  lambda: RunConfig(**payload)):
        with pytest.raises(ValidationError) as e:
            build()
        messages.append(str(e.value))
    assert messages[0] == messages[1]
    return messages[0]


@pytest.mark.parametrize("key", list(_SURFACE))
def test_config_surface(tmp_path, key):
    assert [f.name for f in dataclasses.fields(RunConfig)] == list(_SURFACE)
    default, wrong_type, type_message, out_of_range, range_message = _SURFACE[key]
    if default is REQUIRED:
        payload = {k: v for k, v in _BASE.items() if k != key}
        with pytest.raises(ValidationError, match=re.escape(f"missing required keys: ['{key}']")):
            load_config(_write_config(tmp_path, payload))
    else:
        value = getattr(load_config(_write_config(tmp_path, _BASE)), key)
        assert value == default and type(value) is type(default)
    assert _config_error(tmp_path, {**_BASE, key: wrong_type}) == type_message
    assert _config_error(tmp_path, {**_BASE, key: out_of_range}) == range_message
    # Type faults come first, in field order, then range faults; an enum's unknown
    # value is a type fault.
    other = "T" if key == "labels_path" else "labels_path"
    two = {**_BASE, key: out_of_range, other: _SURFACE[other][1]}
    first = range_message if range_message.startswith(f"{key}: expected") else _SURFACE[other][2]
    assert _config_error(tmp_path, two) == first


@pytest.mark.parametrize("first, second", [
    ("c", "T"), ("T", "K"), ("K", "repeat_passes"), ("repeat_passes", "shift_round"),
    ("shift_round", "seed"), ("seed", "sigma"), ("sigma", "alpha"), ("alpha", "shift_fraction"),
    ("shift_fraction", "queries_path"),
])
def test_config_range_faults_are_reported_in_check_order(tmp_path, first, second):
    payload = {**_BASE, first: _SURFACE[first][3], second: _SURFACE[second][3]}
    assert _config_error(tmp_path, payload) == _SURFACE[first][4]


def test_each_episode_field_is_declared_once():
    # `RunConfig` takes the fields it shares with `EpisodeConfig` from `EpisodeConfig`.
    # A second declaration anywhere in the package, as a class annotation or as a typed
    # `(name, type, ...)` field entry, could drift from the first.
    run, episode = (get_type_hints(cls) for cls in (RunConfig, EpisodeConfig))
    shared = {name for name in run.keys() & episode.keys() if run[name] == episode[name]}
    assert shared == {"T", "I", "d", "K", "update_mode", "projection", "repeat_passes"}
    declared = Counter()
    for path in Path(orag.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                declared.update(s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
            elif (isinstance(node, ast.Tuple) and len(node.elts) in (2, 3)
                  and isinstance(node.elts[0], ast.Constant)
                  and isinstance(node.elts[1], (ast.Name, ast.Subscript))):
                declared[node.elts[0].value] += 1
    assert {name: declared[name] for name in shared} == dict.fromkeys(shared, 1)


def test_readme_lists_each_config_key_once_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in readme.splitlines() if line.startswith("| `")]
    assert [key.strip("`") for key, _, _ in rows] == list(_SURFACE)
    for (_, _, default), (key, (value, *_)) in zip(rows, _SURFACE.items()):
        expected = "required" if value is REQUIRED else f"`{json.dumps(getattr(value, 'value', value))}`"
        assert default == expected, key


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


def test_event_log_line_that_is_not_an_object_is_a_schema_error(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1]\n")
    with pytest.raises(SchemaError, match="line 1: expected a JSON object"):
        read_event_log(str(path))


def test_event_log_into_a_missing_directory_is_io_error(tmp_path):
    with pytest.raises(IoError):
        write_event_log(_records(), str(tmp_path / "missing" / "events.jsonl"))


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


def test_simulated_multihop_log_round_trips(tmp_path):
    cfg = _write_config(tmp_path, {"T": 20, "I": 10, "d": 4, "seed": 0, "variant": "multihop"})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    records = read_event_log(str(out / "events.jsonl"))
    assert [(r.t, r.hop) for r in records] == [(t, h) for t in range(1, 21) for h in (1, 2)]
    write_event_log(records, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == (out / "events.jsonl").read_bytes()


def _hop_log(tmp_path, t_hops):
    path = tmp_path / "hops.jsonl"
    path.write_text("".join(
        json.dumps({"t": t, "query_id": "q", "chosen": "a", "success": True, "propensity": 0.5,
                    "eta": 0.1, **({} if hop is None else {"hop": hop})}) + "\n"
        for t, hop in t_hops))
    return str(path)


def test_event_log_hops_and_plain_rounds_mix(tmp_path):
    t_hops = [(1, None), (2, 1), (2, 2), (2, 3), (3, None), (5, 1), (6, 1), (6, 2)]
    assert [(r.t, r.hop) for r in read_event_log(_hop_log(tmp_path, t_hops))] == t_hops


@pytest.mark.parametrize("t_hops, line", [
    ([(1, 0)], 1),
    ([(1, 1), (1, 1)], 2),
    ([(1, 1), (1, 3)], 2),
    ([(2, 2)], 1),
    ([(1, 1), (2, 2)], 2),
    ([(1, 1), (1, None)], 2),
    ([(1, None), (1, 1)], 2),
    ([(1, None), (1, 2)], 2),
], ids=["hop-0", "repeated-hop", "skipped-hop", "opens-at-hop-2", "new-t-at-hop-2",
        "no-hop-at-same-t", "hop-1-at-same-t", "hop-2-after-no-hop"])
def test_event_log_hop_rule_cites_the_line(tmp_path, t_hops, line):
    with pytest.raises(SchemaError, match=f"^line {line}: "):
        read_event_log(_hop_log(tmp_path, t_hops))


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


def test_a_dump_run_needs_an_rng(tmp_path):
    # A dump holds no seed to derive the sampler's stream from.
    env = ingest_embedding_dump(*_dump(tmp_path))
    episode = EpisodeConfig(T=2, I=3, d=4)
    with pytest.raises(InvalidConfig, match="rng"):
        run_episode(env, episode)
    assert len(run_episode(env, episode, rng=RandomSource(0)).rounds) == 2


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
