"""Run configuration, JSONL event logs, and embedding-dump ingestion."""

from __future__ import annotations

import json
import math
from dataclasses import field, fields, make_dataclass
from typing import Optional, get_type_hints

from .catalog import ItemId, ProjectionMode, read_snapshot
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    IoError,
    OragError,
    ParseError,
    SchemaError,
    UnknownId,
    ValidationError,
    check_range,
    field_checks,
)
from .learner import LearningRateSchedule, RoundRecord, ScheduleKind
from .simulator import Environment, EpisodeConfig, Variant, check_shift_round


class _RunRules:
    """`RunConfig`'s checks and its episode; `RunConfig` adds the fields."""

    def __post_init__(self):
        """Every config rule runs from here: a config built here gets exactly the
        checks a JSON file gets, each failure a `ValidationError` naming its field.
        Frozen, so no field changes after its check."""
        for name, check in _CONFIG_CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name)))
        try:  # c, T, I, d, K, repeat_passes, the variants' rules, then shift_round's range
            episode = self.episode()
            if self.K != 1 and self.variant is not Variant.RERANK:
                raise InvalidConfig(f"K: only the rerank variant draws K candidates; "
                                    f"got K={self.K} with variant {self.variant.value}")
            if self.variant is Variant.DYNAMIC and self.I < 2:
                raise InvalidConfig(f"dynamic variant withholds half the items: "
                                    f"I must be >= 2, got {self.I}")
            if self.variant is Variant.MULTIHOP and self.shift_round is not None:
                raise InvalidConfig("shift_round: a multihop round's hops bring their own "
                                    "targets, so there is nothing to shift")
            check_shift_round(episode, self.shift_round)
        except (InvalidConfig, ValueError) as e:
            raise ValidationError(str(e)) from None
        check_range("seed", self.seed, 0, tp=int)
        for name, high in [("sigma", math.inf), ("sigma_init", math.inf), ("alpha", 1),
                           ("shift_fraction", 1)]:
            check_range(name, getattr(self, name), 0, high)
        paths = (self.queries_path, self.items_path, self.labels_path)
        if paths == (None, None, None):
            return
        for key, honoured in [("queries_path, items_path, labels_path", None not in paths),
                              ("variant", self.variant in (Variant.PLAIN, Variant.RERANK)),
                              ("repeat_passes", self.repeat_passes == 1),
                              ("shift_round", self.shift_round is None)]:
            if not honoured:
                raise ValidationError(f"{key}: a dump run takes all three paths and is one "
                                      "pass of a plain or rerank episode")

    def episode(self) -> EpisodeConfig:
        return EpisodeConfig(**{key: getattr(self, key) for key in _KEYS if type(key) is str},
                             schedule=LearningRateSchedule(self.schedule, self.c))


# The config keys in order. A bare name is an episode field, with the type and
# default `EpisodeConfig` declares. `make_dataclass` keeps this order, where a
# shared base class would put the episode fields first.
_KEYS = ["T", "I", "d", ("seed", int), "K", ("variant", Variant, Variant.PLAIN), "update_mode",
         ("schedule", ScheduleKind, ScheduleKind.INVERSE_SQRT), ("c", float, 1e-5),
         "projection", "repeat_passes", ("sigma", float, 0.3), ("sigma_init", float, 0.0),
         ("alpha", float, 1.0), ("shift_round", Optional[int], None),
         ("shift_fraction", float, 0.5), ("queries_path", Optional[str], None),
         ("items_path", Optional[str], None), ("labels_path", Optional[str], None)]
_TYPES = get_type_hints(EpisodeConfig)
_EPISODE = {f.name: (f.name, _TYPES[f.name], field(default=f.default))
            for f in fields(EpisodeConfig)}
RunConfig = make_dataclass("RunConfig", [_EPISODE.get(key, key) for key in _KEYS],
                           bases=(_RunRules,), namespace={"__module__": __name__}, frozen=True)
_CONFIG_CHECKS, _CONFIG_REQUIRED = field_checks(RunConfig)


def _read_text(path: str, error: type[OragError]) -> str:
    r"""A UTF-8 text file's contents; `OSError` is an `IoError`, bytes that are not
    UTF-8 the caller's `error`. Split lines with `.split("\n")`, as `readlines` does:
    `str.splitlines` also breaks at U+2028, form feeds and the like."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise IoError(str(e)) from None
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8: {e}") from None


def load_config(path: str, seed: int | None = None) -> RunConfig:
    """Read a JSON run configuration, `seed` overriding the file's; `RunConfig` checks it."""
    try:
        raw = json.loads(_read_text(path, ParseError))
    except (ValueError, RecursionError) as e:  # bad JSON, a >4300-digit int, deep nesting
        raise ParseError(f"{path}: {e}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a single JSON object")
    unknown = set(raw) - set(_CONFIG_CHECKS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_REQUIRED - set(raw)
    if missing:
        raise ValidationError(f"missing required keys: {sorted(missing)}")
    if seed is not None:
        raw["seed"] = seed
    return RunConfig(**raw)


# -- JSONL event logs -------------------------------------------------------

_EVENT_CHECKS, _EVENT_REQUIRED = field_checks(RoundRecord)
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(row, sort_keys=True)
_encode_str = json.encoder.encode_basestring_ascii  # the encoder's own string escaping


# `json.dumps(v)`'s text for one field's value: the field's usual exact type is
# formatted here as the encoder formats it, any other value (a NaN or infinite
# float, a numpy scalar, ...) by `_EVENT_ENCODER` itself, which may reject it.
def _json_float(v) -> str:
    return float.__repr__(v) if type(v) is float and math.isfinite(v) else _EVENT_ENCODER.encode(v)


def _json_int(v) -> str:
    return int.__repr__(v) if type(v) is int else _EVENT_ENCODER.encode(v)


def _json_str(v) -> str:
    return _encode_str(v) if type(v) is str else _EVENT_ENCODER.encode(v)


def write_event_log(records: list[RoundRecord], path: str) -> None:
    """One JSON object per line, keys sorted, `generation`, `hop` and `loss` left out
    when `None`: each line is `json.dumps(row, sort_keys=True)`'s bytes, formatted
    as one string with no dict or tuple per record."""
    lines = []
    for r in records:
        generation, hop, loss = r.generation, r.hop, r.loss
        optional = ((f', "generation": {_json_int(generation)}' if generation is not None else "")
                    + (f', "hop": {_json_int(hop)}' if hop is not None else "")
                    + (f', "loss": {_json_float(loss)}' if loss is not None else ""))
        lines.append(f'{{"chosen": {_json_str(r.chosen)}, "eta": {_json_float(r.eta)}{optional}, '
                     f'"propensity": {_json_float(r.propensity)}, '
                     f'"query_id": {_json_str(r.query_id)}, '
                     f'"success": {"true" if r.success else "false"}, "t": {_json_int(r.t)}}}\n')
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(lines))
    except OSError as e:
        raise IoError(str(e)) from None


def read_event_log(path: str) -> list[RoundRecord]:
    """The records of a JSONL event log. A record without `hop` has a `t` above the
    previous record's; hop h opens a round at h = 1 with such a `t`, or follows hop
    h - 1 at the previous record's `t`."""
    records: list[RoundRecord] = []
    last_t, last_hop = 0, None
    for lineno, line in enumerate(_read_text(path, SchemaError).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError):  # also a >4300-digit int or deep nesting
            raise SchemaError(f"line {lineno}: not valid JSON") from None
        if not isinstance(row, dict):
            raise SchemaError(f"line {lineno}: expected a JSON object")
        keys = set(row)
        if not _EVENT_REQUIRED <= keys or keys - set(_EVENT_CHECKS):
            raise SchemaError(f"line {lineno}: bad key set {sorted(keys)}")
        try:
            rec = RoundRecord(**{k: _EVENT_CHECKS[k](v) for k, v in row.items()})
        except ValidationError as e:
            raise SchemaError(f"line {lineno}: {e}") from None
        if rec.hop is None and rec.t <= last_t:
            raise SchemaError(f"line {lineno}: t must be a strictly increasing integer")
        if rec.hop is not None and not (rec.hop == 1 and rec.t > last_t
                                        or rec.t == last_t and rec.hop - 1 == last_hop):
            raise SchemaError(f"line {lineno}: hop {rec.hop} at t={rec.t} neither opens a "
                              "round at hop 1 nor follows the previous hop of its round")
        if not (0.0 < rec.propensity <= 1.0):
            raise SchemaError(f"line {lineno}: propensity outside (0, 1]")
        if rec.eta <= 0 or (rec.generation is not None and rec.generation < 0):
            raise SchemaError(f"line {lineno}: eta must be > 0 and generation >= 0")
        last_t, last_hop = rec.t, rec.hop
        rec.propensity, rec.eta = float(rec.propensity), float(rec.eta)
        records.append(rec)
    return records


# -- embedding dump ingestion ----------------------------------------------


def ingest_embedding_dump(queries_path: str, items_path: str, labels_path: str,
                          projection: ProjectionMode = ProjectionMode.NONE) -> Environment:
    """Load query/item vectors (snapshot layout; items projected) and query -> item labels
    as the stream of an episode: round t is the t-th labelled query, in the dump's id
    order, and its label is the round's target. The items are the stream's `catalog`."""
    queries_cat = read_snapshot(queries_path)
    catalog = read_snapshot(items_path, projection)
    if queries_cat.dim != catalog.dim:
        raise DimensionMismatch(
            f"query dim {queries_cat.dim} != item dim {catalog.dim}"
        )
    bad = [i for cat in (queries_cat, catalog) for i in cat.ids if i.split() != [i]]
    if bad:  # a label line splits at whitespace, so it could never name such an id
        raise SchemaError(f"id {bad[0]!r} is empty or holds whitespace")
    labels: dict[str, ItemId] = {}
    for lineno, line in enumerate(_read_text(labels_path, SchemaError).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SchemaError(f"line {lineno}: expected 'query_id item_id'")
        qid, iid = parts
        if qid not in queries_cat:
            raise UnknownId(f"line {lineno}: unknown query id {qid!r}")
        if iid not in catalog:
            raise UnknownId(f"line {lineno}: unknown item id {iid!r}")
        if qid in labels:
            raise SchemaError(f"line {lineno}: query id {qid!r} is labelled twice")
        labels[qid] = iid
    keep = [k for k, q in enumerate(queries_cat.ids) if q in labels]
    query_ids = [queries_cat.ids[k] for k in keep]
    return Environment(query_ids, queries_cat.matrix()[keep], [labels[q] for q in query_ids],
                       tuple(catalog.ids), catalog=catalog)
