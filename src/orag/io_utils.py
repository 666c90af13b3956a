"""Run configuration, JSONL event logs, and embedding-dump ingestion."""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional, get_args, get_type_hints

import numpy as np

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
)
from .learner import LearningRateSchedule, RoundRecord, ScheduleKind, UpdateMode
from .simulator import Environment, EpisodeConfig, Variant, check_shift_round


@dataclass(frozen=True)
class RunConfig:
    T: int
    I: int
    d: int
    seed: int
    K: int = 1
    variant: Variant = Variant.PLAIN
    update_mode: UpdateMode = UpdateMode.FULL
    schedule: ScheduleKind = ScheduleKind.INVERSE_SQRT
    c: float = 1e-5
    projection: ProjectionMode = ProjectionMode.NONE
    repeat_passes: int = 1
    sigma: float = 0.3
    sigma_init: float = 0.0
    alpha: float = 1.0
    shift_round: Optional[int] = None
    shift_fraction: float = 0.5
    queries_path: Optional[str] = None
    items_path: Optional[str] = None
    labels_path: Optional[str] = None

    def __post_init__(self):
        """The one home of the config rules: a config built here gets exactly
        the checks a JSON file gets, each failure a `ValidationError` naming its
        field. Frozen, so no field changes after its check."""
        for name, check in _CONFIG_CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name)))
        try:  # T, I, d, K, repeat_passes, c and shift_round
            check_shift_round(self.episode(), self.shift_round)
        except (InvalidConfig, ValueError) as e:
            raise ValidationError(str(e)) from None
        for name, low, high in _RANGES:
            value = getattr(self, name)
            if value is not None and not low <= value <= high:
                raise ValidationError(f"{name}: must lie in [{low}, {high}]")
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
        return EpisodeConfig(
            T=self.T,
            I=self.I,
            d=self.d,
            K=self.K,
            variant=self.variant,
            update_mode=self.update_mode,
            schedule=LearningRateSchedule(self.schedule, self.c),
            projection=self.projection,
            repeat_passes=self.repeat_passes,
        )


def _field_checks(cls) -> tuple[dict, set[str]]:
    """(field name -> check, required field names) of a dataclass read from JSON.

    A check returns its value (an enum by value) or raises `ValidationError` naming
    the field: int rejects bool, float needs a finite number, Optional takes None."""
    checks = {}
    for name, tp in get_type_hints(cls).items():
        args = [a for a in get_args(tp) if a is not type(None)]
        checks[name] = _check_as(name, args[0] if args else tp, optional=bool(args))
    return checks, {f.name for f in fields(cls) if f.default is MISSING}


def _check_as(name: str, tp: type, optional: bool):
    values = [e.value for e in tp] if issubclass(tp, enum.Enum) else None

    def check(value):
        if type(value) is tp or tp is float and type(value) is int:
            if tp is not float or abs(value) <= sys.float_info.max:
                return value
        elif value is None and optional:
            return None
        elif values is not None and value in values:
            return tp(value)
        raise ValidationError(f"{name}: expected {values or tp.__name__}, got {value!r}")
    return check


_CONFIG_CHECKS, _CONFIG_REQUIRED = _field_checks(RunConfig)
# Ranges that neither `config.episode()` nor `check_shift_round` checks.
_RANGES = [("seed", 0, np.inf), ("sigma", 0, np.inf), ("sigma_init", 0, np.inf),
           ("alpha", 0, 1), ("shift_fraction", 0, 1)]


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

_EVENT_CHECKS, _EVENT_REQUIRED = _field_checks(RoundRecord)
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(row, sort_keys=True)


def write_event_log(records: list[RoundRecord], path: str) -> None:
    """One JSON object per line with a fixed key set; deterministic bytes."""
    lines = []
    for r in records:
        row = {"t": r.t, "query_id": r.query_id, "chosen": r.chosen,
               "success": bool(r.success), "propensity": r.propensity, "eta": r.eta}
        if r.loss is not None:
            row["loss"] = r.loss
        if r.generation is not None:
            row["generation"] = r.generation
        if r.hop is not None:
            row["hop"] = r.hop
        lines.append(_EVENT_ENCODER.encode(row) + "\n")
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
