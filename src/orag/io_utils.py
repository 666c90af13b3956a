"""Run configuration, JSONL event logs, and embedding-dump ingestion."""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional, get_args, get_type_hints

import numpy as np

from .catalog import Catalog, ItemId, ProjectionMode, read_snapshot
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    IoError,
    ParseError,
    SchemaError,
    UnknownId,
    ValidationError,
)
from .learner import LearningRateSchedule, RoundRecord, ScheduleKind, UpdateMode
from .simulator import EpisodeConfig, Variant


@dataclass
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
# Ranges `config.episode()` does not check.
_RANGES = [("seed", 0, np.inf), ("sigma", 0, np.inf), ("sigma_init", 0, np.inf),
           ("alpha", 0, 1), ("shift_fraction", 0, 1)]


def load_config(path: str, seed: int | None = None) -> RunConfig:
    """Read, validate, and default-fill a JSON run configuration; `seed` overrides the file's."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise IoError(str(e)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
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
    config = RunConfig(**{k: _CONFIG_CHECKS[k](v) for k, v in raw.items()})
    try:  # T, I, d, K, repeat_passes and c
        config.episode()
    except (InvalidConfig, ValueError) as e:
        raise ValidationError(str(e)) from None
    for name, low, high in _RANGES:
        if not low <= getattr(config, name) <= high:
            raise ValidationError(f"{name}: must lie in [{low}, {high}]")
    return config


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
        lines.append(_EVENT_ENCODER.encode(row) + "\n")
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(lines))
    except OSError as e:
        raise IoError(str(e)) from None


def read_event_log(path: str) -> list[RoundRecord]:
    records: list[RoundRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise IoError(str(e)) from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8: {e}") from None
    last_t = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
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
        if rec.t <= last_t:
            raise SchemaError(f"line {lineno}: t must be a strictly increasing integer")
        if not (0.0 < rec.propensity <= 1.0):
            raise SchemaError(f"line {lineno}: propensity outside (0, 1]")
        if rec.eta <= 0 or (rec.generation is not None and rec.generation < 0):
            raise SchemaError(f"line {lineno}: eta must be > 0 and generation >= 0")
        last_t = rec.t
        rec.propensity, rec.eta = float(rec.propensity), float(rec.eta)
        records.append(rec)
    return records


# -- embedding dump ingestion ----------------------------------------------


@dataclass
class ReplayStream:
    """Offline query stream equivalent to the simulator's interface."""

    query_ids: list[str]
    queries: np.ndarray
    catalog: Catalog
    labels: dict[str, ItemId]

    def __len__(self) -> int:
        return len(self.query_ids)


def ingest_embedding_dump(queries_path: str, items_path: str, labels_path: str,
                          projection: ProjectionMode = ProjectionMode.NONE) -> ReplayStream:
    """Load query/item vectors (snapshot layout; items projected) and query -> item labels."""
    queries_cat = read_snapshot(queries_path)
    catalog = read_snapshot(items_path, projection)
    if queries_cat.dim != catalog.dim:
        raise DimensionMismatch(
            f"query dim {queries_cat.dim} != item dim {catalog.dim}"
        )
    labels: dict[str, ItemId] = {}
    try:
        with open(labels_path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise IoError(str(e)) from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"{labels_path}: not UTF-8: {e}") from None
    for lineno, line in enumerate(lines, start=1):
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
    queries = queries_cat.matrix()[keep]
    return ReplayStream(query_ids=query_ids, queries=queries, catalog=catalog, labels=labels)
