"""Span tracer for the benchmark's traced runs.

The tracer replaces public functions of the `orag` modules, at the names the
calling modules look them up by, with wrappers that record one span per call:
(name, start, end, parent span, round id, count). Spans stay in memory until
the run ends. Nothing inside `src/` is changed; `uninstall` restores every
original.

A round starts at each `Environment.query_at` call, which every workload makes
once per round before the round's library calls.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

from orag import catalog, cli, io_utils, learner, metrics, policy, simulator, variants

_UNIFORMS = "uniforms"


def _rows_written(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["deltas"])


# (span name, [(owner, attribute), ...], count).
# The owners are every module that looks the function up by that name, or
# the class that owns a method.
SPEC = [
    ("policy.score", [(learner, "score"), (variants, "score"), (simulator, "score")], None),
    ("policy.sample_one", [(learner, "sample_one"), (variants, "sample_one")], _UNIFORMS),
    ("policy.sample_k", [(variants, "sample_k_without_replacement")], _UNIFORMS),
    ("learner.estimate_full",
     [(learner, "estimate_gradient_full"), (variants, "estimate_gradient_full")], None),
    ("learner.estimate_chosen",
     [(learner, "estimate_gradient_chosen_only"), (variants, "estimate_gradient_chosen_only")],
     None),
    ("learner.apply_update", [(learner, "apply_update"), (variants, "apply_update")], None),
    ("learner.step", [(learner, "step"), (simulator, "step"), (variants, "step")], None),
    ("variants.step_with_rerank", [(variants, "step_with_rerank")], None),
    ("variants.apply_delta", [(variants, "apply_delta")], None),
    ("catalog.update_rows", [(catalog.Catalog, "update_rows")], _rows_written),
    ("catalog.add_item", [(catalog.Catalog, "add_item")], None),
    ("catalog.remove_item", [(catalog.Catalog, "remove_item")], None),
    ("catalog.snapshot_write", [(catalog, "write_snapshot"), (cli, "write_snapshot")], None),
    ("catalog.snapshot_read", [(catalog, "read_snapshot"), (io_utils, "read_snapshot")], None),
    ("catalog.build", [(simulator, "initial_catalog"), (cli, "initial_catalog")], None),
    ("simulator.make_environment", [(simulator, "make_environment"), (cli, "make_environment")],
     None),
    ("simulator.query_at", [(simulator.Environment, "query_at")], None),
    ("simulator.run_episode", [(simulator, "run_episode"), (cli, "run_episode")], None),
    ("cli.run_from_config", [(cli, "run_from_config")], None),
    ("io_utils.load_config", [(io_utils, "load_config"), (cli, "load_config")], None),
    ("io_utils.write_event_log", [(io_utils, "write_event_log"), (cli, "write_event_log")], None),
    ("io_utils.read_event_log", [(io_utils, "read_event_log")], None),
    ("metrics.train_oracle", [(metrics, "train_oracle"), (cli, "train_oracle")], None),
    ("metrics.total_loss", [(metrics, "total_loss")], None),
    ("metrics.regret_curve", [(metrics, "regret_curve"), (cli, "regret_curve")], None),
]

ROUND_MARKER = "simulator.query_at"

# Per-round layer metrics: per-round sum of inclusive span time, in us.
ROUND_LAYERS = {
    "policy.score": "policy.score_us",
    "policy.sample_one": "policy.sample_us",
    "policy.sample_k": "policy.sample_us",
    "learner.estimate_full": "learner.estimate_us",
    "learner.estimate_chosen": "learner.estimate_us",
    "learner.apply_update": "learner.apply_update_us",
    "catalog.update_rows": "catalog.update_rows_us",
    "simulator.query_at": "simulator.query_at_us",
}
# Per-round self time (span minus its child spans) of the round's step function.
ROUND_SELF = {
    "learner.step": "round.step_self_us",
    "variants.step_with_rerank": "round.step_self_us",
}
# Per-call layer metrics: median inclusive time of one call, in ms.
CALL_LAYERS = {
    "catalog.build": "catalog.build_ms",
    "simulator.make_environment": "simulator.make_environment_ms",
    "io_utils.load_config": "io_utils.load_config_ms",
    "catalog.snapshot_write": "catalog.snapshot_write_ms",
    "catalog.snapshot_read": "catalog.snapshot_read_ms",
    "io_utils.write_event_log": "io_utils.write_event_log_ms",
    "io_utils.read_event_log": "io_utils.read_event_log_ms",
}


class Tracer:
    """Records spans for every function in `SPEC` while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round, count]
        self._stack: list[int] = []
        self._round = 0
        self._uniforms = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for name, owners, count in SPEC:
            for owner, attr in owners:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
        original_uniform = policy.RandomSource.__dict__["uniform"]
        self._saved.append((policy.RandomSource, "uniform", original_uniform))

        def uniform(rng):
            self._uniforms += 1
            return original_uniform(rng)

        policy.RandomSource.uniform = uniform

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        marks_round = name == ROUND_MARKER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if marks_round:
                self._round += 1
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._round, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            uniforms = self._uniforms
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if count == _UNIFORMS:
                    rec[5] = self._uniforms - uniforms
                elif count is not None:
                    rec[5] = count(args, kwargs)

        return wrapper

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "round", "count")
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def summary(self) -> tuple[dict, dict]:
        """(per-layer metrics, per-span-name statistics) over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, rnd, n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        by_name: dict[str, list] = defaultdict(list)
        for k, (name, start, end, parent, rnd, n) in enumerate(self.spans):
            dur = end - start
            by_name[name].append((dur, dur - child[k], n, rnd))
            if name in ROUND_LAYERS:
                rounds[rnd][ROUND_LAYERS[name]] += dur * 1e6
            if name in ROUND_SELF:
                rounds[rnd][ROUND_SELF[name]] += (dur - child[k]) * 1e6
            if name == "policy.score":
                rounds[rnd]["simulator.score_calls_per_round"] += 1
            if name in ("policy.sample_one", "policy.sample_k"):
                rounds[rnd]["policy.uniforms"] += n
            if name == "catalog.update_rows":
                rounds[rnd]["catalog.rows_written"] += n
        # Rounds are those opened by a query fetch and holding a step.
        per_round = [r for r in rounds.values() if "round.step_self_us" in r]
        layers = {}
        keys = set(ROUND_LAYERS.values()) | set(ROUND_SELF.values()) | {
            "simulator.score_calls_per_round", "policy.uniforms", "catalog.rows_written"}
        for key in sorted(keys):
            layers[key] = statistics.median(r.get(key, 0.0) for r in per_round)
        for name, key in CALL_LAYERS.items():
            layers[key] = statistics.median(d for d, _, _, _ in by_name[name]) * 1e3
        spans = {
            name: {
                "calls": len(v),
                "median_us": statistics.median(d for d, _, _, _ in v) * 1e6,
                "self_median_us": statistics.median(s for _, s, _, _ in v) * 1e6,
                "total_s": sum(d for d, _, _, _ in v),
            }
            for name, v in sorted(by_name.items())
        }
        return layers, spans

    def bad_draws(self, items_per_call: int) -> int:
        """Sampling calls that did not draw exactly one uniform per item drawn."""
        return sum(1 for rec in self.spans
                   if rec[0] in ("policy.sample_one", "policy.sample_k") and rec[5] != items_per_call)
