"""The benchmark's tracer patches library functions by the names callers look
them up by. These tests fail when a refactor drops or bypasses one of those
names, so the break shows in the unit suite and not only in a benchmark run."""

import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402

from orag.catalog import Catalog  # noqa: E402
from orag.learner import LearningRateSchedule, ScheduleKind, UpdateMode  # noqa: E402
from orag.policy import QueryEmbedding, RandomSource  # noqa: E402
from orag.variants import make_stub_reranker  # noqa: E402


def _patched():
    targets = [(owner, attr) for _, owners, _ in tracer.SPEC for owner, attr in owners]
    targets.append((tracer.policy.RandomSource, "uniform"))
    return {(owner, attr): owner.__dict__[attr] for owner, attr in targets}


def test_tracer_restores_every_patched_attribute():
    before = _patched()
    with tracer.Tracer():
        during = _patched()
    after = _patched()
    for key, original in before.items():
        assert during[key] is not original, key
        assert after[key] is original, key


def test_traced_steps_reach_every_update_layer():
    catalog = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [0.6, 0.8])])
    q = QueryEmbedding(np.array([1.0, 0.0]), query_id="q1")
    schedule = LearningRateSchedule(ScheduleKind.CONSTANT, 0.1)
    oracle = lambda t, chosen: chosen == "a"
    rerank = make_stub_reranker(1.0, lambda qid: "a", RandomSource(1))
    with tracer.Tracer() as tr:
        tracer.learner.step(q, catalog, RandomSource(0), schedule, UpdateMode.FULL, 1, oracle)
        plain = len(tr.spans)
        tracer.variants.step_with_rerank(
            q, catalog, 2, rerank, RandomSource(0), schedule, 2, oracle,
            update_mode=UpdateMode.CHOSEN_ONLY,
        )
    names = {rec[0] for rec in tr.spans}
    assert {
        "learner.step", "variants.step_with_rerank", "policy.score", "policy.sample_one",
        "policy.sample_k", "learner.estimate_full", "learner.estimate_chosen",
        "learner.apply_update", "catalog.update_rows",
    } <= names
    # The row count comes from `update_rows`' second positional argument: every
    # row for the full step, one for the chosen-only rerank step.
    assert [rec[5] for rec in tr.spans if rec[0] == "catalog.update_rows"] == [len(catalog), 1]
    # Each round makes one span per layer, and its sampling span draws 1 or K uniforms.
    for spans, uniforms in ((tr.spans[:plain], 1), (tr.spans[plain:], 2)):
        counts = Counter(rec[0] for rec in spans)
        for layer in ("policy.score", "learner.apply_update", "catalog.update_rows"):
            assert counts[layer] == 1, layer
        assert counts["learner.estimate_full"] + counts["learner.estimate_chosen"] == 1
        sampling = [rec[5] for rec in spans if rec[0] in ("policy.sample_one", "policy.sample_k")]
        assert sampling == [uniforms]


def test_a_traced_offline_episode_spans_each_layer_once_per_round():
    # The offline workload's rounds, through `run_episode`: a trim that calls a
    # layer by a name the tracer does not patch drops its span from every round.
    ep = tracer.simulator.EpisodeConfig(
        T=20, I=12, d=4, schedule=LearningRateSchedule(ScheduleKind.CONSTANT, 0.2))
    env = tracer.simulator.make_environment(ep, 8, noise_scale=0.1)
    with tracer.Tracer() as tr:
        tracer.simulator.run_episode(env, ep)
    counts, drawn, written = defaultdict(Counter), defaultdict(list), defaultdict(list)
    for name, _, _, _, rnd, n in tr.spans:
        counts[rnd][name] += 1
        if name == "policy.sample_one":
            drawn[rnd].append(n)
        if name == "catalog.update_rows":
            written[rnd].append(n)
    assert sorted(counts) == list(range(21))  # round 0: the build and the episode span
    for rnd in range(1, 21):
        assert counts[rnd]["policy.score"] == 2, rnd
        for layer in ("simulator.query_at", "learner.step", "learner.estimate_full",
                      "learner.apply_update"):
            assert counts[rnd][layer] == 1, (rnd, layer)
        assert drawn[rnd] == [1] and written[rnd] == [ep.I], rnd


def test_traced_oracle_evaluates_the_loss_once_per_candidate(monkeypatch):
    # The benchmark divides the oracle's passes by these spans.
    rng = np.random.default_rng(0)
    init = Catalog(3, [(f"i{k}", rng.normal(size=3)) for k in range(5)])
    events = [(rng.normal(size=3), f"i{int(rng.integers(5))}") for _ in range(40)]
    losses = []
    original = tracer.metrics.total_loss

    def recorded(*args, **kwargs):
        losses.append(original(*args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(tracer.metrics, "total_loss", recorded)
    with tracer.Tracer() as tr:
        fit = tracer.metrics.train_oracle(events, init, passes=30, lr=20.0)
    spans = sum(1 for rec in tr.spans if rec[0] == "metrics.total_loss")
    # Each candidate worse than the loss accepted so far is one backtrack.
    accepted, backtracks = losses[0], 0
    for loss in losses[1:]:
        if loss <= accepted:
            accepted = loss
        else:
            backtracks += 1
    assert backtracks >= 1 and accepted == fit.loss
    assert spans == len(losses) == fit.passes + 1 + backtracks


def test_benchmark_selftest_passes():
    # The benchmark's self-tests at tiny sizes (about 2 s): its counts, units,
    # checks and fingerprints, run against this checkout's library.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
