import csv
import json
import os

import numpy as np
import pytest

from orag.catalog import Catalog, read_snapshot, write_snapshot
from orag.errors import ValidationError
from orag.cli import cli_main, run_from_config
from orag.io_utils import (
    RunConfig, ingest_embedding_dump, load_config, read_event_log, write_event_log)
from orag.learner import LearningRateSchedule, step
from orag.metrics import regret_curve, train_oracle
from orag.policy import QueryEmbedding, RandomSource
from orag.simulator import Environment, initial_catalog, make_environment

MINIMAL = {"I": 10, "d": 4, "T": 100, "seed": 1}


def _cfg(tmp_path, payload=MINIMAL, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_simulate_minimal_config(tmp_path):
    out = str(tmp_path / "run")
    code = cli_main(["simulate", "--config", _cfg(tmp_path), "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "events.jsonl"))
    assert os.path.exists(os.path.join(out, "catalog.orag"))


def test_simulate_is_byte_deterministic(tmp_path):
    outs = [str(tmp_path / f"run{k}") for k in (1, 2)]
    cfg = _cfg(tmp_path)
    for out in outs:
        assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    for name in ("events.jsonl", "catalog.orag"):
        assert _read(os.path.join(outs[0], name)) == _read(os.path.join(outs[1], name))


def test_seed_override_changes_the_log(tmp_path):
    cfg = _cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert cli_main(["simulate", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
    assert _read(os.path.join(out1, "events.jsonl")) != _read(os.path.join(out2, "events.jsonl"))


def test_seed_override_is_checked_like_the_config_seed(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    with pytest.raises(ValidationError, match="seed"):
        load_config(cfg, seed=-1)
    assert load_config(cfg, seed=5).seed == 5
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_missing_config_flag_exits_one(tmp_path, capsys):
    assert cli_main(["simulate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_validation_error_exits_one(tmp_path):
    bad = _cfg(tmp_path, {**MINIMAL, "foo": 1}, name="bad.json")
    assert cli_main(["simulate", "--config", bad, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("bad", [
    {"c": "x"}, {"alpha": "x"}, {"sigma_init": "y"}, {"shift_round": "x"}, {"T": True},
    {"sigma": float("nan")}, {"c": float("nan")}, {"shift_fraction": 2.0},
    {"c": 0}, {"c": 1e400}, {"repeat_passes": 0}, {"seed": -1}, {"projection": None},
])
def test_malformed_config_is_a_validation_error(tmp_path, bad):
    path = _cfg(tmp_path, {**MINIMAL, "schedule": "constant", **bad}, name="bad.json")
    with pytest.raises(ValidationError, match=next(iter(bad))):
        load_config(path)
    assert cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_non_utf8_config_exits_one(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MINIMAL).encode("utf-16-le"))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_regret_csv_matches_library_value(tmp_path):
    payload = {"I": 8, "d": 4, "T": 200, "seed": 3, "schedule": "constant", "c": 0.05,
               "sigma_init": 0.8}
    cfg_path = _cfg(tmp_path, payload, name="regret.json")
    out = str(tmp_path / "regret")
    assert cli_main(["regret", "--config", cfg_path, "--out", out, "--passes", "500"]) == 0
    with open(os.path.join(out, "regret.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 200

    cfg = load_config(cfg_path)
    env, log = run_from_config(cfg)
    init = initial_catalog(env, cfg.sigma_init, projection=cfg.projection)
    fit = train_oracle(list(zip(log.queries, log.true_items)), init, passes=500)
    ledger = regret_curve(log, fit.catalog)
    assert float(rows[-1]["cum_regret"]) == ledger.final_regret


def test_regret_csv_of_the_dynamic_variant_is_finite(tmp_path):
    # Half the items are withheld until mid-stream; their rounds have no online loss.
    payload = {"I": 20, "d": 4, "T": 200, "seed": 3, "variant": "dynamic"}
    out = str(tmp_path / "regret")
    assert cli_main(["regret", "--config", _cfg(tmp_path, payload), "--out", out,
                     "--passes", "50"]) == 0
    with open(os.path.join(out, "regret.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 200
    assert any(np.isnan(float(r["online_loss"])) for r in rows)
    assert all(np.isfinite(float(r[k])) for r in rows for k in ("oracle_loss", "cum_regret"))


def test_metrics_csv(tmp_path):
    out = str(tmp_path / "metrics")
    assert cli_main(["metrics", "--config", _cfg(tmp_path), "--out", out, "--k", "3"]) == 0
    with open(os.path.join(out, "metrics.csv")) as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    assert header == ["t", "recall_at_3", "ndcg_at_3", "success"]
    assert len(rows) == 100
    for _, recall, ndcg, success in rows:
        assert float(recall) in (0.0, 1.0)
        assert 0.0 <= float(ndcg) <= 1.0
        assert success in ("0", "1")


def test_metrics_k_below_one_exits_one_before_running(tmp_path, capsys):
    out = tmp_path / "metrics"
    assert cli_main(["metrics", "--config", _cfg(tmp_path), "--out", str(out), "--k", "0"]) == 1
    assert "--k" in capsys.readouterr().err
    assert not out.exists()


def test_multihop_regret_and_metrics_write_one_row_per_hop(tmp_path):
    # Each hop is one logged record, with its own query, target and loss.
    cfg = _cfg(tmp_path, {"I": 6, "d": 4, "T": 20, "seed": 1, "variant": "multihop"})
    out = tmp_path / "out"
    for command in ("simulate", "regret", "metrics"):
        assert cli_main([command, "--config", cfg, "--out", str(out), "--k", "3"]) == 0
    records = read_event_log(str(out / "events.jsonl"))
    assert [(r.t, r.hop) for r in records] == [(t, h) for t in range(1, 21) for h in (1, 2)]
    with open(out / "regret.csv", newline="") as f:
        regret = list(csv.DictReader(f))
    assert [int(row["t"]) for row in regret] == [r.t for r in records]
    assert [float(row["online_loss"]) for row in regret] == [r.loss for r in records]
    with open(out / "metrics.csv", newline="") as f:
        metrics = list(csv.DictReader(f))
    assert [(int(row["t"]), int(row["success"])) for row in metrics] == [
        (r.t, int(r.success)) for r in records]


def test_multihop_shift_round_exits_one_before_running(tmp_path, capsys):
    # A multihop round's hops bring their own targets: a shift of the stream's is a no-op.
    payload = {"I": 6, "d": 4, "T": 20, "seed": 1, "variant": "multihop",
               "shift_round": 5, "shift_fraction": 1.0}
    out = tmp_path / "run"
    assert cli_main(["simulate", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: shift_round")
    assert not out.exists()
    with pytest.raises(ValidationError, match="shift_round"):
        RunConfig(**payload)


def test_dynamic_with_one_item_exits_one_before_running(tmp_path, capsys):
    # The dynamic scenario withholds half the items, which would leave an empty catalog.
    payload = {"I": 1, "d": 4, "T": 20, "seed": 1, "variant": "dynamic"}
    out = tmp_path / "run"
    assert cli_main(["simulate", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "I must be >= 2" in err
    assert not out.exists()


def test_export_snapshot_round_trips(tmp_path):
    out = str(tmp_path / "exp")
    cfg_path = _cfg(tmp_path)
    assert cli_main(["export", "--config", cfg_path, "--out", out]) == 0
    snap = read_snapshot(os.path.join(out, "catalog.orag"))
    cfg = load_config(cfg_path)
    _, log = run_from_config(cfg)
    assert snap.ids == log.final_catalog.ids
    assert snap.matrix().tobytes() == log.final_catalog.matrix().tobytes()


def test_variant_configs_run(tmp_path):
    for variant, extra in [
        ("rerank", {"K": 4, "alpha": 1.0}),
        ("dynamic", {}),
        ("multihop", {}),
    ]:
        payload = {"I": 8, "d": 4, "T": 60, "seed": 2, "variant": variant, **extra}
        out = str(tmp_path / variant)
        code = cli_main(
            ["simulate", "--config", _cfg(tmp_path, payload, f"{variant}.json"), "--out", out]
        )
        assert code == 0, variant
        assert os.path.exists(os.path.join(out, "events.jsonl"))


def test_replay_over_embedding_dump(tmp_path):
    rng = np.random.default_rng(1)
    queries = Catalog(4, [(f"q{k}", rng.normal(size=4)) for k in range(6)])
    items = Catalog(4, [(f"doc{k}", rng.normal(size=4)) for k in range(4)])
    write_snapshot(queries, str(tmp_path / "q.orag"))
    write_snapshot(items, str(tmp_path / "i.orag"))
    labels = "".join(f"q{k} doc{k % 4}\n" for k in range(6))
    (tmp_path / "labels.txt").write_text(labels)
    payload = {
        "I": 4, "d": 4, "T": 6, "seed": 0,
        "queries_path": str(tmp_path / "q.orag"),
        "items_path": str(tmp_path / "i.orag"),
        "labels_path": str(tmp_path / "labels.txt"),
    }
    out = str(tmp_path / "replay")
    assert cli_main(["replay", "--config", _cfg(tmp_path, payload, "r.json"), "--out", out]) == 0
    with open(os.path.join(out, "events.jsonl")) as f:
        assert len(f.readlines()) == 6


def test_replay_projects_the_items_as_it_reads_them(tmp_path):
    # chosen_only steps 6 of 20 rows at most: the rest keep their read-in norm.
    rng = np.random.default_rng(2)
    queries = Catalog(4, [(f"q{k}", rng.normal(size=4)) for k in range(6)])
    items = Catalog(4, [(f"doc{k:02d}", 3.0 + rng.normal(size=4)) for k in range(20)])
    assert min(np.linalg.norm(v) for v in items.matrix()) > 1.0
    write_snapshot(queries, str(tmp_path / "q.orag"))
    write_snapshot(items, str(tmp_path / "i.orag"))
    (tmp_path / "labels.txt").write_text("".join(f"q{k} doc{k:02d}\n" for k in range(6)))
    payload = {
        "I": 20, "d": 4, "T": 6, "seed": 0, "projection": "unit_ball",
        "update_mode": "chosen_only",
        "queries_path": str(tmp_path / "q.orag"),
        "items_path": str(tmp_path / "i.orag"),
        "labels_path": str(tmp_path / "labels.txt"),
    }
    out = str(tmp_path / "replay")
    assert cli_main(["replay", "--config", _cfg(tmp_path, payload, "r.json"), "--out", out]) == 0
    final = read_snapshot(os.path.join(out, "catalog.orag"))
    assert final.max_row_norm() <= 1.0 + 1e-12


def test_replay_without_paths_exits_one(tmp_path):
    assert cli_main(["replay", "--config", _cfg(tmp_path), "--out", str(tmp_path / "x")]) == 1


def _dump_config(tmp_path, n_items=6, d=4, dtype=np.float64, **extra):
    """A dump of 10 queries (8 labelled, listed out of id order) over items of norm
    about 4, and a config that names it."""
    rng = np.random.default_rng(7)
    queries = Catalog(d, [(f"q{k:02d}", rng.normal(size=d)) for k in range(10)], dtype=dtype)
    items = Catalog(d, [(f"doc{k:02d}", 2.0 + rng.normal(size=d)) for k in range(n_items)])
    paths = {key: str(tmp_path / name) for key, name in
             [("queries_path", "q.orag"), ("items_path", "i.orag"), ("labels_path", "l.txt")]}
    write_snapshot(queries, paths["queries_path"])
    write_snapshot(items, paths["items_path"])
    labelled = [7, 0, 3, 1, 9, 4, 2, 5]
    (tmp_path / "l.txt").write_text(
        "".join(f"q{k:02d} doc{(3 * k) % n_items:02d}\n" for k in labelled))
    return {"T": len(labelled), "I": n_items, "d": d, "seed": 5, "schedule": "constant",
            "c": 0.5, **paths, **extra}


def _replay_reference(cfg):
    """The loop `orag replay` ran on its own: one `step` per labelled query, judged
    by the label file's line for that query."""
    stream = ingest_embedding_dump(cfg.queries_path, cfg.items_path, cfg.labels_path,
                                   cfg.projection)
    with open(cfg.labels_path, encoding="utf-8") as f:
        labels = dict(line.split() for line in f)
    schedule = LearningRateSchedule(cfg.schedule, cfg.c)
    rng = RandomSource(cfg.seed)
    records = []
    for t, qid in enumerate(stream.query_ids, start=1):
        q = QueryEmbedding(stream.queries[t - 1], query_id=qid)
        truth = labels[qid]
        records.append(step(q, stream.catalog, rng, schedule, cfg.update_mode, t,
                            lambda _t, chosen: chosen == truth))
    return records, stream.catalog


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("projection", ["none", "unit_ball"])
@pytest.mark.parametrize("update_mode", ["full", "chosen_only"])
def test_replay_matches_its_reference_loop(tmp_path, update_mode, projection, dtype):
    payload = _dump_config(tmp_path, dtype=dtype, update_mode=update_mode,
                           projection=projection)
    cfg_path = _cfg(tmp_path, payload)
    out = tmp_path / "replay"
    assert cli_main(["replay", "--config", cfg_path, "--out", str(out)]) == 0
    records, catalog = _replay_reference(load_config(cfg_path))
    write_event_log(records, str(tmp_path / "ref.jsonl"))
    rows = [json.loads(line) for line in _read(out / "events.jsonl").splitlines()]
    assert all(np.isfinite(row.pop("loss")) for row in rows)
    assert rows == [json.loads(line) for line in _read(tmp_path / "ref.jsonl").splitlines()]
    assert [r["query_id"] for r in rows] == ["q00", "q01", "q02", "q03", "q04", "q05", "q07", "q09"]
    write_snapshot(catalog, str(tmp_path / "ref.orag"))
    assert _read(out / "catalog.orag") == _read(tmp_path / "ref.orag")


def test_a_dump_run_asks_environment_query_at_once_per_round(tmp_path, monkeypatch):
    # Wrapped on the class, as a benchmark's round clock wraps it to mark rounds.
    calls = []
    query_at = Environment.__dict__["query_at"]
    monkeypatch.setattr(Environment, "query_at", lambda env, t: calls.append(t) or query_at(env, t))
    cfg = RunConfig(**_dump_config(tmp_path))
    env, log = run_from_config(cfg)
    assert calls == [r.t for r in log.rounds] == list(range(1, env.total_rounds + 1))
    assert len(calls) == cfg.T == 8


def test_replay_runs_the_rerank_variant(tmp_path):
    # K = I puts the target among the candidates and alpha = 1 picks it: every round succeeds.
    payload = _dump_config(tmp_path, variant="rerank", K=6, alpha=1.0)
    out = tmp_path / "replay"
    assert cli_main(["replay", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in _read(out / "events.jsonl").splitlines()]
    assert len(rows) == 8 and all(row["success"] for row in rows)


@pytest.mark.parametrize("command, column, key", [("metrics", "success", "success"),
                                                  ("regret", "online_loss", "loss")])
def test_metrics_and_regret_over_a_dump(tmp_path, command, column, key):
    # One row per labelled query, from the episode `replay` logs.
    cfg_path = _cfg(tmp_path, _dump_config(tmp_path))
    assert cli_main(["replay", "--config", cfg_path, "--out", str(tmp_path / "replay")]) == 0
    events = [json.loads(line) for line in _read(tmp_path / "replay" / "events.jsonl").splitlines()]
    out = tmp_path / command
    assert cli_main([command, "--config", cfg_path, "--out", str(out), "--passes", "20"]) == 0
    with open(out / f"{command}.csv") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["t"]) for r in rows] == [e["t"] for e in events] == list(range(1, 9))
    assert [float(r[column]) for r in rows] == [float(e[key]) for e in events]
    assert all(np.isfinite(float(v)) for r in rows for v in r.values())


def test_regret_over_a_dump_starts_its_oracle_from_the_dump_items(tmp_path):
    cfg_path = _cfg(tmp_path, _dump_config(tmp_path, projection="unit_ball"))
    out = tmp_path / "regret"
    assert cli_main(["regret", "--config", cfg_path, "--out", str(out), "--passes", "1"]) == 0
    cfg = load_config(cfg_path)
    _, log = run_from_config(cfg)
    init = read_snapshot(cfg.items_path, cfg.projection)
    fit = train_oracle(list(zip(log.queries, log.true_items)), init, passes=1)
    with open(out / "regret.csv") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[-1]["cum_regret"]) == regret_curve(log, fit.catalog).final_regret


def test_replay_of_a_config_it_cannot_honour_exits_one(tmp_path, capsys):
    # T, I, d and K describe a synthetic run, not this 6-item, d = 4 dump of 8 labels.
    payload = {**_dump_config(tmp_path), "variant": "rerank", "K": 5, "T": 999, "I": 50, "d": 16}
    out = tmp_path / "replay"
    assert cli_main(["replay", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: T, I, d")
    assert not (out / "events.jsonl").exists()


@pytest.mark.parametrize("bad", [
    {"T": 7}, {"I": 5}, {"d": 8}, {"variant": "dynamic"}, {"variant": "multihop"},
    {"repeat_passes": 2}, {"shift_round": 3}, {"labels_path": None}, {"queries_path": None},
])
@pytest.mark.parametrize("command", ["simulate", "replay", "export", "metrics", "regret"])
def test_dump_config_keys_a_dump_run_rejects_exit_one(tmp_path, capsys, command, bad):
    payload = {k: v for k, v in {**_dump_config(tmp_path), **bad}.items() if v is not None}
    out = tmp_path / "run"
    assert cli_main([command, "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


def test_a_directly_built_dump_config_is_checked(tmp_path):
    payload = _dump_config(tmp_path, repeat_passes=3)
    with pytest.raises(ValidationError, match="repeat_passes"):
        RunConfig(**payload)
    env, log = run_from_config(RunConfig(**{**payload, "repeat_passes": 1}))
    assert env.total_rounds == len(log.rounds) == 8


def test_dump_with_a_missing_file_exits_two(tmp_path, capsys):
    payload = {**_dump_config(tmp_path), "items_path": str(tmp_path / "absent.orag")}
    assert cli_main(["replay", "--config", _cfg(tmp_path, payload),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("x")
    assert cli_main(["simulate", "--config", _cfg(tmp_path), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert taken.read_text() == "x"


@pytest.mark.parametrize("command, name", [
    ("simulate", "catalog.orag"), ("metrics", "metrics.csv"), ("regret", "regret.csv")])
def test_an_output_that_cannot_be_written_exits_two(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert cli_main([command, "--config", _cfg(tmp_path), "--out", str(out),
                     "--passes", "2"]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")


@pytest.mark.parametrize("passes", ["0", "-3"])
def test_passes_below_one_exits_one_before_running(tmp_path, capsys, passes):
    out = tmp_path / "regret"
    assert cli_main(["regret", "--config", _cfg(tmp_path), "--out", str(out),
                     "--passes", passes]) == 1
    assert "--passes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift_round", [-7, 0])
def test_shift_round_below_one_exits_one(tmp_path, capsys, shift_round):
    path = _cfg(tmp_path, {**MINIMAL, "shift_round": shift_round})
    with pytest.raises(ValidationError, match="shift_round"):
        load_config(path)
    assert cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert load_config(_cfg(tmp_path, {**MINIMAL, "shift_round": None})).shift_round is None


def test_shift_round_past_the_last_round_exits_one(tmp_path, capsys):
    payload = {**MINIMAL, "T": 40, "repeat_passes": 3, "shift_round": 121}
    with pytest.raises(ValidationError, match=r"shift_round: must lie in \[1, 120\]"):
        load_config(_cfg(tmp_path, payload))
    with pytest.raises(ValidationError, match=r"shift_round: must lie in \[1, 120\]"):
        RunConfig(**payload)
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == 1
    assert "shift_round" in capsys.readouterr().err
    assert not out.exists()
    assert RunConfig(**{**payload, "shift_round": 120}).shift_round == 120
