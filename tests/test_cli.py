import csv
import json
import os

import numpy as np
import pytest

from orag.catalog import Catalog, read_snapshot, write_snapshot
from orag.errors import ValidationError
from orag.cli import cli_main, run_from_config
from orag.io_utils import load_config
from orag.metrics import regret_curve, train_oracle
from orag.simulator import initial_catalog, make_environment

MINIMAL = {"I": 10, "d": 4, "T": 100, "seed": 1}


def _cfg(tmp_path, payload=MINIMAL, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    read = lambda out, name: open(os.path.join(out, name), "rb").read()
    assert read(outs[0], "events.jsonl") == read(outs[1], "events.jsonl")
    assert read(outs[0], "catalog.orag") == read(outs[1], "catalog.orag")


def test_seed_override_changes_the_log(tmp_path):
    cfg = _cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert cli_main(["simulate", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
    a = open(os.path.join(out1, "events.jsonl"), "rb").read()
    b = open(os.path.join(out2, "events.jsonl"), "rb").read()
    assert a != b


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
    lines = open(os.path.join(out, "events.jsonl")).readlines()
    assert len(lines) == 6


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
