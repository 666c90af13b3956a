"""Command-line front door: simulate, replay, regret, metrics, export."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .catalog import write_snapshot
from .errors import OragError, ValidationError, InvalidConfig, ParseError
from .io_utils import RunConfig, ingest_embedding_dump, load_config, write_event_log
from .metrics import regret_curve, train_oracle, truth_recall_ndcg
from .policy import RandomSource, score
from .simulator import (
    Environment,
    EpisodeLog,
    Variant,
    half_withheld_scenario,
    initial_catalog,
    make_environment,
    make_multihop_rounds,
    run_episode,
)
from .variants import make_stub_reranker


def run_from_config(cfg: RunConfig) -> tuple[Environment, EpisodeLog]:
    """Execute one episode from `initial_catalog` (which `regret` shares): over the
    embedding dump the config names, else over the configured synthetic environment.

    A dump run is the plain or rerank episode over one pass of the labelled
    queries; a dump whose shape is not the config's (T, I, d) raises
    `ValidationError` before any round.
    """
    episode = cfg.episode()
    kwargs = {}
    if cfg.items_path is None:
        env = make_environment(episode, cfg.seed, noise_scale=cfg.sigma,
                               shift_round=cfg.shift_round, shift_fraction=cfg.shift_fraction)
    else:
        env = ingest_embedding_dump(cfg.queries_path, cfg.items_path, cfg.labels_path,
                                    cfg.projection)
        shape = (env.total_rounds, len(env.catalog), env.catalog.dim)
        if (cfg.T, cfg.I, cfg.d) != shape:
            raise ValidationError(f"T, I, d: the dump has (labelled queries, items, dim) "
                                  f"{shape}, the config {(cfg.T, cfg.I, cfg.d)}")
        kwargs["rng"] = RandomSource(cfg.seed)
    if cfg.variant is Variant.RERANK:
        rr_rng = RandomSource(np.random.SeedSequence([cfg.seed, 6]).generate_state(1)[0])
        truth = dict(zip(env.query_ids, env.targets))
        kwargs["reranker"] = make_stub_reranker(cfg.alpha, truth.__getitem__, rr_rng)
    elif cfg.variant is Variant.DYNAMIC:
        initial_ids, deltas = half_withheld_scenario(env)
        kwargs["deltas"] = deltas
        kwargs["catalog"] = initial_catalog(
            env, cfg.sigma_init, projection=cfg.projection, restrict_to=initial_ids
        )
    elif cfg.variant is Variant.MULTIHOP:
        kwargs["multihop_rounds"] = make_multihop_rounds(env)
    log = run_episode(env, episode, init_noise=cfg.sigma_init, **kwargs)
    return env, log


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _cutoff(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def cli_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="orag",
        description="Online-adaptive retrieval embeddings: simulation and analysis harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("simulate", "run one episode and write the event log + final snapshot"),
        ("replay", "run the learner over an ingested embedding dump"),
        ("regret", "train the hindsight oracle and emit the regret curve CSV"),
        ("metrics", "emit per-round recall/ndcg/accuracy CSV"),
        ("export", "run the episode and write the final catalog snapshot"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: .)")
        p.add_argument("--k", type=_cutoff, default=10, help="cutoff for ranking metrics (>= 1)")
        p.add_argument("--passes", type=_cutoff, default=10_000, help="oracle pass budget (>= 1)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0

    try:
        cfg = load_config(args.config, seed=args.seed)
        if args.command == "replay" and cfg.items_path is None:
            raise ValidationError("replay needs queries_path, items_path, labels_path in the config")
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        env, log = run_from_config(cfg)

        if args.command in ("simulate", "replay", "export"):
            if args.command != "export":
                write_event_log(log.rounds, os.path.join(out, "events.jsonl"))
            write_snapshot(log.final_catalog, os.path.join(out, "catalog.orag"))
        elif args.command == "regret":
            events = list(zip(log.queries, log.true_items))
            init = initial_catalog(env, cfg.sigma_init, projection=cfg.projection)
            fit = train_oracle(events, init, passes=args.passes)
            ledger = regret_curve(log, fit.catalog)
            _write_csv(
                os.path.join(out, "regret.csv"),
                ["t", "online_loss", "oracle_loss", "cum_regret"],
                zip((rec.t for rec in log.rounds), ledger.online_loss, ledger.oracle_loss,
                    ledger.cumulative_regret),
            )
            with open(os.path.join(out, "oracle.json"), "w", encoding="utf-8") as f:
                json.dump({"passes": fit.passes, "converged": fit.converged,
                           "grad_norm": fit.grad_norm}, f, sort_keys=True)
                f.write("\n")
        elif args.command == "metrics":
            rows = []
            for rec, q, truth in zip(log.rounds, log.queries, log.true_items):
                if truth not in log.final_catalog:
                    continue
                recall, ndcg = truth_recall_ndcg(score(q, log.final_catalog), truth, args.k)
                rows.append((rec.t, recall, ndcg, int(rec.success)))
            _write_csv(os.path.join(out, "metrics.csv"), ["t", f"recall_at_{args.k}", f"ndcg_at_{args.k}", "success"], rows)
    except (InvalidConfig, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OragError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
