"""The benchmark's workloads: generated inputs, measured loops, and checks.

Every workload is a closed loop with one client: a round (or job) starts only
after the previous one returned. Inputs come from the workload seed alone,
and the library receives only those inputs.

Each `run_*` function returns a dict with the end-to-end metrics (`e2e`), the
operation counts (`attempted`, `failed`), the failed checks (`fails`) and
informational fields (`info`). A traced run adds its `tracer` and the traced
over untraced round-time ratio (`overhead`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from orag import catalog, cli, io_utils, learner, metrics, policy, simulator, variants
from tracer import Tracer

# Queries come from the environment as unit vectors, and the initial rows are
# unit vectors too. Scaling the queries sets the softmax temperature: at norm
# 12 the policy is confident enough that the success rate is far from 0 and
# steady across seeds on a catalog of 10^4 items.
QUERY_SCALE = 12.0

# The final catalog under unit_ball may exceed norm 1 by rounding only.
NORM_SLACK = 1e-12

WORKLOADS = {
    "churn-rerank-10k": {
        "kind": "online",
        "config": {"variant": "rerank", "K": 10, "alpha": 0.9, "update_mode": "chosen_only",
                   "projection": "none", "I": 10000, "d": 64, "schedule": "constant",
                   "c": 0.01, "sigma": 0.05, "sigma_init": 0.0},
        "rounds": 200,
        "setup_repeats": 3,
    },
    "offline-regret": {
        "kind": "offline",
        "config": {"variant": "plain", "update_mode": "full", "projection": "none",
                   "I": 50, "d": 16, "T": 2000, "schedule": "constant", "c": 0.2,
                   "sigma": 0.1, "sigma_init": 0.0},
        # Distinct config seeds per run. success_rate averages over all of
        # them: one seed's success rate spreads by about 14% across seeds.
        "jobs": 8,
        # A pass budget every seed exhausts, so the oracle's work is the same
        # on every seed.
        "oracle_passes": 200,
        "replay_rounds": 200,
        # Set-up takes about 30 ms here, so many repeats cost little.
        "setup_repeats": 15,
    },
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def derived_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_metrics(round_s: list[float], job_s: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, informational statistics) from a run's round and
    job (or pass) times, in seconds.

    The machine is shared. Other tenants' load slows the program down by up to
    1.8 times, in bursts of seconds to minutes, and the share of a run spent
    slowed changes from run to run. So a run's round times have two modes, its
    median lands in one or the other, and its mean moves with the share. The
    90th percentiles sit in the slowed mode, which fills more than a tenth of
    every run, and are the gated metrics. The median and mean are reported
    beside them.
    """
    us = np.asarray(round_s) * 1e6
    e2e = {"round_us_p90": float(np.percentile(us, 90)),
           "job_s_p90": float(np.percentile(job_s, 90))}
    info = {"rounds": len(us), "jobs": len(job_s), "round_us_p50": float(np.median(us)),
            "rounds_per_s": 1e6 / float(us.mean()), "job_s_median": statistics.median(job_s)}
    return e2e, info


class RoundClock:
    """Stamps the start of each round of `simulator.run_episode`, which fetches
    the round's query with `Environment.query_at` first, while installed."""

    def __enter__(self):
        self.stamps = []
        self._original = simulator.Environment.__dict__["query_at"]

        def query_at(env, t):
            self.stamps.append(perf_counter())
            return self._original(env, t)

        simulator.Environment.query_at = query_at
        return self

    def __exit__(self, *exc):
        simulator.Environment.query_at = self._original


def repeat_for(budget: float, fn, minimum: int = 1) -> list:
    """Call fn(k, spent) for k = 0, 1, ... at least `minimum` times, until the
    measured seconds they report reach `budget`. fn returns (value, measured
    seconds) and is told the seconds measured so far; set-up and checks
    between measurements do not count."""
    out, spent = [], 0.0
    while len(out) < minimum or spent < budget:
        value, seconds = fn(len(out), spent)
        out.append(value)
        spent += seconds
    return out


def setup_due(done: int, repeats: int, spent: float, budget: float) -> bool:
    """Whether the next set-up repeat is due. The `repeats` set-ups are spaced
    evenly over the measured time, so that their median samples the machine
    at several moments of the run and not only at its start."""
    return done < repeats and spent >= done * budget / repeats


def write_config(path: str, config: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f, sort_keys=True)
    return path


def check_catalog(cat) -> list[str]:
    fails = []
    m = cat.matrix()
    if not np.all(np.isfinite(m)):
        fails.append("final catalog has non-finite entries")
    if cat.projection is catalog.ProjectionMode.UNIT_BALL and cat.max_row_norm() > 1.0 + NORM_SLACK:
        fails.append(f"row norm {cat.max_row_norm()!r} > 1 under unit_ball")
    return fails


def same_catalog(a, b) -> bool:
    return (a.ids == b.ids and a.dtype == b.dtype
            and a.matrix().tobytes() == b.matrix().tobytes())


def persist(records, cat, scratch: str, read_back: bool) -> tuple[dict, list[str]]:
    """Write the event log and snapshot and fingerprint them.

    With `read_back`, also read both back and compare. The snapshot is read
    without a projection: the format round-trip is what must be bit-exact.
    Passes that skip the read-back must reproduce the fingerprint of the
    checked pass.
    """
    ev = os.path.join(scratch, "events.jsonl")
    snap = os.path.join(scratch, "catalog.orag")
    io_utils.write_event_log(records, ev)
    catalog.write_snapshot(cat, snap)
    fails = check_catalog(cat)
    if read_back and io_utils.read_event_log(ev) != records:
        fails.append("event log read back differs from the written records")
    if read_back and not same_catalog(catalog.read_snapshot(snap), cat):
        fails.append("snapshot read back is not bit-equal to the written catalog")
    prints = {"events_sha256": sha256_file(ev), "snapshot_sha256": sha256_file(snap),
              "event_log_bytes": os.path.getsize(ev)}
    return prints, fails


# -- online workloads ---------------------------------------------------------


@dataclass
class OnlineInputs:
    cfg: io_utils.RunConfig
    env: simulator.Environment
    catalog: catalog.Catalog
    targets: list  # target id of round t at index t - 1, following replacements
    deltas: dict | None  # round -> CatalogDelta, churn only


def churn_deltas(env, ids, targets, seed: int, noise: float):
    """One retire-and-insert delta per round, keeping I constant.

    The retired item is a uniformly drawn live item other than the round's
    (followed) target. Its replacement gets a fresh id and inherits its
    queries, so the feedback oracle follows the replacement.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    embed = simulator.init_embedder(env, noise=noise)
    live = list(ids)
    slot = {i: k for k, i in enumerate(live)}
    current = {i: i for i in ids}  # original id -> live id
    origin = {i: i for i in ids}   # live id -> original id
    deltas, followed = {}, []
    for t, target in enumerate(targets, start=1):
        keep = current[target]
        old = keep
        while old == keep:
            old = live[int(rng.integers(len(live)))]
        orig = origin.pop(old)
        new = f"{orig}.{t}"
        k = slot.pop(old)
        live[k], slot[new], origin[new], current[orig] = new, k, orig, new
        deltas[t] = variants.CatalogDelta(added=[(new, embed(orig))], removed=[old],
                                          effective_at=t)
        followed.append(keep)
    return deltas, followed


def setup_online(params: dict, seed: int, scratch: str) -> OnlineInputs:
    config = dict(params["config"], T=params["rounds"], seed=seed)
    cfg = io_utils.load_config(write_config(os.path.join(scratch, "config.json"), config))
    env = simulator.make_environment(cfg.episode(), cfg.seed, noise_scale=cfg.sigma)
    cat = simulator.initial_catalog(env, cfg.sigma_init, projection=cfg.projection)
    targets = [env.optimal_item(t) for t in range(1, cfg.T + 1)]
    deltas = None
    if cfg.variant is simulator.Variant.RERANK:
        deltas, targets = churn_deltas(env, cat.ids, targets, seed, cfg.sigma)
    return OnlineInputs(cfg, env, cat, targets, deltas)


class OnlinePass:
    """One episode of the workload from a fresh copy of the initial catalog."""

    def __init__(self, inputs: OnlineInputs, seed: int):
        self.x = inputs
        self.catalog = inputs.catalog.copy()
        self.rng = policy.RandomSource(derived_seed(seed, 4))
        self.schedule = inputs.cfg.episode().schedule
        self.reranker = None
        if inputs.deltas is not None:
            truth = {f"q{t}": item for t, item in enumerate(inputs.targets, start=1)}
            self.reranker = variants.make_stub_reranker(
                inputs.cfg.alpha, truth.__getitem__, policy.RandomSource(derived_seed(seed, 6)))
        self.records = []

    def oracle(self, t, chosen) -> bool:
        return chosen == self.x.targets[t - 1]

    def query(self, t):
        q = self.x.env.query_at(t)
        return policy.QueryEmbedding(QUERY_SCALE * q.q, q.query_id)

    def delta(self, t) -> None:
        if self.x.deltas is not None:
            variants.apply_delta(self.catalog, self.x.deltas[t], t)

    def step(self, t, q):
        cfg = self.x.cfg
        if self.reranker is not None:
            return variants.step_with_rerank(
                q, self.catalog, cfg.K, self.reranker, self.rng, self.schedule, t,
                self.oracle, update_mode=cfg.update_mode)
        return learner.step(q, self.catalog, self.rng, self.schedule, cfg.update_mode, t,
                            self.oracle)

    def run_timed(self) -> tuple[list[float], float]:
        """All rounds, each timed from its query's arrival to the step's return."""
        lat = []
        start = perf_counter()
        for t in range(1, len(self.x.targets) + 1):
            q = self.query(t)
            t0 = perf_counter()
            self.delta(t)
            self.records.append(self.step(t, q))
            lat.append(perf_counter() - t0)
        return lat, perf_counter() - start

    def run_checked(self) -> int:
        """All rounds with per-round checks; returns the number of failed rounds."""
        failed = 0
        cat = self.catalog
        for t in range(1, len(self.x.targets) + 1):
            q = self.query(t)
            size, gen = len(cat), cat.generation
            self.delta(t)
            mutations = 0
            if self.x.deltas is not None:
                mutations = len(self.x.deltas[t].added) + len(self.x.deltas[t].removed)
            ok = len(cat) == size and cat.generation == gen + mutations
            p = policy.score(q, cat)
            rec = self.step(t, q)
            ok = ok and rec.propensity == p[rec.chosen] and cat.generation == gen + mutations + 1
            failed += not ok
            self.records.append(rec)
        return failed


def run_online(params: dict, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    tracer = Tracer() if trace else None
    repeats = 1 if trace else params["setup_repeats"]
    setup_s = []

    def setup() -> OnlineInputs:
        with tracer or nullcontext():
            t0 = perf_counter()
            inputs = setup_online(params, seed, scratch)
            setup_s.append(perf_counter() - t0)
        return inputs

    inputs = setup()
    inputs_sha = hashlib.sha256(
        inputs.catalog.matrix().tobytes() + "\n".join(inputs.targets).encode()).hexdigest()

    rounds = len(inputs.targets)
    fails: list[str] = []
    check = OnlinePass(inputs, seed)
    bad_rounds = check.run_checked()
    if bad_rounds:
        fails.append(f"{bad_rounds} rounds failed the propensity, size or generation check")
    # Reading a 10^4-item snapshot back takes about 8 s at the seed commit, so
    # only the traced run reads back (below).
    reference, pass_fails = persist(check.records, check.catalog, scratch, read_back=False)
    fails += pass_fails
    failed = bad_rounds + len(pass_fails)
    success_rate = sum(r.success for r in check.records) / rounds

    def one_pass(k, spent):
        nonlocal failed, inputs
        if setup_due(len(setup_s), repeats, spent, seconds):
            inputs = None
            inputs = setup()
        # A traced run alternates untraced and traced passes, so both see the
        # same machine and their ratio is the tracing overhead.
        traced = trace and k % 2 == 1
        with tracer if traced else nullcontext():
            run = OnlinePass(inputs, seed)
            lat, loop_s = run.run_timed()
            # The first traced pass reads back, so the trace covers the read layers.
            prints, pass_fails = persist(run.records, run.catalog, scratch,
                                         read_back=traced and k == 1)
        if prints != reference:
            pass_fails.append("pass fingerprint differs from the checked pass")
        fails.extend(pass_fails)
        failed += len(pass_fails)
        return (lat, loop_s, traced), loop_s

    passes = repeat_for(seconds, one_pass, minimum=2 if trace else 1)
    plain = [(lat, s) for lat, s, traced in passes if not traced]
    traced = [(lat, s) for lat, s, traced in passes if traced]

    e2e, times = time_metrics([x for run_lat, _ in plain for x in run_lat],
                              [s for _, s in plain])
    out = {
        "attempted": rounds * (1 + len(plain) + len(traced)),
        "failed": failed,
        "fails": fails,
        "e2e": {
            "setup_s": statistics.median(setup_s),
            **e2e,
            "success_rate": success_rate,
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "times": times,
            "samples": {"rounds_per_pass": rounds, "setup_s": len(setup_s)},
            "inputs_sha256": inputs_sha,
            "fingerprints": {str(seed): reference},
        },
    }
    if trace:
        bad = tracer.bad_draws(inputs.cfg.K if inputs.deltas is not None else 1)
        if bad:
            out["fails"].append(f"{bad} sampling calls drew other than one uniform per item")
            out["failed"] += bad
        out["tracer"] = tracer
        out["overhead"] = (statistics.fmean(s for _, s in traced)
                           / statistics.fmean(s for _, s in plain))
    return out


# -- offline regret job -------------------------------------------------------


@dataclass
class OfflineInputs:
    seeds: list
    paths: list       # config file per seed
    envs: list        # reference environment per seed, for the replay check
    catalogs: list    # reference initial catalog per seed, for the replay check


def setup_offline(params: dict, seed: int, scratch: str) -> OfflineInputs:
    jobs = params["jobs"]
    seeds = [seed * jobs + j for j in range(jobs)]
    paths, envs, cats = [], [], []
    for s in seeds:
        config = dict(params["config"], seed=s)
        paths.append(write_config(os.path.join(scratch, f"config-{s}.json"), config))
        episode = simulator.EpisodeConfig(T=config["T"], I=config["I"], d=config["d"])
        env = simulator.make_environment(episode, s, noise_scale=config["sigma"])
        envs.append(env)
        cats.append(simulator.initial_catalog(
            env, config["sigma_init"], projection=catalog.ProjectionMode(config["projection"])))
    return OfflineInputs(seeds, paths, envs, cats)


def regret_job(path: str, passes: int, scratch: str, clocked: bool = False) -> dict:
    """The `orag regret` pipeline: config, episode, logs, oracle, regret curve.

    With `clocked`, the episode's rounds are timed one by one (`round_s`).
    """
    ev = os.path.join(scratch, "events.jsonl")
    snap = os.path.join(scratch, "catalog.orag")
    t0 = perf_counter()
    cfg = io_utils.load_config(path)
    with RoundClock() if clocked else nullcontext() as clock:
        t1 = perf_counter()
        env, log = cli.run_from_config(cfg)
        t2 = perf_counter()
    io_utils.write_event_log(log.rounds, ev)
    catalog.write_snapshot(log.final_catalog, snap)
    records = io_utils.read_event_log(ev)
    back = catalog.read_snapshot(snap)
    init = simulator.initial_catalog(env, cfg.sigma_init, projection=cfg.projection)
    events = list(zip(log.queries, log.true_items))
    fit = metrics.train_oracle(events, init, passes=passes)
    ledger = metrics.regret_curve(log, fit.catalog)
    t3 = perf_counter()
    return {"cfg": cfg, "log": log, "records": records, "back": back, "init": init,
            "events": events, "fit": fit, "ledger": ledger, "job_s": t3 - t0,
            "run_s": t2 - t1, "events_path": ev, "snapshot_path": snap,
            "round_s": np.diff(clock.stamps + [t2]) if clocked else None}


def check_job(job: dict) -> list[str]:
    log, fit, init = job["log"], job["fit"], job["init"]
    fails = []
    if job["records"] != log.rounds:
        fails.append("event log read back differs from the written records")
    if not same_catalog(job["back"], log.final_catalog):
        fails.append("snapshot read back is not bit-equal to the written catalog")
    fails += check_catalog(log.final_catalog)
    index = {i: k for k, i in enumerate(init.ids)}
    queries = np.stack([q for q, _ in job["events"]])
    labels = np.array([index[i] for _, i in job["events"]])
    init_loss = metrics.total_loss(init.matrix(), queries, labels)
    if not fit.loss <= init_loss:
        fails.append(f"oracle loss {fit.loss!r} exceeds the loss at initialisation {init_loss!r}")
    if len(job["ledger"]) != job["cfg"].T or not math.isfinite(job["ledger"].final_regret):
        fails.append("regret curve has the wrong length or a non-finite total")
    return fails


def replay_job(job: dict, env, initial, rounds: int | None = None) -> list[str]:
    """Re-run the first `rounds` logged decisions (all by default) on the reference inputs.

    Each recorded propensity must equal p[chosen] under the pre-round catalog.
    A full replay must also reproduce the final catalog bit for bit.
    """
    cfg = job["cfg"]
    cat = initial.copy()
    estimate = (learner.estimate_gradient_full if cfg.update_mode is learner.UpdateMode.FULL
                else learner.estimate_gradient_chosen_only)
    bad = 0
    for rec in job["records"][:rounds]:
        q = env.query_at(rec.t)
        p = policy.score(q, cat)
        bad += p[rec.chosen] != rec.propensity
        fb = learner.Feedback(rec.chosen, rec.success, rec.propensity)
        learner.apply_update(cat, estimate(p, q, fb, t=rec.t), rec.eta)
    fails = []
    if bad:
        fails.append(f"{bad} recorded propensities differ from p[chosen]")
    if rounds is None and not same_catalog(cat, job["log"].final_catalog):
        fails.append("replaying the logged updates does not reproduce the final catalog")
    return fails


def run_offline(params: dict, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    tracer = Tracer() if trace else None
    repeats = 1 if trace else params["setup_repeats"]
    setup_s = []

    def setup() -> OfflineInputs:
        with tracer or nullcontext():
            t0 = perf_counter()
            inputs = setup_offline(params, seed, scratch)
            setup_s.append(perf_counter() - t0)
        return inputs

    inputs = setup()
    inputs_sha = hashlib.sha256(b"".join(
        open(p, "rb").read() for p in inputs.paths)).hexdigest()

    fingerprints: dict[str, dict] = {}
    fails: list[str] = []
    failed = 0
    successes: dict[int, float] = {}
    oracle = []

    def one_job(k, spent):
        nonlocal failed, inputs
        if setup_due(len(setup_s), repeats, spent, seconds):
            inputs = setup()
        # A traced run runs each seed untraced, then traced (as in run_online).
        traced = trace and k % 2 == 1
        j = (k // 2 if trace else k) % len(inputs.seeds)
        s = inputs.seeds[j]
        with tracer if traced else nullcontext():
            job = regret_job(inputs.paths[j], params["oracle_passes"], scratch,
                             clocked=not trace)
        job_fails = check_job(job)
        prints = {"events_sha256": sha256_file(job["events_path"]),
                  "snapshot_sha256": sha256_file(job["snapshot_path"]),
                  "event_log_bytes": os.path.getsize(job["events_path"])}
        if str(s) not in fingerprints:
            fingerprints[str(s)] = prints
            # A full replay costs about as much as the episode, so only the
            # run's first job gets one; other seeds replay a prefix.
            job_fails += replay_job(job, inputs.envs[j], inputs.catalogs[j],
                                    None if k == 0 else params["replay_rounds"])
        elif fingerprints[str(s)] != prints:
            job_fails.append(f"job fingerprint for seed {s} differs from its first run")
        successes[s] = sum(r.success for r in job["records"]) / len(job["records"])
        oracle.append({"passes": job["fit"].passes, "loss": job["fit"].loss,
                       "final_regret": job["ledger"].final_regret, "traced": traced})
        fails.extend(job_fails)
        failed += bool(job_fails)
        # Keep only the times, so that finished jobs do not add to peak_rss_mb.
        return {key: job[key] for key in ("job_s", "run_s", "round_s")}, job["job_s"]

    # Every seed runs at least once, so success_rate covers the same rounds on
    # every run.
    jobs = repeat_for(seconds, one_job, minimum=2 if trace else len(inputs.seeds))
    traced = jobs[1::2] if trace else []
    plain = jobs[::2] if trace else jobs
    e2e, times = {}, {}
    if not trace:
        e2e, times = time_metrics(np.concatenate([job["round_s"] for job in plain]),
                                  [job["job_s"] for job in plain])
    out = {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "fails": fails,
        "e2e": {
            "setup_s": statistics.median(setup_s),
            **e2e,
            "success_rate": statistics.mean(successes.values()),
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "times": times,
            "samples": {"rounds_per_job": params["config"]["T"], "setup_s": len(setup_s)},
            "inputs_sha256": inputs_sha,
            "fingerprints": fingerprints,
            "oracle": oracle,
        },
    }
    if trace:
        bad = tracer.bad_draws(1)
        if bad:
            out["fails"].append(f"{bad} sampling calls drew other than one uniform per item")
            out["failed"] += bad
        out["tracer"] = tracer
        out["overhead"] = (statistics.fmean(job["run_s"] for job in traced)
                           / statistics.fmean(job["run_s"] for job in plain))
        evals = sum(1 for rec in tracer.spans if rec[0] == "metrics.total_loss")
        passes = sum(o["passes"] for o in oracle if o["traced"])
        out["info"]["oracle_traced"] = {"passes": passes, "loss_evals": evals,
                                        "passes_per_loss_eval": passes / evals}
    return out


RUNNERS = {"online": run_online, "offline": run_offline}


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str,
        params: dict | None = None) -> dict:
    params = params or WORKLOADS[name]
    return RUNNERS[params["kind"]](params, seed, seconds, trace, scratch)
