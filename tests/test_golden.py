"""Golden digests: identical (config, seed) must keep producing identical bytes.

Each case pins the SHA-256 of the artifacts of a tiny run. The `orag simulate`
cases hash `events.jsonl` and `catalog.orag` for every variant x update mode x
projection; the float32 cases hash the records and the final matrix of a
float32 catalog driven by `learner.step`; the stream cases hash the ids,
latents, queries and targets of a synthetic environment, shifted and
multi-pass or not; the dump cases hash the query ids, queries and targets of
an ingested float32 or float64 embedding dump. With these settings the learning
rate is large enough that unit_ball runs really do project rows (checked by
`test_projection_is_exercised`).

Recorded with Python 3.11.7 and numpy 2.4.6 from its x86_64 wheel, which
bundles scipy-openblas 0.3.31.188.0 (OpenBLAS, USE64BITINT, DYNAMIC_ARCH,
Haswell kernels). A different numpy or BLAS
build may legitimately move the last bits of the float arithmetic.

Re-baselining is a deliberate act, done only when a change is meant to move
bits (say, a different summation order) and says so: run

    PYTHONPATH=src python tests/test_golden.py

which prints the current digests as a Python dict, and paste it over
`GOLDEN` below in the same commit as that change.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from orag.catalog import Catalog, ProjectionMode, write_snapshot
from orag.cli import cli_main
from orag.io_utils import ingest_embedding_dump
from orag.learner import LearningRateSchedule, ScheduleKind, UpdateMode, step
from orag.policy import RandomSource
from orag.simulator import EpisodeConfig, make_environment

BASE = {
    "T": 60, "I": 12, "d": 6, "K": 3, "schedule": "constant", "c": 0.5,
    "sigma_init": 0.8, "alpha": 0.7, "seed": 7,
}
VARIANTS = ("plain", "rerank", "dynamic", "multihop")
MODES = ("full", "chosen_only")
PROJECTIONS = ("none", "unit_ball")

SIMULATE_CASES = [
    f"simulate-{v}-{m}-{p}" for v, m, p in itertools.product(VARIANTS, MODES, PROJECTIONS)
]
FLOAT32_CASES = [f"float32-{m}-{p}" for m, p in itertools.product(MODES, PROJECTIONS)]
STREAM_CASES = {
    "stream-unshifted": {},
    "stream-shifted-3pass": {"repeat_passes": 3, "shift_round": 50, "shift_fraction": 0.5},
}
DUMP_CASES = {"dump-float64": np.float64, "dump-float32": np.float32}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate_digests(case: str, tmp_path) -> dict[str, str]:
    _, variant, mode, projection = case.split("-")
    cfg = dict(BASE, variant=variant, update_mode=mode, projection=projection)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return {
        "events.jsonl": _sha((out / "events.jsonl").read_bytes()),
        "catalog.orag": _sha((out / "catalog.orag").read_bytes()),
    }


def float32_run(case: str) -> tuple[Catalog, list]:
    _, mode, projection = case.split("-")
    env = make_environment(EpisodeConfig(T=BASE["T"], I=BASE["I"], d=BASE["d"]), BASE["seed"])
    init = np.random.default_rng(BASE["seed"]).normal(size=(BASE["I"], BASE["d"]))
    catalog = Catalog(
        BASE["d"],
        zip(env.ids, init),
        projection=ProjectionMode(projection),
        dtype=np.float32,
    )
    rng = RandomSource(BASE["seed"])
    schedule = LearningRateSchedule(ScheduleKind.CONSTANT, BASE["c"])
    records = [
        step(env.query_at(t), catalog, rng, schedule, UpdateMode(mode), t,
             lambda t, chosen: chosen == env.optimal_item(t))
        for t in range(1, BASE["T"] + 1)
    ]
    return catalog, records


def float32_digests(case: str) -> dict[str, str]:
    catalog, records = float32_run(case)
    lines = "".join(f"{r.t} {r.chosen} {r.success} {r.propensity!r}\n" for r in records)
    return {
        "records": _sha(lines.encode()),
        "matrix": _sha(catalog.matrix().tobytes()),
    }


def stream_digests(case: str) -> dict[str, str]:
    opts = dict(STREAM_CASES[case])
    episode = EpisodeConfig(T=40, I=12, d=6, repeat_passes=opts.pop("repeat_passes", 1))
    env = make_environment(episode, 5, **opts)
    rounds = range(1, env.total_rounds + 1)
    return {
        "ids": _sha("\n".join(env.ids).encode()),
        "latents": _sha(env.latents.tobytes()),
        "queries": _sha(np.stack([env.query_at(t).q for t in rounds]).tobytes()),
        "targets": _sha("\n".join(env.optimal_item(t) for t in rounds).encode()),
    }


def dump_digests(case: str, tmp_path) -> dict[str, str]:
    # 9 queries, 7 of them labelled and listed out of id order, over 5 items.
    rng = np.random.default_rng(11)
    queries = Catalog(6, [(f"q{k}", rng.normal(size=6)) for k in range(9)], dtype=DUMP_CASES[case])
    items = Catalog(6, [(f"doc{k}", rng.normal(size=6)) for k in range(5)])
    paths = [str(tmp_path / name) for name in ("q.orag", "i.orag", "labels.txt")]
    write_snapshot(queries, paths[0])
    write_snapshot(items, paths[1])
    (tmp_path / "labels.txt").write_text(
        "".join(f"q{k} doc{(2 * k) % 5}\n" for k in [8, 0, 5, 3, 1, 6, 2]))
    env = ingest_embedding_dump(*paths)
    rounds = range(1, env.total_rounds + 1)
    return {
        "query_ids": _sha("\n".join(env.query_at(t).query_id for t in rounds).encode()),
        "queries": _sha(np.stack([env.query_at(t).q for t in rounds]).tobytes()),
        "targets": _sha("\n".join(env.optimal_item(t) for t in rounds).encode()),
    }


GOLDEN = {
    'simulate-plain-full-none': {
        'events.jsonl': 'ac970afdd80af2c98cd23b14774f3422a6fdd60e6d71a202b012c6631000031e',
        'catalog.orag': '4f6092ecca66d4e353662034e3d96801722820aec23dd925f266e8257d079c49',
    },
    'simulate-plain-full-unit_ball': {
        'events.jsonl': '96ace85d42862ff2c3d6f0ef89406a6928d7efc792da9ed1f216ee70600296d0',
        'catalog.orag': '9f013c4ec3bff8c2533af35a4500573d88a49cf9a5e738a4bbf93446526097f8',
    },
    'simulate-plain-chosen_only-none': {
        'events.jsonl': '95924723d68409506b1616fac510c26a08fb3cd5c9716daa374bc4f0fa83e506',
        'catalog.orag': 'b9eb5ddcd897b0318f46e878dfd289f43c4eea8ddbfb8250b5adb3f02301856e',
    },
    'simulate-plain-chosen_only-unit_ball': {
        'events.jsonl': '131d8ccd70e84c832b6337bd6875feec10c574bcb2cd5a761a9b5e35aa8655f2',
        'catalog.orag': '0bb655fbc0d45dcce2d41dc190577a5074dcee629ee64d78561abaef97e73c2a',
    },
    'simulate-rerank-full-none': {
        'events.jsonl': '7ec3937400019bd17b07ad0d4f06944058c6a0f3a630d53f6ea300cccc8b5ccb',
        'catalog.orag': '6cfd4b89c25e3e5a40d69f7ce98b67573910471fea5ea7f62e9af24ecd1ef0b0',
    },
    'simulate-rerank-full-unit_ball': {
        'events.jsonl': 'cd99b544ef09dc57cc749ef2fd3ce09b489fcf8b9a4a0b68175fbbeb1a39d420',
        'catalog.orag': '9c0522ee059af0374210ef7f9d386604e1b3b49aa9b8967611c76d9f1ffbe40c',
    },
    'simulate-rerank-chosen_only-none': {
        'events.jsonl': 'c1c6b4afaa8c2b9b1747669dc1350c95ddd78b64df9b0191e9362884e5311383',
        'catalog.orag': '27f8aa35ba858385f6bf5a2faa4607a567414598cee8b6e5c09f97c8948c146a',
    },
    'simulate-rerank-chosen_only-unit_ball': {
        'events.jsonl': '932db3fc9b14cb0542600ceb6501da94a5d214f0c66901fb37d4ae851e7155a2',
        'catalog.orag': 'b26ab5a1d4eb232ee1a060d949c72871f48e381eea7013e91524cdd870eac2b2',
    },
    'simulate-dynamic-full-none': {
        'events.jsonl': 'de8c768e48fd9fff6b40f1f194e6d65bfd357ce90e46e136987f21e144c2e09f',
        'catalog.orag': 'd523889fbb5cba392b1008fcec9e23d48771b9f6cc16b86d249e302d0c494626',
    },
    'simulate-dynamic-full-unit_ball': {
        'events.jsonl': '1aafa1d395fb5e00b712fb9eaab18bc72fbf86fbb1f62152e59569b4302574b1',
        'catalog.orag': '8dc814e58b1430e82c171ea05eb69ec6f7d0e1c97b4542b250fe87b3bcc9629a',
    },
    'simulate-dynamic-chosen_only-none': {
        'events.jsonl': '719f9589ec4907fc93b6649dad001179ecdaeb46918fdd96af72b4209029eca8',
        'catalog.orag': 'f3a8bd2231eea10eb6b77b073e6bcd4226ea1f216b7d63fb6f08719ab75ca9a2',
    },
    'simulate-dynamic-chosen_only-unit_ball': {
        'events.jsonl': 'dd411cbc996647220b5786c6986767afba3162957f7729f508436e1a244ac54e',
        'catalog.orag': '9dce96430b7abcc791b2358c4c5e475bacdcd391f138bec323770daaa331c6ea',
    },
    'simulate-multihop-full-none': {
        'events.jsonl': 'd8935717ab6d3efa313d84d845585a37cf2197542a1db8b4043748ae07fbf2e2',
        'catalog.orag': '299d3f6ab7757d3fbb15cde9b71ca7c0321b990e529cc4e6d31e6e0a0bbf60f0',
    },
    'simulate-multihop-full-unit_ball': {
        'events.jsonl': 'a01600513b1c741f95aa362439e978a16dd7d2d41ef53b6d3fe960fd000f4bcd',
        'catalog.orag': '8c4577f799d3e930b8e9d395d31cf05c302fc90d6d2a305b855d94cc39790238',
    },
    'simulate-multihop-chosen_only-none': {
        'events.jsonl': '7681052f851dd517d95f8e4d1f0a65f4ca96925fd21664ea3e09a64d5f9a19e0',
        'catalog.orag': '00a006168d359ddb864dc69769766a7826dfdf4f07f6ad3a8faa621d24874468',
    },
    'simulate-multihop-chosen_only-unit_ball': {
        'events.jsonl': '613ce47cbe0dbc96c25b79ba7f5e12e3a65107fff1d11f0da78824b2898140e8',
        'catalog.orag': '2828195b577bc5cf4dabd466860e4356f011aeff034b58015ed57150099e8b10',
    },
    'float32-full-none': {
        'records': '1da54151bc4a39092ee3d936a4dcac861158285052dec49c7d4506320464fd3e',
        'matrix': 'b91099863a56855469ebe3187a0876495b2dc7ed95cfbad0bf7eaff6e901a1a1',
    },
    'float32-full-unit_ball': {
        'records': 'b1aa51bbdaa7d97e0940eb3d4f05b5fa572042df1bac2cd5bef4df34541da695',
        'matrix': '63466d12965dfa29691924d9d6d0ff6385a906dd8ef1986d7971ac7713ebf9bb',
    },
    'float32-chosen_only-none': {
        'records': '23050a89038b69decd5317932358d02166a8be0611a731792191e4ae937887dc',
        'matrix': '50eab5b2925808e735503dc8cce56f5631caa8a07ed5e910b3edfe6482d87e1c',
    },
    'float32-chosen_only-unit_ball': {
        'records': '7dd386481c491a198a20333ef87fcb8f0ceed1e9562689fd64df1a48cf2aa375',
        'matrix': '1f0e92570993083fc7e37d34e8361994be782c4a99742a26d115afe964b2914c',
    },
    'stream-unshifted': {
        'ids': '081c53ce855e680ac8fd3e6c10e18b44a990fd8b37ee35396eec5afcc918ee51',
        'latents': 'cf2345afd0d2ebbbd2c001b72d9d401dfd633526aadd1d0a03d6f54467789ff5',
        'queries': 'd02e3cf590af3eecb2ea630e28c1319077135e1ba3d38a32563ef0f1591e7b6b',
        'targets': '4b6b963dc6e654d20dd4b38e2ed1268771bbb695374bd30097d85303ef0a808e',
    },
    'stream-shifted-3pass': {
        'ids': '081c53ce855e680ac8fd3e6c10e18b44a990fd8b37ee35396eec5afcc918ee51',
        'latents': 'cf2345afd0d2ebbbd2c001b72d9d401dfd633526aadd1d0a03d6f54467789ff5',
        'queries': 'b0b71cb545be19c5b9715c5bb3e191a243062d38128708729c6cc15895bc53e8',
        'targets': '057ab1c11a90a287d0cb255a9d6fb9652b495657c9976368e8762286d5e6ef06',
    },
    'dump-float64': {
        'query_ids': '6e9df809c46e7ed1bd32b0cd5fe50b107f5f68defd00d9cfdabc6c1d6d3c2d0a',
        'queries': '766e388cc073cd47adac8bbf8cb114bf56b65c468f2a10e6d340ebf36a36a34b',
        'targets': 'ef92f0361dff69ce524e22c8d28ce2dbe684a1518a22e2248c93e640f6ab4340',
    },
    'dump-float32': {
        'query_ids': '6e9df809c46e7ed1bd32b0cd5fe50b107f5f68defd00d9cfdabc6c1d6d3c2d0a',
        'queries': 'f12fdddbffefd552756f3189fe4a341651e40eddd65ca52fb1d11921cc2ca67e',
        'targets': 'ef92f0361dff69ce524e22c8d28ce2dbe684a1518a22e2248c93e640f6ab4340',
    },
}


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_simulate_digest(case, tmp_path):
    assert simulate_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", FLOAT32_CASES)
def test_float32_step_digest(case):
    assert float32_digests(case) == GOLDEN[case]


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_digest(case):
    assert stream_digests(case) == GOLDEN[case]


@pytest.mark.parametrize("case", DUMP_CASES)
def test_dump_stream_digest(case, tmp_path):
    assert dump_digests(case, tmp_path) == GOLDEN[case]


def test_projection_is_exercised():
    # Simulated catalogs start from unit-norm rows, so a unit_ball digest that
    # differs from its projection-free twin means updates were projected.
    for case in SIMULATE_CASES:
        if case.endswith("unit_ball"):
            assert GOLDEN[case] != GOLDEN[case.replace("unit_ball", "none")], case


if __name__ == "__main__":
    import pathlib
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in SIMULATE_CASES:
            case_dir = pathlib.Path(tmp) / case
            case_dir.mkdir()
            digests[case] = simulate_digests(case, case_dir)
    for case in FLOAT32_CASES:
        digests[case] = float32_digests(case)
    for case in STREAM_CASES:
        digests[case] = stream_digests(case)
    with tempfile.TemporaryDirectory() as tmp:
        for case in DUMP_CASES:
            case_dir = pathlib.Path(tmp) / case
            case_dir.mkdir()
            digests[case] = dump_digests(case, case_dir)
    print("GOLDEN = {")
    for case, d in digests.items():
        print(f"    {case!r}: {{")
        for name, h in d.items():
            print(f"        {name!r}: {h!r},")
        print("    },")
    print("}")
