"""Golden digests: identical (config, seed) must keep producing identical bytes.

Each case pins the SHA-256 of the artifacts of a tiny run. The `orag simulate`
cases hash `events.jsonl` and `catalog.orag` for every variant x update mode x
projection; the float32 cases hash the records and the final matrix of a
float32 catalog driven by `learner.step`. With these settings the learning
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

from orag.catalog import Catalog, ProjectionMode
from orag.cli import cli_main
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
        zip(sorted(env.true_items), init),
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


GOLDEN = {
    'simulate-plain-full-none': {
        'events.jsonl': 'ebf1726d9b8f6ecfe17779f03f8efa6bb8dd79c6fa4aef9e98a0239a23eb44d4',
        'catalog.orag': '2f5f57c56e90beff6baa9b95eface2cc07fb9b5b146ea89e4c6c3d0f05d1f51b',
    },
    'simulate-plain-full-unit_ball': {
        'events.jsonl': '37c28f2a1343ae6b5fd34de720a9226cc66e717d29f41999dd0fc18ffa1023f9',
        'catalog.orag': 'aca06528af20bb52d8db9eb6a7073623054243aad527850183e3cb5ab798d432',
    },
    'simulate-plain-chosen_only-none': {
        'events.jsonl': 'b1c2d41ba177d4594610248c24453b4345e87fc50af095012b6058c65fa6d2e7',
        'catalog.orag': '1706843669fc8792fd91558777c229f826f0b884456bf72d81e7c6a03f7e6014',
    },
    'simulate-plain-chosen_only-unit_ball': {
        'events.jsonl': '883adcaf1b3f19b35f1d8e8bd279b3eaa80b1cc3ccfc37d06bbb21a22661ef6b',
        'catalog.orag': 'fabf748af964bd59b0aba45f5eb9f296e84b8e119ab70a0ffcfeccc990f18fc2',
    },
    'simulate-rerank-full-none': {
        'events.jsonl': 'e7db370e0ee67e256a2f067bddbbb895e15b6426a651987d84b8a0898a15b5cf',
        'catalog.orag': '3c6145ac73b7bca84bfa29cbbf99f474c9993a19db6bc1859dc998892dc7241c',
    },
    'simulate-rerank-full-unit_ball': {
        'events.jsonl': 'aa457cb470b5c2ee4424590546ddf50749190d3091ba858448d21afc00b0e133',
        'catalog.orag': 'ddf0959a9efddd71d6c9dd175e25879456b9c2fb099a2be7e05931f6f5d1336e',
    },
    'simulate-rerank-chosen_only-none': {
        'events.jsonl': 'e3f13ce882af4395d8475c28d9ba59a2ab7821163907cf85bfe2cc885f5db5f4',
        'catalog.orag': '94c25b1ee077f9555a09d69f5de9b89c831e9ee1bb8a4ac90a420696372cb92c',
    },
    'simulate-rerank-chosen_only-unit_ball': {
        'events.jsonl': '7b4334ffe9dbb7c8e21accdf026a167d88f28de8476b3b3aed200c69f8daf022',
        'catalog.orag': 'f5623411b040da38d3bfe288771670db08774bf6d29b32a36ccf0057d962f2d7',
    },
    'simulate-dynamic-full-none': {
        'events.jsonl': 'f609dbf084a80df0b8e0fab113fe408a23c7025a56eab43ff7503c6aa7ae121e',
        'catalog.orag': '342bb216165c0e8bd52c16aa9bc14aba4080953757ba78d8e1436a6c10cb8d0e',
    },
    'simulate-dynamic-full-unit_ball': {
        'events.jsonl': '307e0d1f43edc6dd025d82e785e62d15c3f312877788c583a42f4044d094877a',
        'catalog.orag': '337131edecbcef8942d063ca15a34d5168656dd64e7b49d1e34f02f8dce365af',
    },
    'simulate-dynamic-chosen_only-none': {
        'events.jsonl': 'b8f544e5794d90474672491040781631d2657df47be342dad2bd3111d51539e1',
        'catalog.orag': 'fa22556754a04311a90a512b07d7a6a9346dcac342227300d2c149563fc18a77',
    },
    'simulate-dynamic-chosen_only-unit_ball': {
        'events.jsonl': '730a0b06637ddfb890e9db3f80a9b46e927da4d25c703280dfa15f1f15a4a16b',
        'catalog.orag': '436f5cdf983576fcbf5068bb11aafc79c7ed7e635d91e8347568f1f4aec28d34',
    },
    'simulate-multihop-full-none': {
        'events.jsonl': '90de6b85d88f122f5a6380ae0f5d549812fb7fd1318fbbab190b102dcfb323b4',
        'catalog.orag': '9689a555b784a73a5eaac2f43d1bd358550557099697c0cb49b83184a96a96f6',
    },
    'simulate-multihop-full-unit_ball': {
        'events.jsonl': 'a1c1fbe7395a26969607a1ebc7a23e83a0d6ba571af7f1535e0a2cc23d26459e',
        'catalog.orag': '5186cc3fd57de37ed960691c38367ed6529ebc7fba0436529f437250998bce08',
    },
    'simulate-multihop-chosen_only-none': {
        'events.jsonl': '383b176e3f3b4359a908107c8ed374cdac7f0bda87f3d63501ed8977736ab1cc',
        'catalog.orag': '8b5ec74e03b51e625b0c3a6c6ce8e870cc92dc4bc607b902c280032a92900aaa',
    },
    'simulate-multihop-chosen_only-unit_ball': {
        'events.jsonl': '60e0067a36a9ab8eaabca594dc4ff5ab8262af0a85e3fe272fadf616ea29e2d6',
        'catalog.orag': '78586d4c7d6b7b56e66971bcd2b56b695d53337d4490860f7d5a0ac14f6f4fe3',
    },
    'float32-full-none': {
        'records': 'cf9e3e39a297377ea83dd8e0eed72915a2023386a5cc4fe1ce1b1dca97563030',
        'matrix': 'b91099863a56855469ebe3187a0876495b2dc7ed95cfbad0bf7eaff6e901a1a1',
    },
    'float32-full-unit_ball': {
        'records': '7133b44511dceb940b32dbbe5dcbaab75ebcbc0045c77b24fab78b9355b87d55',
        'matrix': '63466d12965dfa29691924d9d6d0ff6385a906dd8ef1986d7971ac7713ebf9bb',
    },
    'float32-chosen_only-none': {
        'records': 'ed0dceaf49f8134b4e5f8176f8e5281b0ab67ef5eda98bab43b109a6db0ea6ab',
        'matrix': '50eab5b2925808e735503dc8cce56f5631caa8a07ed5e910b3edfe6482d87e1c',
    },
    'float32-chosen_only-unit_ball': {
        'records': '2fdcae4ef9e2513ac8b629d516b21a54d6fb65d635fbdbc50cf27a24806bcfc0',
        'matrix': '1f0e92570993083fc7e37d34e8361994be782c4a99742a26d115afe964b2914c',
    },
}


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_simulate_digest(case, tmp_path):
    assert simulate_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", FLOAT32_CASES)
def test_float32_step_digest(case):
    assert float32_digests(case) == GOLDEN[case]


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
    print("GOLDEN = {")
    for case, d in digests.items():
        print(f"    {case!r}: {{")
        for name, h in d.items():
            print(f"        {name!r}: {h!r},")
        print("    },")
    print("}")
