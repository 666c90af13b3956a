import itertools
import math

import numpy as np
import pytest

from orag import policy
from orag.catalog import Catalog, read_snapshot, write_snapshot
from orag.errors import DimensionMismatch, EmptyCatalog, KTooLarge, NonFiniteInput
from orag.policy import (
    ProbabilityVector,
    QueryEmbedding,
    RandomSource,
    sample_k_without_replacement,
    sample_one,
    score,
)


def _cat(rows):
    return Catalog(len(rows[0][1]), rows)


def test_equal_rows_give_uniform():
    cat = _cat([("a", [0.2, 0.5]), ("b", [0.2, 0.5]), ("c", [0.2, 0.5])])
    p = score(np.array([1.0, -2.0]), cat)
    np.testing.assert_allclose(p.probs, 1.0 / 3.0, atol=1e-15)


def test_two_item_closed_form():
    cat = _cat([("a", [math.log(2.0)]), ("b", [0.0])])
    p = score(np.array([1.0]), cat)
    assert abs(p["a"] - 2.0 / 3.0) < 1e-12
    assert abs(p["b"] - 1.0 / 3.0) < 1e-12


def test_shift_invariance():
    rng = np.random.default_rng(0)
    rows = [(f"i{k}", rng.normal(size=3)) for k in range(5)]
    q = rng.normal(size=3)
    v = rng.normal(size=3)
    p0 = score(q, _cat(rows))
    p1 = score(q, _cat([(i, r + v) for i, r in rows]))
    np.testing.assert_allclose(p0.probs, p1.probs, atol=1e-12)


def test_probabilities_form_a_simplex():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows = [(f"i{k}", rng.normal(scale=4.0, size=4)) for k in range(6)]
        p = score(rng.normal(size=4), _cat(rows))
        assert abs(p.probs.sum() - 1.0) < 1e-12
        assert np.all(p.probs > 0.0)


def test_extreme_logits_never_emit_exact_zero():
    cat = _cat([("a", [1000.0]), ("b", [-1000.0])])
    p = score(np.array([1.0]), cat)
    assert np.all(p.probs > 0.0)
    assert abs(p.probs.sum() - 1.0) < 1e-12


def test_score_errors():
    with pytest.raises(EmptyCatalog):
        score(np.array([1.0]), Catalog(1))
    cat = _cat([("a", [1.0, 0.0])])
    with pytest.raises(DimensionMismatch):
        score(np.array([1.0]), cat)
    with pytest.raises(NonFiniteInput):
        score(np.array([np.nan, 1.0]), cat)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("q, rows", [
    ([1e200, 0.0], [("a", [1e200, 0.0]), ("b", [0.0, 1.0])]),  # one logit overflows to +inf
    ([1e200, 0.0], [("a", [-1e200, 0.0]), ("b", [-1e200, 1.0])]),  # every logit is -inf
])
def test_finite_inputs_whose_logits_overflow_are_non_finite_input(q, rows):
    # Their softmax would be NaN, and sampling from it would pick an item silently.
    with pytest.raises(NonFiniteInput, match="logits overflow"):
        score(np.array(q), _cat(rows))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_query_keeps_its_message(bad):
    cat = _cat([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [-2.0, 0.5])])
    with pytest.raises(NonFiniteInput, match="query contains non-finite entries"):
        score(np.array([bad, 0.5]), cat)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_finite_scores_keep_their_bits(dtype):
    # The softmax as written before the overflow check: max-subtract, floor, exp, normalise.
    rng = np.random.default_rng(4)
    for scale in (1.0, 50.0, 1e3):
        cat = Catalog(5, [(f"i{k}", rng.normal(scale=scale, size=5)) for k in range(40)],
                      dtype=dtype)
        q = rng.normal(size=5)
        z = cat.logits(q)
        z = np.exp(np.maximum(z - z.max(), -700.0))
        assert score(q, cat).probs.tobytes() == (z / z.sum()).tobytes()


def test_sample_one_degenerate():
    cat = _cat([("only", [0.5, 0.5])])
    p = score(np.array([1.0, 1.0]), cat)
    rng = RandomSource(0)
    assert all(sample_one(p, rng) == "only" for _ in range(20))


def test_sample_one_of_an_empty_vector_raises_before_drawing():
    # A hand-built vector can be empty; `score` refuses an empty catalog first.
    rng = RandomSource(5)
    with pytest.raises(EmptyCatalog):
        sample_one(ProbabilityVector((), np.array([])), rng)
    assert rng.uniform() == RandomSource(5).uniform()


def test_sample_one_frequency_half_half():
    cat = _cat([("a", [0.0]), ("b", [0.0])])
    p = score(np.array([1.0]), cat)
    rng = RandomSource(123)
    draws = [sample_one(p, rng) for _ in range(100_000)]
    freq_a = draws.count("a") / len(draws)
    assert abs(freq_a - 0.5) < 0.01


def test_sample_one_deterministic_in_seed():
    cat = _cat([("a", [0.3]), ("b", [-0.3]), ("c", [0.1])])
    p = score(np.array([2.0]), cat)
    seq1 = [sample_one(p, RandomSource(42)) for _ in range(1)]
    r1, r2 = RandomSource(42), RandomSource(42)
    seq1 = [sample_one(p, r1) for _ in range(50)]
    seq2 = [sample_one(p, r2) for _ in range(50)]
    assert seq1 == seq2


def test_sample_k_full_is_permutation():
    cat = _cat([(f"i{k}", [float(k)]) for k in range(5)])
    p = score(np.array([0.2]), cat)
    out = sample_k_without_replacement(p, 5, RandomSource(7))
    assert sorted(out) == sorted(p.ids)


def test_sample_k_one_matches_sample_one():
    # Seeded draws, then uniforms on a pick's rounding boundary and at both ends.
    cat = _cat([("a", [0.4]), ("b", [-0.2]), ("c", [0.9])])
    p = score(np.array([1.5]), cat)
    for seed in range(30):
        single = sample_one(p, RandomSource(seed))
        (first,) = sample_k_without_replacement(p, 1, RandomSource(seed))
        assert single == first
    gen = np.random.default_rng(15)
    for trial in range(200):
        n, dtype = int(gen.integers(1, 300)), (np.float64, np.float32)[trial % 2]
        probs = gen.dirichlet(np.full(n, float(gen.choice([0.05, 1.0])))).astype(dtype)
        p = ProbabilityVector(tuple(f"i{j:03d}" for j in range(n)), probs)
        for u in _boundary_uniforms(probs, 1, gen) + [0.0, 1.0 - 2.0**-53]:
            a, b = _Counting(us=[u]), _Counting(us=[u])
            assert [sample_one(p, a)] == sample_k_without_replacement(p, 1, b)
            assert a.calls == b.calls == 1


def test_sample_k_first_slot_marginal():
    # p approx (0.9, 0.05, 0.05): logits ln(18), 0, 0
    cat = _cat([("a", [math.log(18.0)]), ("b", [0.0]), ("c", [0.0])])
    p = score(np.array([1.0]), cat)
    assert abs(p["a"] - 0.9) < 1e-12
    rng = RandomSource(99)
    hits = sum(
        sample_k_without_replacement(p, 2, rng)[0] == "a" for _ in range(100_000)
    )
    assert abs(hits / 100_000 - 0.9) < 0.01


def test_sample_k_too_large():
    cat = _cat([("a", [0.0]), ("b", [0.0])])
    p = score(np.array([1.0]), cat)
    with pytest.raises(KTooLarge):
        sample_k_without_replacement(p, 3, RandomSource(0))
    with pytest.raises(KTooLarge):
        sample_k_without_replacement(p, 0, RandomSource(0))


def _subset_distribution(probs, k):
    """Exact probability of each k-subset under sequential renormalized draws."""
    n = len(probs)
    out = {}
    for perm in itertools.permutations(range(n), k):
        prob = 1.0
        remaining = list(range(n))
        mass = sum(probs)
        for j in perm:
            prob *= probs[j] / mass
            remaining.remove(j)
            mass -= probs[j]
        key = frozenset(perm)
        out[key] = out.get(key, 0.0) + prob
    return out


def test_every_k_subset_has_positive_probability():
    rng = np.random.default_rng(5)
    for n in range(2, 6):
        probs = rng.dirichlet(np.ones(n))
        for k in range(1, n + 1):
            dist = _subset_distribution(list(probs), k)
            assert len(dist) == math.comb(n, k)
            assert all(v > 0.0 for v in dist.values())
            assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_query_embedding_flattens_and_casts():
    q = QueryEmbedding([[1, 2]], query_id="x")
    assert q.q.shape == (2,)
    assert q.q.dtype == np.float64


def _sample_k_list_reference(p, k, rng):
    # The list-based sampler the array version replaced.
    probs = p.probs.copy()
    alive = list(range(len(p.ids)))
    out = []
    for _ in range(k):
        u = rng.uniform()
        cdf = np.cumsum(probs[alive])
        j = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(alive) - 1)
        out.append(p.ids[alive[j]])
        alive.pop(j)
    return out


def test_sample_k_matches_list_reference():
    gen = np.random.default_rng(11)
    for trial in range(200):
        n = int(gen.integers(1, 300))
        k = int(gen.integers(1, min(n, 12) + 1))
        probs = gen.dirichlet(np.full(n, float(gen.choice([0.05, 1.0, 20.0]))))
        p = ProbabilityVector(tuple(f"i{j:03d}" for j in range(n)), probs)
        a, b = RandomSource(trial), RandomSource(trial)
        assert sample_k_without_replacement(p, k, a) == _sample_k_list_reference(p, k, b)
        assert a.uniform() == b.uniform()  # the same number of draws consumed


def test_probability_lookup_sorted_unsorted_and_missing():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    for ids in (("a", "b", "c", "d"), ("c", "a", "d", "b")):
        p = ProbabilityVector(ids, probs)
        for k, i in enumerate(ids):
            assert p.index_of(i) == k and p[i] == probs[k]
        for missing in ("", "bb", "e", 3):
            with pytest.raises(KeyError):
                p[missing]


def _reference_probs(q, cat):
    # score's formula: one dot product per row on its own, rows in id order.
    logits = np.array([np.dot(row, q) for row in cat.matrix().astype(np.float64)])
    logits -= logits.max()
    np.clip(logits, -700.0, None, out=logits)
    w = np.exp(logits)
    return w / w.sum()


def test_score_bits_across_catalogs_of_other_sizes_and_dtypes():
    rng = np.random.default_rng(5)
    cats = [Catalog.from_rows(d, [f"i{k:05d}" for k in range(n)], rng.normal(size=(n, d)),
                              dtype=dtype)
            for n, d, dtype in [(3000, 8, np.float64), (40, 8, np.float32),
                                (500, 3, np.float64), (3000, 8, np.float64)]]
    for cat in cats + cats[::-1]:
        q = 3.0 * rng.normal(size=cat.dim)
        p = score(q, cat)
        kept = p.probs.copy()
        assert p.probs.tobytes() == _reference_probs(q, cat).tobytes()
        score(rng.normal(size=cats[0].dim), cats[0])
        assert p.probs.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_score_makes_no_catalog_sized_temporary(dtype):
    import tracemalloc

    rng = np.random.default_rng(6)
    cat = Catalog.from_rows(32, [f"i{k:05d}" for k in range(20000)], rng.normal(size=(20000, 32)),
                            dtype=dtype)
    q = rng.normal(size=32)
    score(q, cat)  # warm-up
    tracemalloc.start()
    try:
        score(q, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.matrix().nbytes / 4


def _churned(n, dim, dtype, seed=0):
    # Slot order far from id order: shuffled build, then remove/add in a loop.
    rng = np.random.default_rng(seed)
    cat = Catalog.from_rows(dim, [f"i{k:05d}" for k in rng.permutation(n)],
                            rng.normal(size=(n, dim)), dtype=dtype)
    for k, old in enumerate(list(cat.ids)[:: max(1, n // 50)]):
        cat.remove_item(old)
        cat.add_item(f"new{k:03d}", rng.normal(size=dim))
    return cat


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_score_bits_do_not_depend_on_row_layout(dtype, tmp_path):
    rng = np.random.default_rng(8)
    for n, d in [(2000, 64), (777, 7), (50, 16)]:
        churned = _churned(n, d, dtype, seed=n)
        write_snapshot(churned, str(tmp_path / "c.orag"))
        layouts = [churned, read_snapshot(str(tmp_path / "c.orag")),
                   Catalog.from_rows(d, churned.ids, churned.matrix(), dtype=dtype)]
        for _ in range(5):
            q = 3.0 * rng.normal(size=d)
            first, *rest = (score(q, cat) for cat in layouts)
            assert first.probs.tobytes() == _reference_probs(q, churned).tobytes()
            for p in rest:
                assert p.ids == first.ids and p.probs.tobytes() == first.probs.tobytes()


class _Counting:
    """A uniform source that returns the given `us` (or a seeded stream) and counts its draws."""

    def __init__(self, seed=0, us=None):
        self.us, self.calls = iter(us) if us is not None else None, 0
        self.rng = RandomSource(seed)

    def uniform(self):
        self.calls += 1
        return self.rng.uniform() if self.us is None else next(self.us)


def _assert_same_as_reference(probs, k, **source):
    p = ProbabilityVector(tuple(f"i{j:03d}" for j in range(len(probs))), np.asarray(probs))
    a, b = _Counting(**source), _Counting(**source)
    assert sample_k_without_replacement(p, k, a) == _sample_k_list_reference(p, k, b)
    assert a.calls == b.calls == k


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sample_k_largest_uniform_matches_reference(dtype):
    # In float32, u * cdf[-1] rounds up to cdf[-1], so every draw is clamped
    # to the last item still live; in float64 it picks the last positive weight.
    top = 1.0 - 2.0**-53
    for probs in ([0.2, 0.3, 0.5], [0.5, 0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0]):
        for k in range(1, len(probs) + 1):
            _assert_same_as_reference(np.array(probs, dtype), k, us=[top] * k)


def test_sample_k_exact_zero_weights_match_reference():
    gen = np.random.default_rng(12)
    for trial in range(100):
        n = int(gen.integers(2, 40))
        probs = gen.dirichlet(np.ones(n))
        probs[gen.random(n) < 0.4] = 0.0  # zeros in the middle
        probs[-int(gen.integers(1, n)):] = 0.0  # and a zero tail
        for k in sorted({1, int(gen.integers(1, n + 1)), n}):
            _assert_same_as_reference(probs, k, seed=trial)


def test_sample_k_whole_catalog_and_single_item_match_reference():
    gen = np.random.default_rng(13)
    for trial in range(50):
        n = int(gen.integers(1, 60))
        probs = gen.dirichlet(np.full(n, 0.3))
        _assert_same_as_reference(probs, n, seed=trial)
    _assert_same_as_reference(np.array([1.0]), 1, seed=0)
    _assert_same_as_reference(np.array([0.0]), 1, seed=0)


def _boundary_uniforms(probs, k, gen):
    """Uniforms whose targets u * cdf[-1] land on a value of the CDF the
    reference rebuilds for that draw (on a rounding boundary of a pick): a
    sampler whose CDF differs from it in the last bit picks another item."""
    alive, us = list(range(len(probs))), []
    for _ in range(k):
        cdf = np.cumsum(probs[alive])
        m = int(gen.integers(len(alive)))
        u = cdf[m] / cdf[-1]
        for _ in range(4):  # walk u onto the boundary where one exists
            u = np.nextafter(u, np.inf if u * cdf[-1] < cdf[m] else -np.inf)
            if u * cdf[-1] == cdf[m]:
                break
        us.append(float(min(u, np.nextafter(1.0, 0.0))))
        j = min(int(np.searchsorted(cdf, us[-1] * cdf[-1], side="right")), len(alive) - 1)
        alive.pop(j)
    return us


def test_sample_k_boundary_uniforms_match_reference():
    gen = np.random.default_rng(14)
    for trial in range(100):
        n = int(gen.integers(50, 400))
        probs = gen.dirichlet(np.full(n, float(gen.choice([0.05, 1.0]))))
        p = ProbabilityVector(tuple(f"i{j:03d}" for j in range(n)), probs)
        us = _boundary_uniforms(probs, 12, gen)
        assert (sample_k_without_replacement(p, 12, _Counting(us=us))
                == _sample_k_list_reference(p, 12, _Counting(us=us)))


def _sample_k_suffix_reference(
    p: ProbabilityVector, k: int, rng: RandomSource
) -> list:
    """Sequential renormalized draws; output order equals draw order."""
    if k < 1 or k > len(p.ids):
        raise KTooLarge(f"K={k} with I={len(p.ids)} items")
    w = np.array(p.probs)  # a drawn item's weight becomes zero
    cdf = np.add.accumulate(w)
    last, picks = len(w) - 1, []  # last live item: the pick when u * cdf[-1] rounds to cdf[-1]
    while True:
        j = min(int(cdf.searchsorted(rng.uniform() * cdf[-1], side="right")), last)
        picks.append(j)
        if len(picks) == k:
            return [p.ids[i] for i in picks]
        while last in picks:
            last -= 1
        # Redo the CDF from j on, seeded with the unchanged cdf[j-1]: cumsum
        # adds left to right, so these are the bits of a whole recompute.
        w[j] = cdf[j - 1] if j else 0.0
        np.add.accumulate(w[j:], out=cdf[j:])
        w[j] = 0.0


def _count_rebuilds(monkeypatch):
    calls = []
    exact = policy._exact_pick
    monkeypatch.setattr(policy, "_exact_pick", lambda *a: calls.append(a) or exact(*a))
    return calls


def _churn_probs(gen, latents, dtype=np.float64):
    """softmax(12 (latents @ q + noise)) for a query near one latent: the
    churn workload's temperature, where one item holds most of the mass."""
    q = latents[gen.integers(len(latents))] + 0.3 * gen.normal(size=latents.shape[1])
    logits = 12.0 * (latents @ q + 0.1 * gen.normal(size=len(latents)))
    w = np.exp(logits - logits.max())
    return (w / w.sum()).astype(dtype)


def _assert_same_as_suffix_reference(ids, probs, k, **source):
    p = ProbabilityVector(ids, probs)
    a, b = _Counting(**source), _Counting(**source)
    assert sample_k_without_replacement(p, k, a) == _sample_k_suffix_reference(p, k, b)
    assert a.calls == b.calls == k


def _latents(gen, n, d=64):
    latents = gen.normal(size=(n, d))
    return latents / np.linalg.norm(latents, axis=1, keepdims=True)


def test_sample_k_matches_suffix_reference_at_churn_scale(monkeypatch):
    rebuilds = _count_rebuilds(monkeypatch)
    gen = np.random.default_rng(15)
    latents = _latents(gen, 10_000)
    ids = tuple(f"i{j:05d}" for j in range(len(latents)))
    for case in range(300):
        _assert_same_as_suffix_reference(ids, _churn_probs(gen, latents), 10, seed=case)
    assert rebuilds == []  # a random target is never within the bound of a CDF value
    # In float32 the bound is ~10^4 float32 ulps of the total, so most picks rebuild.
    for case in range(50):
        _assert_same_as_suffix_reference(ids, _churn_probs(gen, latents, np.float32), 10, seed=case)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sample_k_whole_catalog_matches_suffix_reference_at_2000(dtype):
    gen = np.random.default_rng(16)
    latents = _latents(gen, 2000)
    ids = tuple(f"i{j:04d}" for j in range(len(latents)))
    for case in range(2):
        _assert_same_as_suffix_reference(ids, _churn_probs(gen, latents, dtype), 2000, seed=case)
    flat = gen.dirichlet(np.ones(2000)).astype(dtype)
    _assert_same_as_suffix_reference(ids, flat, 2000, seed=2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sample_k_fifty_matches_suffix_reference_at_churn_scale(dtype):
    gen = np.random.default_rng(19)
    latents = _latents(gen, 10_000)
    ids = tuple(f"i{j:05d}" for j in range(len(latents)))
    for case in range(20):
        _assert_same_as_suffix_reference(ids, _churn_probs(gen, latents, dtype), 50, seed=case)
    flat = gen.dirichlet(np.ones(len(ids))).astype(dtype)
    _assert_same_as_suffix_reference(ids, flat, 50, seed=20)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_sample_k_non_probability_weights_match_suffix_reference():
    # A hand-built vector may hold negative or non-finite weights: its CDF is
    # not monotone or its bound not finite, so no pick can be certified.
    gen = np.random.default_rng(18)
    for trial in range(300):
        n = int(gen.integers(3, 60))
        probs = gen.dirichlet(np.ones(n))
        probs[gen.random(n) < 0.2] *= -1.0
        if trial % 3:
            probs[int(gen.integers(n))] = (np.nan, np.inf)[trial % 3 - 1]
        ids = tuple(f"i{j:03d}" for j in range(n))
        _assert_same_as_suffix_reference(ids, probs, int(gen.integers(2, n + 1)), seed=trial)


def test_sample_k_boundary_uniforms_take_the_exact_rebuild(monkeypatch):
    rebuilds = _count_rebuilds(monkeypatch)
    gen = np.random.default_rng(17)
    ids = tuple(f"i{j:05d}" for j in range(10_000))
    for trial in range(10):
        probs = gen.dirichlet(np.full(len(ids), float(gen.choice([0.05, 1.0]))))
        _assert_same_as_suffix_reference(ids, probs, 10, us=_boundary_uniforms(probs, 10, gen))
    # Each draw after the first lands on a CDF value, so none can be certified.
    assert len(rebuilds) == 90


def test_scores_at_one_id_set_share_the_catalog_ids():
    rng = np.random.default_rng(20)
    cat = _churned(300, 8, np.float64)
    first, second = score(rng.normal(size=8), cat), score(rng.normal(size=8), cat)
    assert first.ids is second.ids is cat.ids
    cat.apply_changes([cat.ids[7]], [("fresh", rng.normal(size=8))])
    third = score(rng.normal(size=8), cat)
    assert third.ids is cat.ids and third.ids is not first.ids


def test_a_p_scored_before_a_change_keeps_its_ids():
    rng = np.random.default_rng(21)
    cat = _churned(500, 8, np.float64)
    p = score(3.0 * rng.normal(size=8), cat)
    old = tuple(cat.ids)
    frozen = ProbabilityVector(old, p.probs)
    row = rng.normal(size=8)
    cat.apply_changes([old[0], old[250], old[-1]],
                      [("a-first", row), (old[250] + "x", row), ("zzz", row)])
    assert p.ids == old and len(p.ids) == len(old) and p.ids[250] == old[250]
    assert all(p.index_of(i) == k and p[i] == p.probs[k] for k, i in enumerate(old))
    for missing in ("a-first", old[250] + "x", "zzz"):
        with pytest.raises(KeyError):
            p[missing]
    for seed in range(5):
        assert sample_one(p, RandomSource(seed)) == sample_one(frozen, RandomSource(seed))
        assert (sample_k_without_replacement(p, 10, RandomSource(seed))
                == sample_k_without_replacement(frozen, 10, RandomSource(seed)))


def test_a_delta_then_score_builds_no_id_tuple():
    import tracemalloc

    rng = np.random.default_rng(23)
    cat = _churned(10_000, 64, np.float64)
    q, row = rng.normal(size=64), rng.normal(size=64)
    score(q, cat)  # warm-up
    for k, gone in enumerate((cat.ids[4567], cat.ids[-1])):
        tracemalloc.start()
        try:
            cat.apply_changes([gone], [(f"fresh-{k}", row)])
            p = score(q, cat)
            held = tracemalloc.get_traced_memory()[0] - p.probs.nbytes
        finally:
            tracemalloc.stop()
        del p
        assert held < 16 * 1024  # a tuple of the 10^4 ids is 80 KB
