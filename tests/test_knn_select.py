"""The shared top-k kernel ``select_k`` and its (squared distance, pool index) tie rule."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.knn import KNeighborsClassifier, rowwise_sq_distances, select_k
from repro.metrics.catalog import NUM_METRICS, metric_indices
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier

KS = (1, 3, 5, 7)


def reference(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The tie rule spelled out: stable full sort, first k, square-rooted."""
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(d2, order, axis=1))


def assert_matches_reference(d2: np.ndarray, k: int) -> None:
    want_idx, want_dist = reference(d2, k)
    idx, dist = select_k(d2.copy(), k)
    assert idx.dtype == np.int64
    assert dist.dtype == d2.dtype
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist, want_dist, equal_nan=True)


@st.composite
def tied_matrices(draw, dtype=np.float64):
    """Squared-distance matrices from a tiny value alphabet (ties everywhere),
    with some columns duplicated and widths down to n = k."""
    k = draw(st.sampled_from(KS))
    n = draw(st.integers(k, k + 12))
    c = draw(st.integers(0, 8))
    values = st.sampled_from([0.0, 0.25, 1.0, 2.0, 2.0, 3.5])
    d2 = draw(arrays(dtype, (c, n), elements=values))
    if n > 1:
        dup = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
        for src, dst in dup:
            d2[:, dst] = d2[:, src]
    return d2, k


class TestMatchesStableArgsort:
    @given(case=tied_matrices())
    @settings(max_examples=300, deadline=None)
    def test_float64_rows_equal_stable_argsort(self, case):
        d2, k = case
        assert_matches_reference(d2, k)

    @given(case=tied_matrices(dtype=np.float32))
    @settings(max_examples=100, deadline=None)
    def test_float32_rows_equal_stable_argsort(self, case):
        d2, k = case
        assert_matches_reference(d2, k)

    @given(
        d2=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(7, 40)),
            elements=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
        ),
        k=st.sampled_from(KS),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_finite_rows(self, d2, k):
        assert_matches_reference(d2, k)

    @pytest.mark.parametrize("k", KS)
    def test_exact_tie_at_kth_place_takes_smaller_index(self, k):
        # k - 1 strictly nearer points, then three points tied for the
        # k-th place: the tied point with the smallest index wins it.
        n = k + 5
        d2 = np.full((1, n), 9.0)
        near = np.arange(n - 1, n - k, -1)  # high indices, so index order is not distance order
        d2[0, near] = np.arange(1.0, k) / k
        tied = [2, 0, n - k]  # unsorted on purpose
        d2[0, tied] = 5.0
        idx, _ = select_k(d2.copy(), k)
        assert idx[0, -1] == min(tied)
        assert_matches_reference(d2, k)

    @pytest.mark.parametrize("k", KS)
    def test_n_equals_k_returns_every_column(self, k):
        d2 = np.array([[3.0] * k, list(range(k, 0, -1))], dtype=np.float64)
        idx, _ = select_k(d2.copy(), k)
        assert sorted(idx[0]) == list(range(k))
        assert_matches_reference(d2, k)

    def test_non_contiguous_input(self):
        d2 = np.asfortranarray(np.random.default_rng(1).integers(0, 4, (6, 11)).astype(float))
        assert_matches_reference(d2, 5)
        assert_matches_reference(d2[:, ::2], 3)

    def test_writes_into_given_outputs(self):
        d2 = np.array([[4.0, 1.0, 1.0, 0.0]])
        idx = np.empty((1, 3), dtype=np.int64)
        dist = np.empty((1, 3))
        got = select_k(d2, 3, idx, dist)
        assert got[0] is idx and got[1] is dist
        assert idx.tolist() == [[3, 1, 2]]
        assert dist.tolist() == [[0.0, 1.0, 1.0]]

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            select_k(np.zeros((2, 4)), k)

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            select_k(np.zeros(4), 1)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("k", KS)
    def test_all_inf_row_returns_distinct_indices(self, k):
        d2 = np.full((2, k + 3), np.inf)
        d2[1] = np.arange(k + 3, dtype=float)
        idx, dist = select_k(d2.copy(), k)
        assert idx[0].tolist() == list(range(k))
        assert np.isinf(dist[0]).all()
        assert idx[1].tolist() == list(range(k))
        assert_matches_reference(d2, k)

    @given(
        d2=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(7, 12)),
            elements=st.sampled_from([0.0, 1.0, 1.0, 4.0, np.inf, np.nan, -np.inf]),
        ),
        k=st.sampled_from(KS),
    )
    @settings(max_examples=300, deadline=None)
    def test_non_finite_rows_follow_stable_argsort(self, d2, k):
        idx, _ = select_k(d2.copy(), k)
        for row in idx:
            assert len(set(row.tolist())) == k
        assert_matches_reference(d2, k)

    @pytest.mark.parametrize("scale", [1e200, -1e200, 1e154])
    def test_huge_finite_query_keeps_k_distinct_neighbors(self, scale):
        rng = np.random.default_rng(3)
        pool = rng.normal(size=(40, 2))
        knn = KNeighborsClassifier(k=5).fit(pool, rng.integers(0, 3, 40))
        queries = np.array([[scale, scale], [0.1, -0.2], [scale, -scale]])
        d2 = rowwise_sq_distances(queries, pool, b_sq_norms=knn.training_sq_norms)
        want_idx, want_dist = reference(d2, 5)
        idx, dist = knn.kneighbors_rows(queries)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist, equal_nan=True)
        gemm_idx, _ = knn.kneighbors(queries)
        for row in np.concatenate([idx, gemm_idx]):
            assert len(set(row.tolist())) == 5
        assert knn.predict(queries).shape == (3,)


# ----------------------------------------------------------------------
# All three neighbor-search paths on a pool with duplicates and ties.
# ----------------------------------------------------------------------
def tie_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid points, many repeated, in shuffled order: every
    distance is exact, so duplicates and equidistant points tie exactly."""
    rng = np.random.default_rng(seed)
    grid = np.array([(x, y) for x in range(-3, 4) for y in range(-3, 4)], dtype=np.float64)
    pool = np.repeat(grid, rng.integers(1, 4, grid.shape[0]), axis=0)
    pool = pool[rng.permutation(pool.shape[0])]
    return pool, rng.integers(0, 5, pool.shape[0])


def exact_queries(seed: int, m: int = 40) -> np.ndarray:
    rng = np.random.default_rng(seed + 100)
    return rng.integers(-4, 5, (m, 2)).astype(np.float64)


def exact_sq_distances(queries: np.ndarray, pool: np.ndarray) -> np.ndarray:
    return ((queries[:, None, :] - pool[None, :, :]) ** 2).sum(axis=2)


@pytest.fixture(scope="module")
def identity_classifier(classifier):
    """The session classifier with identity preprocessing and a projection
    onto the first two selected metrics, so the PCA scores of a series
    are exactly its (integer) metric values.  The fused projection is
    rebuilt from the swapped components, as every classify path uses it."""
    clf = copy.copy(classifier)
    preprocessor = copy.deepcopy(classifier.preprocessor)
    pca = copy.deepcopy(classifier.pca)
    p = len(preprocessor.selector.names)
    preprocessor.normalizer.mean_ = np.zeros(p)
    preprocessor.normalizer.scale_ = np.ones(p)
    pca.mean_ = np.zeros(p)
    pca.components_ = np.eye(2, p)
    clf.preprocessor = preprocessor
    clf.pca = pca
    clf._build_fused_projection()
    return clf


def series_at(points: np.ndarray, names: list[str], node: str) -> SnapshotSeries:
    matrix = np.zeros((NUM_METRICS, points.shape[0]))
    rows = metric_indices(names)
    matrix[rows[0]] = points[:, 0]
    matrix[rows[1]] = points[:, 1]
    return SnapshotSeries(node=node, timestamps=np.arange(points.shape[0]) * 5.0, matrix=matrix)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [3, 5])
def test_all_search_paths_agree_on_ties(identity_classifier, seed, k):
    pool, labels = tie_pool(seed)
    queries = exact_queries(seed)
    knn = KNeighborsClassifier(k=k, chunk_size=16).fit(pool, labels)
    want_idx, want_dist = reference(exact_sq_distances(queries, pool), k)

    gemm_idx, gemm_dist = knn.kneighbors(queries)
    rows_idx, rows_dist = knn.kneighbors_rows(queries)
    for idx, dist in ((gemm_idx, gemm_dist), (rows_idx, rows_dist)):
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)
    want_codes = knn.vote(want_idx, want_dist)

    clf = copy.copy(identity_classifier)
    clf.knn = knn
    names = list(clf.preprocessor.selector.names)
    series_list = [
        series_at(queries[:13], names, "a"),
        series_at(queries[13:14], names, "b"),
        series_at(queries[14:], names, "c"),
    ]
    results = BatchClassifier(clf).classify_batch(series_list)
    assert np.array_equal(np.concatenate([r.scores for r in results]), queries)
    assert np.array_equal(np.concatenate([r.class_vector for r in results]), want_codes)
    raw = np.zeros((queries.shape[0], len(names)))
    raw[:, :2] = queries
    assert np.array_equal(clf.classify_rows(raw), want_codes)
