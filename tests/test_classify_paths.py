"""Every classification path runs one projection and one neighbour search.

``classify_series``, ``BatchClassifier.classify_batch`` and
``classify_rows`` all call ``ApplicationClassifier.project`` and then
``KNeighborsClassifier.kneighbors``.  Both kernels are row-invariant, so
the three paths agree bit for bit whatever the batch composition, and a
non-finite feature is rejected by the one input check the search makes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClassifierConfig
from repro.core.knn import KNeighborsClassifier
from repro.core.pipeline import ApplicationClassifier
from repro.metrics.catalog import metric_indices
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier

#: Rows per distance chunk, so a run of up to 40 snapshots spans several.
CHUNK = 16


@pytest.fixture(scope="module")
def pool(training_outcome) -> np.ndarray:
    """Every training profile's ``(n_metrics, n_snapshots)`` columns, side by side."""
    return np.hstack([run.series.matrix for run in training_outcome.runs.values()])


@pytest.fixture(scope="module", params=["float64", "float32"])
def small_chunk_classifier(request, training_outcome) -> ApplicationClassifier:
    """A classifier of either dtype whose neighbour search runs 16-row chunks."""
    clf = ApplicationClassifier.from_config(ClassifierConfig(compute_dtype=request.param))
    clf.train(
        [(run.series, training_outcome.labels[key]) for key, run in training_outcome.runs.items()]
    )
    clf.knn = KNeighborsClassifier(k=clf.knn.k, chunk_size=CHUNK).fit(
        clf.knn.training_points, clf.knn.training_labels
    )
    return clf


def runs_from(pool: np.ndarray, lengths: list[int], start: int) -> list[SnapshotSeries]:
    n = pool.shape[1]
    return [
        SnapshotSeries(
            node=f"node{i}",
            timestamps=np.arange(m) * 5.0,
            matrix=pool[:, (start + 97 * i + np.arange(m)) % n],
        )
        for i, m in enumerate(lengths)
    ]


@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6), start=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_series_batch_and_rows_agree_bitwise(small_chunk_classifier, pool, lengths, start):
    clf = small_chunk_classifier
    series_list = runs_from(pool, lengths, start)
    batched = BatchClassifier(clf).classify_batch(series_list)
    selected = metric_indices(clf.preprocessor.selector.names)
    rows = np.vstack([s.matrix[selected].T for s in series_list])
    row_codes = clf.classify_rows(rows)
    row_scores = clf.project(rows.astype(clf.compute_dtype))
    o = 0
    for series, from_batch in zip(series_list, batched):
        alone = clf.classify_series(series)
        m = len(series)
        assert np.array_equal(alone.class_vector, from_batch.class_vector)
        assert np.array_equal(alone.scores, from_batch.scores)
        assert np.array_equal(alone.class_vector, row_codes[o : o + m])
        assert np.array_equal(alone.scores, row_scores[o : o + m])
        assert alone.scores.dtype == np.dtype(clf.compute_dtype)
        o += m


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_raises_on_every_path(small_chunk_classifier, pool, bad):
    clf = small_chunk_classifier
    good, broken = runs_from(pool, [5, 5], 0)
    selected = metric_indices(clf.preprocessor.selector.names)
    # SnapshotSeries rejects non-finite input at construction, so corrupt
    # one expert metric of a built series in place.
    broken.matrix[selected[3], 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        clf.classify_series(broken)
    with pytest.raises(ValueError, match="non-finite"):
        BatchClassifier(clf).classify_batch([good, broken])
    with pytest.raises(ValueError, match="non-finite"):
        clf.classify_rows(broken.matrix[selected].T)
