"""Vectorized fleet classification: many runs through one stacked kernel.

Calling ``classify_series`` run by run pays the Python and dispatch
overhead of the pipeline once per run; a resource manager classifying
a fleet of short monitoring windows pays it hundreds of times per
scheduling round.  :class:`BatchClassifier` hands the whole fleet to
:meth:`ApplicationClassifier.classify_stacked` in one call: the
selected metrics of every run are gathered into one stacked
``(rows, p)`` matrix, projected, searched, voted and packaged per run
once, at a multiple of the per-run throughput
(``benchmarks/bench_serve_throughput.py``).

``classify_series`` is the one-run case of that same kernel, so the
batch is bit-identical to classifying each run separately — class
vectors, scores, compositions, application classes and categories —
by construction and in both compute dtypes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..core.pipeline import ApplicationClassifier, ClassificationResult
from ..errors import NotTrainedError
from ..metrics.series import SnapshotSeries

__all__ = ["BatchClassifier"]


class BatchClassifier:
    """Classify many snapshot series in one vectorized pass.

    Parameters
    ----------
    classifier:
        A *trained* :class:`~repro.core.pipeline.ApplicationClassifier`.
        The batch kernel reads the fitted preprocessing, PCA, and k-NN
        state directly; training state is re-read on every call, so a
        retrained classifier is picked up automatically.

    Raises
    ------
    NotTrainedError
        If the classifier is untrained (a ``RuntimeError`` subclass).
    """

    def __init__(self, classifier: ApplicationClassifier) -> None:
        if not classifier.trained:
            raise NotTrainedError("batch classification requires a trained classifier")
        self.classifier = classifier

    @classmethod
    def from_config(
        cls, config, *, model_source, seed: int = 0
    ) -> "BatchClassifier":
        """Build a batch classifier from a ``ClassifierConfig``.

        *model_source* is anything with ``get(config, seed=...)``
        returning a trained classifier — in practice a
        :class:`~repro.serve.cache.ModelCache` such as
        ``repro.manager.service.shared_model_cache()``; injected because
        training recipes live above ``repro.serve`` in the layering DAG.
        """
        return cls(model_source.get(config, seed=seed))

    def classify(self, snapshot: SnapshotSeries) -> ClassificationResult:
        """Classify one series (the unified protocol entry point).

        Single-series form of :meth:`classify_batch` — same validation,
        same stacked kernel, bit-identical to the sequential
        ``classify_series`` path.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If the series is empty.
        """
        return self.classify_batch([snapshot])[0]

    def classify_stream(
        self, drains: Iterable
    ) -> Iterator[list[ClassificationResult]]:
        """Classify a stream of ingest-plane drains (protocol entry point).

        *drains* yields ``DrainBatch``-shaped windows; each is regrouped
        into per-node series (:func:`repro.serve.stream.drain_to_series`)
        and classified through the stacked kernel, yielding one result
        list per drained batch (nodes in the batch's node order; nodes
        with no rows in a window are skipped).  Lazy — drains are
        consumed as the caller iterates.
        """
        from .stream import drain_to_series

        for batch in drains:
            yield self.classify_batch(drain_to_series(batch))

    def classify_batch(
        self, series_list: Sequence[SnapshotSeries]
    ) -> list[ClassificationResult]:
        """Classify every series; results are bit-identical to the sequential path.

        Returns one :class:`ClassificationResult` per input series, in
        input order, from
        :meth:`~repro.core.pipeline.ApplicationClassifier.classify_stacked`
        — the kernel ``classify_series`` runs for one run — so
        ``class_vector``, ``scores``, ``composition``,
        ``application_class``, and ``category`` match ``classify_series``
        exactly (same bits); ``timings`` reports the batch's stage costs
        apportioned to each run by its share of the stacked snapshots,
        since per-run wall clocks are not observable inside one fused
        kernel.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If any series is empty (the batch is rejected whole, before
            any work, so a bad request cannot half-classify a fleet).
        """
        return self.classifier.classify_stacked(series_list)[0]

    def classify_batch_traced(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        """Classify plus the batch's five-stage wall-clock split.

        Same kernel and validation as :meth:`classify_batch`, but also
        returns ``(filter_s, normalize_s, pca_s, knn_s, vote_s)`` — the
        batch's stage durations — so a request trace can synthesize the
        five pipeline-stage spans under its compute span.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If any series is empty.
        """
        return self.classifier.classify_stacked(series_list)
