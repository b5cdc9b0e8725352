"""Vectorized fleet classification: many runs through one stacked kernel.

The sequential path (:meth:`ApplicationClassifier.classify_series`)
pays its Python and dispatch overhead once per run; a resource manager
classifying a fleet of short monitoring windows pays it hundreds of
times per scheduling round.  :class:`BatchClassifier` gathers the
selected metrics of every run into one stacked ``(rows, p)`` matrix,
then runs the classifier's own kernels once over it — the fused
projection (:meth:`ApplicationClassifier.project`) and the k-NN
search and vote — and packages per-run results.

Those kernels are row-invariant: every step is elementwise or row-wise
with a fixed accumulation order, and no GEMM is involved, so a row's
result does not depend on how many rows share the call.  The stacked
pass is therefore bit-identical to calling ``classify_series`` on each
run separately — class vectors, scores, compositions, application
classes and categories — by construction and in both compute dtypes,
at a multiple of the sequential throughput
(``benchmarks/bench_serve_throughput.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.labels import ALL_CLASSES, ClassComposition, SnapshotClass, application_category
from ..core.pipeline import ApplicationClassifier, ClassificationResult, StageTimings
from ..errors import EmptySeriesError, NotTrainedError
from ..metrics.catalog import metric_indices
from ..metrics.series import SnapshotSeries
from ..obs import counter as obs_counter, enabled as obs_enabled, span as obs_span

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
        input order.  ``class_vector``, ``scores``, ``composition``,
        ``application_class``, and ``category`` match
        :meth:`~repro.core.pipeline.ApplicationClassifier.classify_series`
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
        results, _stage_seconds = self._classify_validated(series_list)
        return results

    def classify_batch_traced(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        """Classify plus the batch's five-stage wall-clock split.

        Same kernel and validation as :meth:`classify_batch`, but also
        returns ``(filter_s, normalize_s, pca_s, knn_s, vote_s)`` — the
        batch's stage durations with the preprocess time split at the
        gather/normalize boundary — so a request trace can synthesize
        the five pipeline-stage spans under its compute span.  The extra
        boundary costs one clock read per batch and only on this traced
        entry point, keeping the untraced path's clock sequence (and the
        fake-clock tests that pin it) unchanged.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If any series is empty.
        """
        return self._classify_validated(series_list, split_preprocess=True)

    def _classify_validated(
        self, series_list: Sequence[SnapshotSeries], split_preprocess: bool = False
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        clf = self.classifier
        if not clf.trained:
            raise NotTrainedError("classifier not trained")
        for series in series_list:
            if len(series) == 0:
                raise EmptySeriesError("cannot classify an empty series")
        if not series_list:
            return [], (0.0, 0.0, 0.0, 0.0, 0.0)
        with obs_span("serve.batch.classify", clock=clf.clock):
            results, stage_seconds = self._run_stacked(series_list, split_preprocess)
        if obs_enabled():
            obs_counter("serve.batch.runs", help="Runs classified by classify_batch.").inc(
                len(results)
            )
            obs_counter(
                "serve.batch.snapshots", help="Snapshots classified by classify_batch."
            ).inc(sum(r.num_samples for r in results))
        return results, stage_seconds

    # ------------------------------------------------------------------
    # the stacked kernel
    # ------------------------------------------------------------------
    def _run_stacked(
        self, series_list: Sequence[SnapshotSeries], split_preprocess: bool = False
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        clf = self.classifier
        clock = clf.clock

        # --- gather: each run's selected metrics land in their stacked
        # slot of one buffer at the compute dtype, so the cast that is
        # classify_series' "normalize" stage happens in the copy and
        # that stage is empty here.  The traced path still reads the
        # clock at the gather/normalize boundary; the untraced path
        # keeps its exact clock-call sequence (fake-clock tests pin it).
        t = clock()
        idx_cols = np.asarray(metric_indices(clf.preprocessor.selector.names), dtype=np.intp)
        lengths = [s.matrix.shape[1] for s in series_list]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        raw = np.empty((total, idx_cols.shape[0]), dtype=clf.compute_dtype)
        for i, s in enumerate(series_list):
            o = offsets[i]
            raw[o : o + lengths[i]] = s.matrix[idx_cols, :].T
        t_gather = clock() if split_preprocess else 0.0
        t_done = clock()
        preprocess_s = t_done - t
        if split_preprocess:
            filter_s = t_gather - t
            normalize_s = t_done - t_gather
        else:
            filter_s = preprocess_s
            normalize_s = 0.0

        # --- the classifier's kernels, once over the stacked rows.
        t = clock()
        scores_all = clf.project(raw)
        pca_s = clock() - t
        t = clock()
        class_vector_all = clf.knn.predict(scores_all)
        classify_s = clock() - t

        t = clock()
        results = self._package_results(series_list, lengths, offsets, class_vector_all, scores_all)
        vote_s = clock() - t

        # Apportion the batch's stage costs by snapshot share, so summed
        # per-run timings reproduce the batch totals (§5.3 accounting).
        for i, result in enumerate(results):
            share = lengths[i] / total
            result.timings.preprocess_s = preprocess_s * share
            result.timings.pca_s = pca_s * share
            result.timings.classify_s = classify_s * share
            result.timings.vote_s = vote_s * share
        return results, (filter_s, normalize_s, pca_s, classify_s, vote_s)

    def _package_results(
        self,
        series_list: Sequence[SnapshotSeries],
        lengths: list[int],
        offsets: np.ndarray,
        class_vector_all: np.ndarray,
        scores_all: np.ndarray,
    ) -> list[ClassificationResult]:
        """Per-run results from the stacked class vector and scores.

        dtype: float64

        Compositions are fractions of integer counts — exact bookkeeping
        shared by both numeric modes, always at float64 — via one
        stacked bincount (identical by construction to per-run
        ``from_class_vector``) and one row-wise argmax (identical to
        each composition's ``dominant()``).
        """
        n_classes = len(ALL_CLASSES)
        run_ids = np.repeat(np.arange(len(lengths)), lengths)
        counts = np.bincount(
            run_ids * n_classes + class_vector_all, minlength=len(lengths) * n_classes
        ).reshape(len(lengths), n_classes)
        fractions = counts / np.asarray(lengths, dtype=np.float64)[:, None]
        dominant_codes = np.argmax(fractions, axis=1)
        results: list[ClassificationResult] = []
        for i, series in enumerate(series_list):
            o, m = offsets[i], lengths[i]
            composition = ClassComposition(fractions=tuple(fractions[i].tolist()))
            app_class = SnapshotClass(int(dominant_codes[i]))
            results.append(
                ClassificationResult(
                    node=series.node,
                    num_samples=m,
                    class_vector=class_vector_all[o : o + m].copy(),
                    composition=composition,
                    application_class=app_class,
                    category=application_category(composition, dominant=app_class),
                    scores=scores_all[o : o + m].copy(),
                    timings=StageTimings(),
                )
            )
        return results
