"""Vectorized fleet classification: many runs through one stacked kernel.

The sequential path (:meth:`ApplicationClassifier.classify_series`)
pays its Python and dispatch overhead once per run; a resource manager
classifying a fleet of short monitoring windows pays it hundreds of
times per scheduling round.  :class:`BatchClassifier` restructures the
Figure-2 pipeline around one stacked pass:

* normalization, squared-norm, distance assembly, top-k selection, and
  voting run **once** over the vertically stacked snapshot rows of all
  runs — each of these stages is row-independent, so stacking cannot
  change any row's result;
* the two GEMMs (PCA projection and the ``a·bᵀ`` term of the distance
  expansion) keep their **per-run shapes**, writing into row slices of
  preallocated batch buffers — BLAS kernel selection depends on the
  operand shapes, so per-run shapes are what make the batch output
  bit-identical to the sequential output.

The result is a list of per-run :class:`ClassificationResult` objects
whose class vectors, scores, compositions, application classes, and
categories are **bit-identical** to calling ``classify_series`` on each
run separately (asserted by ``tests/test_serve_batch.py``), at a
multiple of the sequential throughput
(``benchmarks/bench_serve_throughput.py``).

The kernel follows the classifier's ``compute_dtype``: the float64
reference mode stages normalize→center→project exactly as before, while
the float32 tolerance mode gathers straight into float32 and projects
through the fused single-GEMM (+bias) built at train time — in both
modes the batch stays bit-identical to the *same-dtype* sequential
path (the tolerance guarantee lives between dtypes, not between batch
and sequential).
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.knn import select_k
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

    def classify_many(
        self, series_list: Sequence[SnapshotSeries]
    ) -> list[ClassificationResult]:
        """Deprecated alias of :meth:`classify_batch` (gone in the release after 1.2)."""
        warnings.warn(
            "BatchClassifier.classify_many(...) is deprecated and will be "
            "removed in the next release; use the Classifier protocol method "
            "classify_batch(...)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.classify_batch(series_list)

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
        preprocessor = clf.preprocessor
        pca = clf.pca
        knn = clf.knn
        clock = clf.clock
        dtype = np.dtype(clf.compute_dtype)
        # Same branch the sequential path takes: float32 runs the fused
        # normalize→center→project GEMM, float64 keeps the staged
        # kernels bit-identical to the pre-fusion pipeline.
        tolerance = clf.compute_dtype != "float64"

        # --- preprocess: gather selected metrics per run, normalize stacked.
        # feature_matrix(names) is matrix[indices].copy().T; the direct
        # gather below produces the same values without per-run catalog
        # validation.  The gather buffer carries the compute dtype, so in
        # tolerance mode the float32 downcast happens during the copy —
        # the same rounding ``astype`` applies on the sequential path.
        # Normalization is elementwise (row-independent), so one stacked
        # transform matches the per-run transforms bit for bit.
        t = clock()
        idx_cols = np.asarray(metric_indices(preprocessor.selector.names), dtype=np.intp)
        lengths = [s.matrix.shape[1] for s in series_list]
        offsets = [0]
        for m in lengths:
            offsets.append(offsets[-1] + m)
        total = offsets[-1]
        # Gather straight into one preallocated buffer: each run's
        # fancy-indexed rows land in their final stacked slot, skipping
        # the per-run temporaries and the full-size vstack copy (pure
        # copies, values unchanged).
        raw = np.empty((total, idx_cols.shape[0]), dtype=dtype)
        for i, s in enumerate(series_list):
            o = offsets[i]
            raw[o : o + lengths[i]] = s.matrix[idx_cols, :].T
        # The traced path splits preprocess at the gather/normalize
        # boundary with one extra clock read; the untraced path keeps
        # its exact clock-call sequence (fake-clock tests pin it).
        t_gather = clock() if split_preprocess else 0.0
        features = raw if tolerance else preprocessor.normalizer.transform(raw)
        t_done = clock()
        preprocess_s = t_done - t
        if split_preprocess:
            filter_s = t_gather - t
            normalize_s = t_done - t_gather
        else:
            filter_s = preprocess_s
            normalize_s = 0.0

        # --- projection: the GEMM runs per run on the matching row
        # slice, so its operand shapes — and therefore its BLAS kernel
        # and accumulation order — are the ones the sequential path
        # uses.  Tolerance mode projects the raw gather through the
        # fused weights and adds the bias once over the stacked rows
        # (elementwise, row-independent); the float64 mode centers
        # stacked and projects per run exactly as before.
        t = clock()
        if tolerance:
            operand = features
            projection = clf.fused_weights_
        else:
            operand = features - pca.mean_
            projection = pca.components_.T
        scores_all = np.empty((total, projection.shape[1]), dtype=dtype)
        for i, m in enumerate(lengths):
            o = offsets[i]
            np.matmul(operand[o : o + m], projection, out=scores_all[o : o + m])
        if tolerance:
            scores_all += clf.fused_bias_
        pca_s = clock() - t

        # --- k-NN: the a·bᵀ GEMM of the ‖a−b‖² expansion runs per run,
        # chunked exactly like KNeighborsClassifier.kneighbors for runs
        # longer than chunk_size; everything downstream — the in-place
        # distance assembly ((−2ab + aa) + bb ≡ (aa − 2ab) + bb bitwise,
        # because IEEE addition commutes and negation is exact), clip,
        # the shared select_k top-k kernel (the same one kneighbors and
        # kneighbors_rows call, with its (squared distance, pool index)
        # tie rule), and the shared vote() — is row-independent and runs
        # once on the stacked rows.  The pool norms ``‖b‖²`` come from
        # the per-fit cache on the kNN model.
        t = clock()
        pool = knn.training_points
        pool_t = pool.T
        bb = knn.training_sq_norms[None, :]
        ab = np.empty((total, pool_t.shape[1]), dtype=dtype)
        chunk = knn.chunk_size
        for i, m in enumerate(lengths):
            o = offsets[i]
            for start in range(o, o + m, chunk):
                stop = min(start + chunk, o + m)
                np.matmul(scores_all[start:stop], pool_t, out=ab[start:stop])
        aa = np.einsum("ij,ij->i", scores_all, scores_all)[:, None]
        d2 = ab
        d2 *= -2.0
        d2 += aa
        d2 += bb
        np.maximum(d2, 0.0, out=d2)
        indices, distances = select_k(d2, knn.k)
        class_vector_all = knn.vote(indices, distances)
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
        offsets: list[int],
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
