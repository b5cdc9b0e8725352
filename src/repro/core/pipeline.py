"""The application classifier pipeline (paper Figure 2).

End-to-end dimension reduction and classification::

    A(n×m) --preprocess--> A'(p×m) --PCA--> B(q×m) --classify--> C(1×m) --vote--> Class

* train on labelled snapshot series from the training applications
  (PostMark→IO, SPECseis96→CPU, Pagebench→MEM, Ettcp→NET, idle→IDLE);
* classify each snapshot of a test run with the 3-NN classifier in the
  2-component PCA space;
* output both the majority-vote application *Class* and the full *class
  composition*, plus per-stage wall-clock timings (the paper's §5.3
  classification-cost accounting).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import EmptySeriesError, NotTrainedError
from ..metrics.catalog import metric_indices
from ..metrics.series import SnapshotSeries
from ..obs import (
    enabled as obs_enabled,
    get_registry as obs_get_registry,
    span as obs_span,
)
from ..obs.context import PIPELINE_STAGE_NAMES
from .config import ClassifierConfig
from .knn import KNeighborsClassifier
from .labels import ALL_CLASSES, ClassComposition, SnapshotClass, application_category
from .pca import PCA
from .preprocessing import MetricSelector, Normalizer, Preprocessor


#: A clock is any zero-argument callable returning seconds as a float.
#: ``time.perf_counter`` (held as a reference, never called directly by
#: pipeline code) is the production default; tests inject fake clocks to
#: keep classification output bit-reproducible.
Clock = Callable[[], float]

#: Production clock for :class:`StageTimings` accounting.  This is the
#: single sanctioned wall-clock touchpoint in ``repro.core`` — everything
#: else must receive time through an injected ``Clock``.
DEFAULT_CLOCK: Clock = time.perf_counter

#: Names of the per-stage child spans emitted under a request trace.
_STAGE_SPAN_NAMES = tuple(f"pipeline.stage.{stage}" for stage in PIPELINE_STAGE_NAMES)


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each classification stage."""

    preprocess_s: float = 0.0
    pca_s: float = 0.0
    classify_s: float = 0.0
    vote_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total seconds across all four stages."""
        return self.preprocess_s + self.pca_s + self.classify_s + self.vote_s

    def per_sample_ms(self, num_samples: int) -> float:
        """Unit classification cost in milliseconds per snapshot."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return 1000.0 * self.total_s / num_samples


@dataclass
class ClassificationResult:
    """Everything the classification center outputs for one run."""

    node: str
    num_samples: int
    class_vector: np.ndarray = field(repr=False)
    composition: ClassComposition
    application_class: SnapshotClass
    category: str
    scores: np.ndarray = field(repr=False)
    timings: StageTimings = field(default_factory=StageTimings)

    def percent(self, c: SnapshotClass) -> float:
        """Composition percentage of class *c* (Table 3 format)."""
        return 100.0 * self.composition.fraction(c)


def _run_compositions(
    class_vector: np.ndarray, lengths: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run class fractions and dominant codes of a stacked class vector.

    dtype: float64

    Run *i* owns the next ``lengths[i]`` entries of *class_vector*.
    Compositions are fractions of integer counts, exact bookkeeping kept
    at float64 in both numeric modes: one stacked ``bincount`` (the same
    bits as ``ClassComposition.from_class_vector`` per run) and one
    row-wise ``argmax`` (each composition's ``dominant()``: a tie goes
    to the lower code).  Returns the ``(runs, classes)`` fractions and
    the length-``runs`` dominant codes.
    """
    n_classes = len(ALL_CLASSES)
    run_ids = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.bincount(
        run_ids * n_classes + class_vector, minlength=len(lengths) * n_classes
    ).reshape(len(lengths), n_classes)
    fractions = counts / np.asarray(lengths, dtype=np.float64)[:, None]
    return fractions, np.argmax(fractions, axis=1)


class ApplicationClassifier:
    """PCA + k-NN application classifier.

    Parameters
    ----------
    selector:
        Metric subset to use (default: the paper's 8 expert metrics).
    n_components:
        PCA components ``q``; the paper's threshold extracts exactly 2.
        Mutually exclusive with *min_variance_fraction*.
    min_variance_fraction:
        Variance-based component selection, if preferred.
    k:
        Neighbors in the vote (default 3, odd required).
    compute_dtype:
        ``"float64"`` (default) — the reference mode — or ``"float32"``
        — the documented tolerance mode.  The dtype only sets the type
        of every fitted parameter and buffer: both modes run the same
        kernels (:meth:`project`, then the k-NN search), and in each
        mode every classification path is bit-identical to every other
        at any batch size.
    clock:
        Injected clock for the §5.3 stage-timing accounting (defaults to
        :data:`DEFAULT_CLOCK`); pass a fake for deterministic timings.

    All tuning parameters are keyword-only.
    """

    def __init__(
        self,
        *,
        selector: MetricSelector | None = None,
        n_components: int | None = 2,
        min_variance_fraction: float | None = None,
        k: int = 3,
        compute_dtype: str = "float64",
        clock: Clock | None = None,
    ) -> None:
        if compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', got {compute_dtype!r}"
            )
        self.compute_dtype = compute_dtype
        self._dtype = np.dtype(compute_dtype)
        self.clock: Clock = clock if clock is not None else DEFAULT_CLOCK
        self.preprocessor = Preprocessor(
            selector=selector or MetricSelector(),
            normalizer=Normalizer(dtype=self._dtype),
        )
        if min_variance_fraction is not None:
            n_components = None
        self.pca = PCA(n_components=n_components, min_variance_fraction=min_variance_fraction)
        self.knn = KNeighborsClassifier(k=k)
        self.training_scores_: np.ndarray | None = None
        self.training_labels_: np.ndarray | None = None
        # Folded normalize→center→project operands, built at train time:
        # scores == raw_selected @ fused_weights_ + fused_bias_, the
        # projection every classification path runs (see project()).
        self.fused_weights_: np.ndarray | None = None
        self.fused_bias_: np.ndarray | None = None
        # Catalog rows of the selected metrics, the gather's index.
        self._metric_indices: np.ndarray | None = None
        # Cached observability instrument handles, keyed by
        # (registry, generation); see _obs_instruments().
        self._obs_cache: tuple | None = None

    @classmethod
    def from_config(cls, config: ClassifierConfig) -> "ApplicationClassifier":
        """Construct a classifier from a :class:`ClassifierConfig`.

        The config is the sanctioned way to carry tuning parameters
        through the serving layer (it doubles as the model-cache key).
        Both numeric modes construct here: ``compute_dtype="float64"``
        is the reference pipeline and ``compute_dtype="float32"`` the
        tolerance mode (see ``docs/API.md`` § Numeric modes).
        """
        return cls(
            selector=config.selector(),
            n_components=config.n_components,
            min_variance_fraction=config.min_variance_fraction,
            k=config.k,
            compute_dtype=config.compute_dtype,
            clock=config.clock,
        )

    @property
    def config(self) -> ClassifierConfig:
        """The :class:`ClassifierConfig` equivalent to this classifier.

        Reconstructed from the live components, so it is accurate for
        classifiers built with scattered kwargs too; the clock is
        excluded from config equality, making this usable as a cache key.
        """
        return ClassifierConfig(
            metric_names=self.preprocessor.selector.names,
            n_components=self.pca.n_components,
            min_variance_fraction=self.pca.min_variance_fraction,
            k=self.knn.k,
            compute_dtype=self.compute_dtype,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self, training_data: Sequence[tuple[SnapshotSeries, SnapshotClass]]) -> "ApplicationClassifier":
        """Fit preprocessing, PCA, and the k-NN pool on labelled series.

        Every snapshot of each series is labelled with the series' class
        (the paper trains on whole runs of class-representative
        applications).

        Raises
        ------
        ValueError
            If no training data, or fewer than 2 distinct classes, are
            provided.
        """
        if not training_data:
            raise ValueError("no training data given")
        labels = {label for _, label in training_data}
        if len(labels) < 2:
            raise ValueError("training data must cover at least 2 classes")
        series_list = [series for series, _ in training_data]
        self.preprocessor.fit(series_list)
        features = []
        y = []
        for series, label in training_data:
            f = self.preprocessor.transform_series(series)
            features.append(f)
            y.append(np.full(f.shape[0], int(label), dtype=np.int64))
        x = np.vstack(features)
        y_arr = np.concatenate(y)
        scores = self.pca.fit_transform(x)
        self.knn.fit(scores, y_arr)
        self.training_scores_ = scores
        self.training_labels_ = y_arr
        self._build_fused_projection()
        return self

    def _build_fused_projection(self) -> None:
        """Fold the Normalizer affine and PCA centering into one projection.

        With ``μn, σn`` the normalizer statistics, ``μp`` the PCA mean,
        and ``W`` the ``(q, p)`` component matrix, the staged pipeline
        computes ``((x − μn)/σn − μp) @ Wᵀ``.  Distributing gives the
        affine form ``x @ (Wᵀ/σn) + c`` with
        ``c = −(μn/σn + μp) @ Wᵀ`` — one ``(p, q)`` projection plus a
        bias per classification instead of three elementwise passes and
        a projection.  The operands carry the compute dtype; rebuild
        them after replacing the fitted preprocessor or PCA.  The
        selector's catalog rows, which every series gather reads, are
        resolved here too.
        """
        self._metric_indices = np.asarray(
            metric_indices(self.preprocessor.selector.names), dtype=np.intp
        )
        normalizer = self.preprocessor.normalizer
        components_t = self.pca.components_.T
        self.fused_weights_ = components_t / normalizer.scale_[:, None]
        self.fused_bias_ = -(
            (normalizer.mean_ / normalizer.scale_ + self.pca.mean_) @ components_t
        )

    @property
    def trained(self) -> bool:
        """True once :meth:`train` has fitted the k-NN pool."""
        return self.knn.fitted

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _obs_instruments(self) -> tuple[tuple, object, object]:
        """Instrument handles for the hot path, cached per registry epoch.

        :meth:`classify_stacked` observes five stage latencies (the
        histograms come in :data:`PIPELINE_STAGE_NAMES` order) and two
        counters per call; resolving each through the registry's
        get-or-create (label normalization, dict keys) would dominate
        the instrumentation budget.  Handles stay valid until the
        registry is swapped (disable/enable) or reset, both of which
        change the ``(registry, generation)`` cache key.
        """
        registry = obs_get_registry()
        cache = self._obs_cache
        if cache is not None and cache[0] is registry and cache[1] == registry.generation:
            return cache[2], cache[3], cache[4]
        stage_hists = tuple(
            registry.histogram(
                "pipeline.stage.seconds",
                help="Latency of one classification pipeline stage.",
                stage=stage,
            )
            for stage in PIPELINE_STAGE_NAMES
        )
        snapshots_c = registry.counter("pipeline.snapshots", help="Snapshots classified.")
        runs_c = registry.counter("pipeline.runs", help="Series classified end to end.")
        self._obs_cache = (registry, registry.generation, stage_hists, snapshots_c, runs_c)
        return stage_hists, snapshots_c, runs_c

    def classify_series(self, series: SnapshotSeries) -> ClassificationResult:
        """Classify every snapshot of *series* and aggregate.

        The one-run case of :meth:`classify_stacked`, so it is the same
        kernel, with the same checks and telemetry, as batched serving.

        Raises
        ------
        NotTrainedError
            If called before training (a ``RuntimeError`` subclass).
        EmptySeriesError
            If the series is empty (a ``ValueError`` subclass).
        """
        return self.classify_stacked([series])[0][0]

    def classify_stacked(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        """Classify many runs in one stacked pass: the one series kernel.

        dtype: preserve

        Every series path runs here — :meth:`classify_series` is the
        one-run case and ``repro.serve.batch.BatchClassifier`` the
        many-run one — so batch ≡ sequential holds by construction.  The
        selected metrics of every run are gathered into one ``(rows, p)``
        buffer at the compute dtype (the copy is the cast), projected by
        :meth:`project`, classified by ``knn.predict``, and packaged per
        run: compositions are fractions of integer counts from one
        stacked ``bincount`` (exact bookkeeping, float64 in both modes)
        and application classes one row-wise ``argmax`` (a tie goes to
        the lower code, as in ``ClassComposition.dominant``).

        Returns the per-run results in input order, plus the batch's
        ``(filter, normalize, pca, knn, vote)`` stage seconds.  The
        normalize stage is empty: normalization is folded into the
        projection.  Each result's :class:`StageTimings` is the batch's
        split scaled by the run's share of the stacked snapshots, so the
        per-run timings sum to the batch totals (§5.3 accounting).

        With obs enabled the call opens one ``pipeline.classify`` span,
        observes each stage once into ``pipeline.stage.seconds``, counts
        ``pipeline.runs`` and ``pipeline.snapshots``, and, only while a
        request trace is open on this thread, emits the five
        ``pipeline.stage.*`` child spans from the clock reads already
        taken.  (Per-stage spans on every call would cost more than the
        obs overhead budget; five histogram observations do not.)

        Raises
        ------
        NotTrainedError
            If called before training (a ``RuntimeError`` subclass).
        EmptySeriesError
            If any series is empty (a ``ValueError`` subclass); the batch
            is rejected whole, before any work.
        ValueError
            If a selected metric is not finite.
        """
        if not self.trained:
            raise NotTrainedError("classifier not trained")
        lengths = [len(series) for series in series_list]
        if 0 in lengths:
            raise EmptySeriesError("cannot classify an empty series")
        if not lengths:
            return [], (0.0, 0.0, 0.0, 0.0, 0.0)
        clock = self.clock
        timed = obs_enabled()
        with obs_span("pipeline.classify", clock=clock):
            t0 = clock()
            offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            total = int(offsets[-1])
            raw = np.empty((total, self._metric_indices.shape[0]), dtype=self._dtype)
            for series, start, stop in zip(series_list, offsets, offsets[1:]):
                raw[start:stop] = series.matrix[self._metric_indices].T
            t1 = clock()
            scores = self.project(raw)
            t2 = clock()
            class_vector = self.knn.predict(scores)
            t3 = clock()
            fractions, dominant = _run_compositions(class_vector, lengths)
            results = []
            for series, start, stop, row, code in zip(
                series_list, offsets, offsets[1:], fractions.tolist(), dominant
            ):
                composition = ClassComposition(fractions=tuple(row))
                app_class = SnapshotClass(int(code))
                results.append(
                    ClassificationResult(
                        node=series.node,
                        num_samples=int(stop - start),
                        class_vector=class_vector[start:stop].copy(),
                        composition=composition,
                        application_class=app_class,
                        category=application_category(composition, dominant=app_class),
                        scores=scores[start:stop].copy(),
                    )
                )
            t4 = clock()
            stage_seconds = (t1 - t0, 0.0, t2 - t1, t3 - t2, t4 - t3)
            if timed:
                registry = obs_get_registry()
                if registry.current_trace_id():
                    registry.emit_spans(
                        zip(_STAGE_SPAN_NAMES, (t0, t1, t1, t2, t3), stage_seconds)
                    )
        if timed:
            stage_hists, snapshots_c, runs_c = self._obs_instruments()
            for hist, duration in zip(stage_hists, stage_seconds):
                hist.observe(duration)
            snapshots_c.inc(total)
            runs_c.inc(len(results))
        filter_s, _, pca_s, knn_s, vote_s = stage_seconds
        for result in results:
            share = result.num_samples / total
            result.timings = StageTimings(
                preprocess_s=filter_s * share,
                pca_s=pca_s * share,
                classify_s=knn_s * share,
                vote_s=vote_s * share,
            )
        return results, stage_seconds

    def project(self, features: np.ndarray) -> np.ndarray:
        """PCA scores of raw selected feature rows, through the fused projection.

        dtype: preserve

        *features* is ``(m, p)`` raw rows of the selected metrics at the
        compute dtype; returns the ``(m, q)`` scores
        ``features @ fused_weights_ + fused_bias_`` — normalization,
        centering and projection in one affine map.  The product is
        accumulated feature column by feature column onto the bias with
        elementwise broadcasts (fixed order, no GEMM), so row *i*'s
        scores are bit-identical for any batch size and on any BLAS.
        The sum is built in a ``(q, m)`` buffer, so each broadcast runs
        along the long ``m`` axis, then returned C-contiguous.  Every
        classification path projects here.
        """
        weights = self.fused_weights_  # (p, q)
        scores_t = np.empty((weights.shape[1], features.shape[0]), dtype=self._dtype)
        scores_t[:] = self.fused_bias_[:, None]
        scratch = np.empty_like(scores_t)
        for j in range(weights.shape[0]):
            np.multiply(weights[j][:, None], features[:, j], out=scratch)
            scores_t += scratch
        return np.ascontiguousarray(scores_t.T)

    def classify_rows(self, features: np.ndarray) -> np.ndarray:
        """Classify raw feature rows; row *i*'s class is independent of the batch.

        *features* is oriented samples×metrics — shape ``(k, p)`` for
        ``k`` snapshots of the ``p`` selected metrics (the transpose of
        the paper's ``p×m`` convention, one row per snapshot); returns
        the length-``k`` class vector.  Runs :meth:`project` and the
        k-NN search, the same two kernels as :meth:`classify_series`
        and the batched serving path, so row *i*'s class is
        bit-identical however many rows share the call.

        This is the streaming-ingest entry point: the unified
        ``classify`` protocol method and the drained-batch ``pump``
        both run it.  With obs enabled the call observes the three
        stages it runs (``filter`` — the cast and shape check —
        ``pca`` and ``knn``) into ``pipeline.stage.seconds`` and counts
        its rows in ``pipeline.snapshots``, through the handles
        :meth:`classify_stacked` uses; with obs off it reads no clock.

        Raises
        ------
        NotTrainedError
            If called before training.
        ValueError
            If *features* is not a finite ``(k, p)`` matrix.
        """
        if not self.trained:
            raise NotTrainedError("classifier not trained")
        if not obs_enabled():
            return self.knn.predict(self.project(self._feature_rows(features)))
        clock = self.clock
        t0 = clock()
        x = self._feature_rows(features)
        t1 = clock()
        scores = self.project(x)
        t2 = clock()
        codes = self.knn.predict(scores)
        t3 = clock()
        stage_hists, snapshots_c, _ = self._obs_instruments()
        filter_h, _, pca_h, knn_h, _ = stage_hists
        filter_h.observe(t1 - t0)
        pca_h.observe(t2 - t1)
        knn_h.observe(t3 - t2)
        snapshots_c.inc(x.shape[0])
        return codes

    def _feature_rows(self, features: np.ndarray) -> np.ndarray:
        """*features* as a ``(k, p)`` matrix at the compute dtype, shape-checked."""
        x = np.asarray(features, dtype=self._dtype)
        if x.ndim != 2 or x.shape[1] != self.fused_weights_.shape[0]:
            raise ValueError(
                f"expected (k, {self.fused_weights_.shape[0]}) feature rows, got shape {x.shape}"
            )
        return x
