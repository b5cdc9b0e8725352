"""k-Nearest Neighbor classifier, implemented from scratch (paper §3).

The k-NN classifier decides the class of a test point by majority vote of
its *k* geometrically nearest training points (the paper uses ``k = 3``
and requires *k* odd).  Distances are Euclidean in the (PCA-reduced)
feature space.

One distance kernel, :func:`pairwise_sq_distances`, serves every
neighbor search.  It expands ``‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²`` with the
``a·bᵀ`` term accumulated feature column by feature column from
elementwise outer products — no GEMM — so row *i*'s distances are
bit-identical whatever the batch size and whichever BLAS is installed.
The pool-side operands ``‖b‖²`` and ``−2·bᵀ`` are computed once at fit
time, and queries are processed in chunks sized by
:data:`DISTANCE_BUFFER_BYTES` so each distance block stays in cache.
The classifier is dtype-preserving: the pool is stored at the training
scores' float dtype (float64 or float32) and queries, distance buffers,
and vote accumulators all follow it.

Tie-breaking is deterministic at both levels.  Neighbors are ordered by
**(squared distance, pool index)**: of two pool points at exactly the
same squared distance, the one with the smaller index comes first —
including at the k-th place, where it decides which of them is a
neighbor at all.  :meth:`~KNeighborsClassifier.kneighbors` selects
through :func:`select_k`, which gives that order by construction.
Among tied vote counts, the class with the smaller summed neighbor
distance wins, then the smaller class code.
"""

from __future__ import annotations

import numpy as np

from .preprocessing import _check_matrix

__all__ = [
    "DISTANCE_BUFFER_BYTES",
    "KNeighborsClassifier",
    "pairwise_sq_distances",
    "rowwise_sq_distances",
    "select_k",
]

#: Bytes of one chunk's ``(rows, pool size)`` distance block; the rows
#: per chunk are ``DISTANCE_BUFFER_BYTES // (pool size × itemsize)`` —
#: 200 float64 or 400 float32 rows on the paper's 327-point pool, where
#: a sweep from 128 KiB to 1 MiB put 512 KiB at or near the fastest.
DISTANCE_BUFFER_BYTES: int = 524_288


def pairwise_sq_distances(
    a: np.ndarray,
    b: np.ndarray,
    b_sq_norms: np.ndarray | None = None,
    *,
    b_neg2_t: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of *a* and rows of *b*.

    dtype: preserve

    Both inputs are row-per-sample (the transpose of the paper's ``q×m``
    column convention); returns a matrix of shape ``(len(a), len(b))``
    in the inputs' (promoted) float dtype.  The ``−2·a·bᵀ`` term is
    accumulated feature column by feature column, each column one
    elementwise outer product ``a[:, j] ⊗ (−2·b[:, j])``, then ``‖a‖²``
    and ``‖b‖²`` are added in place.  Every step is elementwise with a
    fixed order over the ``q`` feature columns, so row *i*'s distances
    are bit-identical for **any** batch size and on any BLAS (a GEMM's
    kernel, and so its rounding, depends on the operand shapes).  ``q``
    is the PCA dimension (2 for the paper's configuration), so the
    column loop is two fused passes, not a scalar loop.

    The expansion cancels catastrophically when a query coincides with
    a pool point — the result can come out as a tiny *negative* squared
    distance (≈ −ε·‖x‖², far worse in float32), which would poison
    ``1/d`` weighted votes and tie ordering — so the matrix is clamped
    at 0.0 in place before returning.

    *b_sq_norms* optionally supplies the per-row squared norms of *b*
    (``np.einsum("ij,ij->i", b, b)``) and *b_neg2_t* the contiguous
    ``−2·bᵀ``: the fitted k-NN hands in both, cached at fit time, and
    then the inputs are taken as already validated — the pool at fit,
    the queries once per search.  Without *b_neg2_t* both inputs are
    checked here.  The cached operands are exactly the values computed
    here, so either way gives the same bits.

    *work* optionally supplies a ``(2, rows, len(b))`` buffer with
    ``rows >= len(a)`` for the result and its scratch; the result is
    then ``work[0, :len(a)]``.  :meth:`KNeighborsClassifier.kneighbors`
    passes one buffer to all of its chunks: a fresh pair of blocks per
    chunk, freed together, can exceed glibc's trim threshold, and then
    every chunk page-faults its buffers back in.
    """
    if b_neg2_t is None:
        a = _check_matrix(a, dtype=None)
        b = _check_matrix(b, dtype=None)
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        b_neg2_t = np.ascontiguousarray(b.T * -2.0)
    if b_sq_norms is None:
        bb = np.einsum("ij,ij->i", b, b)
    else:
        bb = np.asarray(b_sq_norms)
        if bb.shape != (b.shape[0],):
            raise ValueError(
                f"b_sq_norms shape {bb.shape} does not match {b.shape[0]} pool rows"
            )
    aa = np.einsum("ij,ij->i", a, a)[:, None]
    if work is None:
        work = np.empty((2, a.shape[0], b_neg2_t.shape[1]), dtype=np.result_type(a, b_neg2_t))
    d2, scratch = work[0, : a.shape[0]], work[1, : a.shape[0]]
    # −2ab[i, t] = Σ_j a[i, j]·(−2b[t, j]), accumulated j = 0, 1, … —
    # fixed order, one IEEE product per entry.
    np.einsum("i,j->ij", a[:, 0], b_neg2_t[0], out=d2)
    for j in range(1, a.shape[1]):
        np.einsum("i,j->ij", a[:, j], b_neg2_t[j], out=scratch)
        d2 += scratch
    d2 += aa
    d2 += bb
    np.maximum(d2, 0.0, out=d2)
    return d2


#: The 1.2 name of :func:`pairwise_sq_distances`, kept as an alias.
rowwise_sq_distances = pairwise_sq_distances


def select_k(
    d2: np.ndarray,
    k: int,
    idx_out: np.ndarray | None = None,
    dist_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest pool points per row of a squared-distance matrix.

    dtype: preserve

    *d2* has shape ``(c, n)`` with ``n >= k`` and is **consumed**: every
    selected entry is overwritten with ``+inf``.  Writes the neighbor
    pool indices into *idx_out* (``(c, k)`` int64) and their distances —
    square roots of the selected squared distances, at *d2*'s dtype —
    into *dist_out* (``(c, k)``), allocating either when omitted, and
    returns ``(idx_out, dist_out)``.

    Tie rule: neighbors are ordered by (squared distance, pool index),
    so row *i* of the indices equals
    ``np.argsort(d2[i], kind="stable")[:k]``.  The kernel runs k passes
    of ``argmin`` along the rows, gathering each pass's winner and
    masking it with ``+inf``; ``argmin`` returns the *first* minimum,
    which is the tie rule.  Every step is row-wise, so selection is
    batch-size-invariant, and the distances are the selected values
    bit for bit.  A row whose selection holds a non-finite squared
    distance (``inf``/``NaN`` from overflow on a huge but finite query)
    is redone with the stable full sort, so it still returns k distinct
    indices in ``argsort`` order.

    Raises
    ------
    ValueError
        If *d2* is not 2-D or *k* is not in ``[1, n]``.
    """
    if d2.ndim != 2:
        raise ValueError(f"expected a (c, n) distance matrix, got shape {d2.shape}")
    c, n = d2.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} pool points")
    if idx_out is None:
        idx_out = np.empty((c, k), dtype=np.int64)
    if dist_out is None:
        dist_out = np.empty((c, k), dtype=d2.dtype)
    # Gather and mask through a flat view (one index per row, no 2-D
    # fancy indexing); a non-contiguous input is copied first so the
    # view aliases the matrix argmin reads.
    if not d2.flags.c_contiguous:
        d2 = np.ascontiguousarray(d2)
    flat = d2.reshape(-1)
    row_base = np.arange(0, c * n, n)
    for j in range(k):
        best = d2.argmin(axis=1)
        idx_out[:, j] = best
        pos = row_base + best
        dist_out[:, j] = flat[pos]
        flat[pos] = np.inf
    bad = np.flatnonzero(~np.isfinite(dist_out).all(axis=1))
    if bad.size:
        sub = d2[bad]
        # Undo the masks, last pass first: an index picked twice (only
        # possible once the rest of a row is inf) keeps its first, true
        # value.
        sub_rows = np.arange(bad.size)
        for j in range(k - 1, -1, -1):
            sub[sub_rows, idx_out[bad, j]] = dist_out[bad, j]
        order = np.argsort(sub, axis=1, kind="stable")[:, :k]
        idx_out[bad] = order
        dist_out[bad] = np.take_along_axis(sub, order, axis=1)
    np.sqrt(dist_out, out=dist_out)
    return idx_out, dist_out


class KNeighborsClassifier:
    """Vote-of-k-nearest-neighbors classifier.

    Parameters
    ----------
    k:
        Number of neighbors; must be a positive odd number (paper §3:
        "the votes of k (an odd number) nearest neighbors").
    chunk_size:
        Test rows per distance-matrix block.  ``None`` (the default)
        derives it from :data:`DISTANCE_BUFFER_BYTES` and the fitted
        pool's size and dtype; an explicit value overrides that.
    weighted:
        With ``True``, votes are weighted by inverse distance (closer
        neighbors count more) instead of the paper's plain majority —
        an ablation knob, off by default for paper fidelity.
    """

    def __init__(
        self, k: int = 3, chunk_size: int | None = None, weighted: bool = False
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if k % 2 == 0:
            raise ValueError("k must be odd (majority vote)")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.k = k
        self.chunk_size = chunk_size
        self.weighted = bool(weighted)
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._neg2_t: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        """Store the training pool.

        *x* has shape ``(n, q)`` — one row per training snapshot in the
        ``q``-dimensional PCA space — and *y* is the matching length-``n``
        class-code vector.  The pool is stored at *x*'s float dtype
        (float64 reference mode or float32 tolerance mode), and every
        inference buffer follows the fitted dtype from then on.  The
        pool is validated here, once, and the pool-side operands of the
        distance expansion — the per-row squared norms ``‖b‖²`` and the
        contiguous ``−2·bᵀ`` — are computed once, so :meth:`kneighbors`
        neither re-checks nor recomputes them per query chunk.

        Raises
        ------
        ValueError
            If labels don't match samples, or fewer than *k* samples are
            given.
        """
        x = _check_matrix(x, dtype=None)
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} samples")
        if x.shape[0] < self.k:
            raise ValueError(f"need at least k={self.k} training samples, got {x.shape[0]}")
        self._x = x.copy()
        self._y = y.copy()
        self._classes = np.unique(y)
        self._sq_norms = np.einsum("ij,ij->i", self._x, self._x)
        self._neg2_t = np.ascontiguousarray(self._x.T * -2.0)
        return self

    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has stored a training pool."""
        return self._x is not None

    @property
    def n_training_samples(self) -> int:
        """Size of the stored training pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x.shape[0]

    @property
    def training_points(self) -> np.ndarray:
        """The fitted ``(n, q)`` training pool (a read view).

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x

    @property
    def training_labels(self) -> np.ndarray:
        """The fitted class-code vector, shape ``(n,)``.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._y is None:
            raise RuntimeError("classifier not fitted")
        return self._y

    @property
    def training_sq_norms(self) -> np.ndarray:
        """Per-fit cached ``‖b‖²`` of the training pool, shape ``(n,)``.

        The constant term of the ``‖a‖² + ‖b‖² − 2a·bᵀ`` distance
        expansion, computed once in :meth:`fit` and handed to every
        :func:`pairwise_sq_distances` call of :meth:`kneighbors`.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._sq_norms is None:
            raise RuntimeError("classifier not fitted")
        return self._sq_norms

    @property
    def dtype(self) -> np.dtype:
        """Float dtype of the fitted training pool.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        return self._x.dtype

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def kneighbors(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest training points.

        *x* is row-per-sample, shape ``(m, q)``.  Returns
        ``(indices, distances)``, both of shape ``(m, k)``, neighbors
        ordered by (squared distance, pool index) — the :func:`select_k`
        tie rule.  Queries are routed through the fitted pool's dtype
        (a float32 model computes float32 distances instead of silently
        upcasting) and checked once here — finite, 2-D, matching width —
        before the chunked :func:`pairwise_sq_distances` calls reuse the
        fit-time pool operands.  Every step is row-wise, so row *i*'s
        neighbors are bit-identical whether it arrives alone or inside a
        batch of any size.

        Raises
        ------
        RuntimeError
            Before fitting.
        ValueError
            If *x* is not a finite ``(m, q)`` matrix of the pool's width.
        """
        if self._x is None:
            raise RuntimeError("classifier not fitted")
        x = _check_matrix(x, dtype=self._x.dtype)
        if x.shape[1] != self._x.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {self._x.shape[1]}")
        m = x.shape[0]
        indices = np.empty((m, self.k), dtype=np.int64)
        distances = np.empty((m, self.k), dtype=self._x.dtype)
        n = self._x.shape[0]
        step = self.chunk_size or max(1, DISTANCE_BUFFER_BYTES // (n * self._x.dtype.itemsize))
        work = np.empty((2, min(step, m), n), dtype=self._x.dtype)
        for start in range(0, m, step):
            stop = min(start + step, m)
            d2 = pairwise_sq_distances(
                x[start:stop], self._x, self._sq_norms, b_neg2_t=self._neg2_t, work=work
            )
            select_k(d2, self.k, indices[start:stop], distances[start:stop])
        return indices, distances

    #: The 1.2 name of :meth:`kneighbors`, kept as an alias.
    kneighbors_rows = kneighbors

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class codes for each test row (majority vote, deterministic ties).

        *x* is row-per-sample, shape ``(m, q)``; returns the length-``m``
        class vector ``C`` (the paper's ``C(1×m)`` stage output).  Row
        *i*'s class does not depend on the batch size.
        """
        indices, distances = self.kneighbors(x)
        return self.vote(indices, distances)

    def vote(self, indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Class codes from precomputed ``(m, k)`` neighbor indices/distances.

        This is the voting half of :meth:`predict`, split out so callers
        that already hold neighbors vote through exactly the same code
        path.  Each neighbor votes with a weight: 1 under the paper's
        plain majority, or, with ``weighted``, its inverse distance —
        except that in a row holding zero-distance neighbors only those
        vote, with unit weight, so an exact training-pool hit can never
        be outvoted by a cloud of merely-near neighbors.  The highest
        score wins; ties go to the smaller summed distance of the
        class's voters, then to the smaller class code.  Scores and
        distance sums accumulate at the distances' dtype in neighbor
        order, and every rule is row-independent, so voting on stacked
        rows is bit-identical to voting per run.
        """
        if self._y is None:
            raise RuntimeError("classifier not fitted")
        neighbor_labels = self._y[indices]  # (m, k)
        m = neighbor_labels.shape[0]
        n_classes = int(self._y.max()) + 1
        dtype = distances.dtype
        if self.weighted:
            # Distances come out of kneighbors clipped at zero, so <= 0
            # is the exact-match condition.
            exact = distances <= 0.0
            safe = np.where(exact, dtype.type(1.0), distances)  # no 0-division; masked below
            weights = np.where(
                exact.any(axis=1)[:, None], exact.astype(dtype), dtype.type(1.0) / safe
            )
            voter_distances = np.where(weights > 0.0, distances, dtype.type(0.0))
        else:
            weights = np.ones_like(distances)
            voter_distances = distances
        # Per-(row, class) totals through flat (row, class) keys.
        keys = (np.arange(m)[:, None] * n_classes + neighbor_labels).ravel()
        scores = np.zeros(m * n_classes, dtype=dtype)
        np.add.at(scores, keys, weights.ravel())
        dist_sums = np.zeros(m * n_classes, dtype=dtype)
        np.add.at(dist_sums, keys, voter_distances.ravel())
        scores = scores.reshape(m, n_classes)
        dist_sums = dist_sums.reshape(m, n_classes)
        best = np.full(m, -1, dtype=np.int64)
        best_score = np.full(m, -np.inf, dtype=dtype)
        best_dist = np.full(m, np.inf, dtype=dtype)
        for c in range(n_classes):
            s = scores[:, c]
            d = np.where(s > 0.0, dist_sums[:, c], np.inf)
            better = (s > best_score) | ((s == best_score) & (d < best_dist))
            best = np.where(better, c, best)
            best_score = np.where(better, s, best_score)
            best_dist = np.where(better, d, best_dist)
        return best

    def predict_one(self, point: np.ndarray) -> int:
        """Convenience: classify a single feature vector of shape ``(q,)``."""
        dtype = self._x.dtype if self._x is not None else np.dtype(np.float64)
        point = np.asarray(point, dtype=dtype)
        if point.ndim != 1:
            raise ValueError("predict_one expects a 1-D feature vector")
        return int(self.predict(point[None, :])[0])

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on labelled data.

        dtype: float64

        *x* is row-per-sample, shape ``(m, q)``; *y* the length-``m``
        ground-truth class vector.  Accuracy is a scalar diagnostic,
        always accumulated at float64 regardless of the model dtype.
        """
        y = np.asarray(y, dtype=np.int64)
        pred = self.predict(x)
        if pred.shape != y.shape:
            raise ValueError("label shape mismatch")
        return float(np.mean(pred == y))
