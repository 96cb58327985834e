"""Large-margin nearest-neighbor learning of a Mahalanobis metric.

The learned object is a symmetric positive-semidefinite matrix M.
Training minimizes a pull term (squared distances between each focal
point and its k same-class target neighbors) plus a weighted hinge
push term over triplets (focal, target, impostor), by full-batch
projected gradient descent: after every step M is projected back onto
the PSD cone by eigendecomposition. Triplets are built once from
Euclidean neighborhoods and never re-mined, so the objective is fixed
and accepted-step losses are non-increasing.

Both terms are weighted sums over point pairs, so loss and gradient are
computed in Gram/Laplacian form over the n training points (Weinberger &
Saul, JMLR 10, 2009) with no per-pair or per-triplet difference array.
A pair's weight depends on its count of active triplets (positive hinge).
Each iteration gets the counts of every pull pair and every (focal,
impostor) edge as segment sums of the active flags, over groupings
built once per fit, and the Laplacian from one bincount over both
directions of every edge. These forms return the same bits as the plain
bincount-and-transpose form; _Objective says why each step is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from .errors import InsufficientDataError, InvalidArgumentError, TrainingError
from .features import _as_matrix
from .sampling import _array, _finite, _frozen, _integer

__all__ = [
    "MetricMatrix",
    "TripletSet",
    "LmnnConfig",
    "mahalanobis_distance",
    "build_triplets",
    "train_metric",
]

_SYM_TOL = 1e-10
_EIG_TOL = 1e-8
_QUAD_TOL = 1e-10
_MIN_STEP = 1e-18


@dataclass(frozen=True)
class MetricMatrix:
    """A symmetric PSD matrix defining a squared form d^2 = delta' M delta."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self, "matrix", _array(self.matrix, "metric", ndim=2))
        if m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidArgumentError("metric must be a nonempty square matrix")
        if float(np.abs(m - m.T).max()) >= _SYM_TOL:
            raise InvalidArgumentError("metric must be symmetric")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues.min()) < -_EIG_TOL:
            raise InvalidArgumentError("metric must be positive semidefinite")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def factor(self) -> np.ndarray:
        """U with U U' = matrix, via eigenvectors scaled by sqrt eigenvalues."""
        values, vectors = np.linalg.eigh(self.matrix)
        return vectors * np.sqrt(np.clip(values, 0.0, None))

    @classmethod
    def identity(cls, dim: int) -> "MetricMatrix":
        return cls(np.eye(dim))


@dataclass(frozen=True)
class TripletSet:
    """Static training structure: pull pairs and push triplets.

    pairs holds every (focal, target-neighbor) index pair; triplets
    holds (focal, target, impostor) index rows. Impostors are the
    different-class points inside each focal's 3k-nearest Euclidean
    neighborhood, so a focal with no nearby impostors contributes pull
    pairs but no triplets.

    The structure _Objective relies on is checked here: indices are
    nonnegative, pull pairs are unique and no pair or impostor edge
    joins a point to itself, every triplet's (focal, target) is a pull
    pair, and no impostor edge (focal, impostor) is one. Whether the
    indices lie below the point count is checked where the points are.
    """

    pairs: np.ndarray
    triplets: np.ndarray

    def __post_init__(self) -> None:
        pairs = _frozen(self, "pairs", _array(self.pairs, "pairs", np.int64, ndim=2))
        triplets = _frozen(self, "triplets", _array(self.triplets, "triplets", np.int64, ndim=2))
        if pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise InvalidArgumentError("pairs must be a nonempty (P, 2) index array")
        if triplets.shape[1] != 3:
            raise InvalidArgumentError("triplets must be a (T, 3) index array")
        if pairs.min() < 0 or triplets.min(initial=0) < 0:
            raise InvalidArgumentError("pair and triplet indices must be nonnegative")
        if np.any(pairs[:, 0] == pairs[:, 1]) or np.any(triplets[:, 0] == triplets[:, 2]):
            raise InvalidArgumentError("no pair or impostor edge may join a point to itself")
        size = int(max(pairs.max(), triplets.max(initial=0))) + 1
        codes = np.sort(pairs[:, 0] * size + pairs[:, 1])
        if np.any(codes[1:] == codes[:-1]):
            raise InvalidArgumentError("pull pairs must not repeat")
        if not _contains(codes, triplets[:, 0] * size + triplets[:, 1]).all():
            raise InvalidArgumentError("every triplet's (focal, target) must be a pull pair")
        if _contains(codes, triplets[:, 0] * size + triplets[:, 2]).any():
            raise InvalidArgumentError("an impostor edge (focal, impostor) must not be a pull pair")


def _contains(ascending: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of values occurs in the nonempty ascending array.

    One index array of values' size is the only temporary: triplet
    arrays are the largest of a fit, and these checks run beside them.
    """
    found = np.searchsorted(ascending, values)
    np.take(ascending, found, mode="clip", out=found)
    return found == values


@dataclass(frozen=True)
class LmnnConfig:
    """Hyperparameters of the projected-gradient trainer."""

    k: int = 25
    push_weight: float = 1.0
    margin: float = 1.0
    max_iters: int = 200
    step_size: float = 1e-3
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("k", "max_iters"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("push_weight", "margin", "step_size", "tolerance"):
            object.__setattr__(self, name, float(_finite(getattr(self, name), name)))
        if self.k < 1:
            raise InvalidArgumentError("k must be at least 1")
        if self.push_weight <= 0 or self.margin <= 0:
            raise InvalidArgumentError("push_weight and margin must be positive")
        if self.max_iters < 0:
            raise InvalidArgumentError("max_iters must be nonnegative")
        if self.step_size <= 0 or self.tolerance <= 0:
            raise InvalidArgumentError("step_size and tolerance must be positive")


def _quadratic_forms(deltas: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Unclamped delta' M delta of each row of a C-ordered (rows, d) block.

    Both products are stacked matmuls, so each row takes its own one-row
    products and its value does not depend on the rows beside it.
    """
    return np.matmul(np.matmul(deltas[:, np.newaxis, :], matrix), deltas[:, :, np.newaxis]).ravel()


def mahalanobis_distance(a: np.ndarray, b: np.ndarray, m: MetricMatrix) -> float:
    """sqrt(delta' M delta) with tiny negative quadratic forms clamped to 0."""
    va = _array(a, "vector")
    vb = _array(b, "vector")
    if va.size != vb.size or va.size != m.dim:
        raise InvalidArgumentError("vector and metric dimensions must match")
    quad = float(_quadratic_forms((va - vb)[np.newaxis], m.matrix)[0])
    if quad < -_QUAD_TOL:
        raise InvalidArgumentError("quadratic form is negative; metric is not PSD")
    return float(np.sqrt(max(quad, 0.0)))


def build_triplets(features: np.ndarray, labels: np.ndarray, k: int) -> TripletSet:
    """Pick k target neighbors per focal and impostors from its 3k-neighborhood.

    Focals are the points of every class with at least k+1 members
    (smaller classes still serve as impostors). Neighbor ranking is by
    Euclidean distance with ties broken toward the lower index; the
    result depends only on the input order, never on randomness.
    """
    x = _as_matrix(features, "build_triplets features")
    y = np.asarray(labels)
    n = x.shape[0]
    if y.shape != (n,):
        raise InvalidArgumentError("labels must align with feature rows")
    if not np.all(np.isin(y, (0, 1))):
        raise InvalidArgumentError("labels must be 0 or 1")
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")

    class_counts = {label: int(np.sum(y == label)) for label in np.unique(y)}
    focal_classes = {label for label, count in class_counts.items() if count >= k + 1}
    if not focal_classes:
        raise InsufficientDataError(
            f"no class has the k+1 = {k + 1} members needed for target neighbors"
        )

    sq_norms = np.einsum("ij,ij->i", x, x)
    gram = x @ x.T
    dist_sq = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0)
    order = np.argsort(dist_sq, axis=1, kind="stable")

    pairs, triplets = [], []
    for i in np.flatnonzero(np.isin(y, list(focal_classes))):
        row = order[i]
        row = row[row != i]
        positives = row[y[row] == y[i]][:k]
        near = row[: 3 * k]
        impostors = near[y[near] != y[i]]
        pairs.append(np.column_stack([np.full_like(positives, i), positives]))
        j_col = np.repeat(positives, impostors.size)
        triplets.append(np.column_stack([np.full_like(j_col, i), j_col, np.tile(impostors, k)]))
    # Drop the per-focal pieces before TripletSet copies and checks the whole.
    pairs, triplets = np.concatenate(pairs), np.concatenate(triplets)
    return TripletSet(pairs, triplets)


def _project_psd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest PSD matrix (negative eigenvalues zeroed) and its factor."""
    sym = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(sym)
    clipped = np.clip(values, 0.0, None)
    projected = (vectors * clipped) @ vectors.T
    factor = vectors * np.sqrt(clipped)
    return 0.5 * (projected + projected.T), factor


def _segments(ids: np.ndarray, size: int) -> tuple:
    """How to sum a per-row flag array by id, for ids in range(size).

    Returns (order, starts, groups): flags[order] lists the flags of
    id groups[0] first, then those of groups[1], and so on, each run
    beginning at its entry of starts. Ids with no rows are left out of
    groups, because reduceat cannot give an empty run. order is a
    stable argsort, so ids that are already sorted, as build_triplets
    sorts the pair ids, give the identity; that order is stored as
    slice(None), which indexes without a copy.
    """
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=size)
    groups = np.flatnonzero(counts)
    starts = np.cumsum(counts[groups]) - counts[groups]
    if np.array_equal(order, np.arange(ids.size)):
        order = slice(None)
    return order, starts, groups


def _segment_sums(flags: np.ndarray, segments: tuple, size: int) -> np.ndarray:
    """Per-id counts of true flags as floats; the accumulator is a machine integer."""
    order, starts, groups = segments
    counts = np.zeros(size)
    counts[groups] = np.add.reduceat(flags[order], starts, dtype=np.intp)
    return counts


class _Objective:
    """Fixed triplet structure with loss and gradient in Gram/Laplacian form.

    The edges are the pull pairs followed by the unique (focal, impostor)
    pairs. An edge's squared distance is K[i,i] + K[j,j] - 2 K[i,j] for
    the Gram matrix K of the mapped points, read by flat index. X is
    centred: a shift changes neither distances nor X' L X, but a large
    common offset would drown K in rounding error.

    A triplet is active when its hinge, margin + pull - impostor
    distance, is positive. The active counts per pull pair and per
    impostor edge are segment sums of the active flags: _segments
    groups the triplets by pair and by edge once, here, so no triplet
    order is assumed. The gradient is X' L X, with L the Laplacian of
    the edges weighted 1 + push_weight * (active triplets) for pull
    pairs and -push_weight * (active triplets) for impostor edges.

    Every step returns the bits of the plain form (bincount of the
    active triplets, then the Laplacian as diag(row sums of A + A') -
    (A + A') for the weighted adjacency A), for these reasons:
    - integer counts are exact in any order;
    - the hinge adds the margin to a pull distance and then subtracts
      an impostor distance, as the plain form does;
    - the loss sums hinge[active] in triplet order;
    - edges are unique: TripletSet refuses a repeated pull pair and an
      impostor edge that is also a pull pair, and the impostor edges
      are deduplicated here. So a cell of A + A' holds at most the
      weights of one edge and of its reverse, and a + b == b + a;
    - no edge joins a point to itself (TripletSet refuses one), so
      A + A' has a zero diagonal;
    - negation is exact, so the bincount of the negated weights over
      both directions of every edge is the off-diagonal of L, and each
      nonzero row sum is the negated row sum of A + A'. 0.0 - sum
      gives the diagonal, with +0.0 for a point with no weight.
    """

    def __init__(self, x: np.ndarray, ts: TripletSet, push_weight: float, margin: float):
        self.push_weight = push_weight
        self.margin = margin
        self.x = x - x.mean(axis=0)
        self.n = n = x.shape[0]
        if max(ts.pairs.max(), ts.triplets.max(initial=0)) >= n:
            raise InvalidArgumentError(f"triplet indices must be below the {n} training points")
        pi, pj = ts.pairs[:, 0], ts.pairs[:, 1]
        self.n_pairs = pi.size
        ti, tj, tl = ts.triplets.T
        pair_codes = pi * n + pj
        pair_order = np.argsort(pair_codes)
        self.trip_pair_idx = pair_order[np.searchsorted(pair_codes[pair_order], ti * n + tj)]
        imp_codes, self.trip_imp_idx = np.unique(ti * n + tl, return_inverse=True)
        self.edge_i = np.concatenate([pi, imp_codes // n])
        self.edge_j = np.concatenate([pj, imp_codes % n])
        self.edge_codes = np.concatenate([pair_codes, imp_codes])
        self.both_directions = np.concatenate([self.edge_codes, self.edge_j * n + self.edge_i])
        self.pair_segments = _segments(self.trip_pair_idx, self.n_pairs)
        self.imp_segments = _segments(self.trip_imp_idx, imp_codes.size)

    def evaluate(self, factor: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Loss at M = factor factor', plus active-triplet pair weights."""
        z = self.x @ factor
        gram = (z @ z.T).ravel()
        diagonal = gram[:: self.n + 1]
        edge_sq = diagonal[self.edge_i] + diagonal[self.edge_j] - 2.0 * gram[self.edge_codes]
        pull_sq, imp_sq = edge_sq[: self.n_pairs], edge_sq[self.n_pairs :]
        hinge = (self.margin + pull_sq)[self.trip_pair_idx]
        hinge -= imp_sq[self.trip_imp_idx]
        active = hinge > 0.0
        loss = float(pull_sq.sum()) + self.push_weight * float(hinge[active].sum())
        w_pair = _segment_sums(active, self.pair_segments, self.n_pairs)
        w_imp = _segment_sums(active, self.imp_segments, imp_sq.size)
        return loss, w_pair, w_imp

    def gradient(self, w_pair: np.ndarray, w_imp: np.ndarray) -> np.ndarray:
        """Loss gradient in M, X' L X, at the given active-triplet weights."""
        n = self.n
        negated = np.concatenate([-(1.0 + self.push_weight * w_pair), self.push_weight * w_imp])
        laplacian = np.bincount(
            self.both_directions, weights=np.tile(negated, 2), minlength=n * n
        ).reshape(n, n)
        np.fill_diagonal(laplacian, 0.0 - laplacian.sum(axis=1))
        return self.x.T @ (laplacian @ self.x)


@one_thread()
def train_metric(features: np.ndarray, labels: np.ndarray, cfg: LmnnConfig) -> MetricMatrix:
    """Fit M by projected gradient descent from the identity.

    A step that raises the loss is rejected and halves the step size;
    accepted losses are therefore non-increasing. Stops on max_iters,
    relative improvement below cfg.tolerance, or step-size underflow,
    and returns the lowest-loss iterate observed, at one BLAS thread.
    """
    x = _as_matrix(features, "train_metric features")
    ts = build_triplets(x, labels, cfg.k)
    objective = _Objective(x, ts, cfg.push_weight, cfg.margin)

    dim = x.shape[1]
    m = np.eye(dim)
    factor = np.eye(dim)
    loss, w_pair, w_imp = objective.evaluate(factor)
    if not np.isfinite(loss):
        raise TrainingError("initial loss is not finite")
    best_loss, best_m = loss, m
    step = cfg.step_size
    grad = objective.gradient(w_pair, w_imp) if cfg.max_iters else None

    iters = 0
    while iters < cfg.max_iters:
        iters += 1
        candidate, cand_factor = _project_psd(m - step * grad)
        cand_loss, cand_w_pair, cand_w_imp = objective.evaluate(cand_factor)
        if not np.isfinite(cand_loss):
            raise TrainingError("training diverged to a non-finite loss")
        if cand_loss > loss:
            step *= 0.5
            if step < _MIN_STEP:
                break
            continue
        improvement = loss - cand_loss
        m, loss = candidate, cand_loss
        if loss < best_loss:
            best_loss, best_m = loss, m
        if improvement < cfg.tolerance * max(abs(loss), 1e-300):
            break
        grad = objective.gradient(cand_w_pair, cand_w_imp)
    return MetricMatrix(best_m)
