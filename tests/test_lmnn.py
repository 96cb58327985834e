"""Unit tests for the large-margin metric learner.

Tests cover:
- MetricMatrix validation and factoring
- Mahalanobis distances under identity and learned metrics
- triplet construction: target neighbors, impostors, ties, small classes,
  and agreement with a plain-loop oracle
- the training objective's loss and gradient against explicit sums, and
  byte for byte against the frozen plain Gram/Laplacian form
- trainer edge cases (zero iterations, config validation)
- the feature-space transform
"""

from __future__ import annotations

import numpy as np
import oracles
import pytest

from dnt.errors import InsufficientDataError, InvalidArgumentError
from dnt.features import FeatureVector
from dnt.lmnn import (
    LmnnConfig,
    MetricMatrix,
    TripletSet,
    _Objective,
    build_triplets,
    mahalanobis_distance,
    train_metric,
    transform,
)


class TestMetricMatrix:
    """PSD matrix container."""

    def test_identity(self) -> None:
        m = MetricMatrix.identity(4)
        assert np.array_equal(m.matrix, np.eye(4))
        assert m.dim == 4

    def test_factor_reconstructs_matrix(self) -> None:
        """factor() returns U with U U' equal to the stored matrix."""
        rng = np.random.default_rng(1)
        f = rng.normal(size=(5, 5))
        m = MetricMatrix(f @ f.T)
        u = m.factor()
        assert np.allclose(u @ u.T, m.matrix, atol=1e-10)

    def test_rejects_asymmetric(self) -> None:
        with pytest.raises(InvalidArgumentError):
            MetricMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self) -> None:
        """A symmetric matrix with a negative eigenvalue is refused."""
        with pytest.raises(InvalidArgumentError):
            MetricMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self) -> None:
        with pytest.raises(InvalidArgumentError):
            MetricMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError):
            MetricMatrix(np.array([[np.nan]]))


class TestMahalanobisDistance:
    """Distance evaluation."""

    def test_identity_metric_is_euclidean(self) -> None:
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 6.0, 3.0])
        m = MetricMatrix.identity(3)
        assert mahalanobis_distance(a, b, m) == pytest.approx(5.0)

    def test_self_distance_zero(self) -> None:
        m = MetricMatrix.identity(2)
        assert mahalanobis_distance(np.ones(2), np.ones(2), m) == 0.0

    def test_scaled_axes(self) -> None:
        """Diagonal weights stretch each axis independently."""
        m = MetricMatrix(np.diag([4.0, 0.0]))
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 7.0])
        assert mahalanobis_distance(a, b, m) == pytest.approx(2.0)

    def test_accepts_feature_vectors(self) -> None:
        m = MetricMatrix.identity(3)
        a = FeatureVector(np.zeros(3), "RawOrder")
        b = FeatureVector(np.array([0.0, 3.0, 4.0]), "RawOrder")
        assert mahalanobis_distance(a, b, m) == pytest.approx(5.0)

    def test_rejects_dimension_mismatch(self) -> None:
        with pytest.raises(InvalidArgumentError):
            mahalanobis_distance(np.zeros(2), np.zeros(3), MetricMatrix.identity(2))

    def test_rejects_a_nan_vector(self) -> None:
        with pytest.raises(InvalidArgumentError):
            mahalanobis_distance(np.array([np.nan, 0.0]), np.zeros(2), MetricMatrix.identity(2))


def _assert_matches_triplet_oracle(x: np.ndarray, labels: np.ndarray, k: int) -> TripletSet:
    ts = build_triplets(x, labels, k)
    pairs, triplets = oracles.oracle_triplets(x.tolist(), labels.tolist(), k)
    assert ts.pairs.tolist() == [list(p) for p in pairs]
    assert ts.triplets.tolist() == [list(t) for t in triplets]
    return ts


class TestBuildTriplets:
    """Static neighbor/impostor structure."""

    def test_two_tight_clusters(self) -> None:
        """Line clusters produce the hand-derived pairs and triplets."""
        x = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        ts = build_triplets(x, labels, k=1)
        assert ts.k == 1
        pairs = {tuple(row) for row in ts.pairs}
        assert pairs == {(0, 1), (1, 0), (2, 1), (3, 4), (4, 3), (5, 4)}
        triplets = {tuple(row) for row in ts.triplets}
        assert triplets == {
            (0, 1, 3),
            (1, 0, 3),
            (2, 1, 3),
            (3, 4, 2),
            (4, 3, 2),
            (5, 4, 2),
        }

    def test_distance_ties_take_lower_index(self) -> None:
        """Equidistant target neighbors resolve to the smaller index."""
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0], [0.0, 6.0]])
        labels = np.array([0, 0, 0, 1, 1])
        ts = build_triplets(x, labels, k=1)
        positives_of_0 = {p for f, p in ts.pairs if f == 0}
        assert positives_of_0 == {1}

    def test_far_impostors_are_skipped(self) -> None:
        """Impostors outside the 3k-neighborhood generate no triplets."""
        cluster = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        outlier = np.array([[1000.0], [1000.1]])
        x = np.vstack([cluster, outlier])
        labels = np.array([0] * 8 + [1] * 2)
        ts = build_triplets(x, labels, k=2)
        focal_zero_rows = ts.triplets[ts.triplets[:, 0] == 0] if ts.triplets.size else ts.triplets
        assert focal_zero_rows.size == 0

    def test_small_classes_serve_only_as_impostors(self) -> None:
        """A class below k+1 members yields no focals but can be a negative."""
        x = np.array([[0.0], [0.2], [0.4], [0.3]])
        labels = np.array([0, 0, 0, 1])
        ts = build_triplets(x, labels, k=2)
        assert set(ts.pairs[:, 0]) == {0, 1, 2}
        assert np.all(ts.triplets[:, 2] == 3)

    def test_all_classes_too_small_raises(self) -> None:
        x = np.array([[0.0], [1.0]])
        with pytest.raises(InsufficientDataError):
            build_triplets(x, np.array([0, 1]), k=1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_oracle_on_random_problems(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20 + 5 * seed, 3))
        labels = rng.integers(0, 2, size=x.shape[0])
        _assert_matches_triplet_oracle(x, labels, k=1 + seed)

    def test_matches_oracle_with_distance_ties(self) -> None:
        """Integer lattice points, each twice: exact distance ties everywhere."""
        grid = [[float(a), float(b)] for a in range(-2, 3) for b in range(-2, 3)]
        x = np.array(grid * 2)
        labels = np.random.default_rng(5).integers(0, 2, size=x.shape[0])
        _assert_matches_triplet_oracle(x, labels, k=3)

    def test_matches_oracle_when_a_class_is_too_small(self) -> None:
        """Two class-1 points cannot be focals at k=3 but remain impostors."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(16, 2))
        labels = np.array([0] * 14 + [1] * 2)
        ts = _assert_matches_triplet_oracle(x, labels, k=3)
        assert set(ts.pairs[:, 0]) == set(range(14))

    def test_triplet_set_validation(self) -> None:
        with pytest.raises(InvalidArgumentError):
            TripletSet(np.empty((0, 2), dtype=int), np.empty((0, 3), dtype=int), k=1)
        with pytest.raises(InvalidArgumentError):
            TripletSet(np.array([[0, 1]]), np.array([[0, 1]]), k=1)
        with pytest.raises(InvalidArgumentError):  # a float index is not truncated
            TripletSet(np.array([[0.9, 1.7]]), np.empty((0, 3), dtype=int), k=1)
        with pytest.raises(InvalidArgumentError):
            TripletSet(np.array([[0, 1]]), np.array([[0.0, 1.0, 2.5]]), k=1)

    # (pairs, triplets) that break the structure _Objective relies on;
    # before these checks each one was accepted or hit an IndexError.
    BROKEN_STRUCTURES = {
        "target-not-a-pair-sorting-last": ([[0, 1]], [[0, 2, 3]]),
        "target-not-a-pair-sorting-first": ([[1, 2], [2, 1]], [[0, 3, 2]]),
        "repeated-pair": ([[0, 1], [1, 0], [0, 1]], [[0, 1, 2]]),
        "self-pair": ([[0, 1], [2, 2]], [[0, 1, 3]]),
        "impostor-edge-is-a-pair": ([[0, 1], [0, 2]], [[0, 1, 2]]),
        "impostor-is-the-focal": ([[0, 1]], [[0, 1, 0]]),
        "negative-index": ([[0, 1], [-1, 0]], [[0, 1, 2]]),
    }

    @pytest.mark.parametrize("structure", sorted(BROKEN_STRUCTURES))
    def test_triplet_set_refuses_a_broken_structure(self, structure: str) -> None:
        pairs, triplets = self.BROKEN_STRUCTURES[structure]
        with pytest.raises(InvalidArgumentError):
            TripletSet(np.array(pairs), np.array(triplets), k=1)

    @pytest.mark.parametrize("pairs, triplets", [([[0, 4]], [[0, 4, 1]]), ([[0, 1]], [[0, 1, 4]])])
    def test_objective_refuses_an_index_past_the_points(self, pairs, triplets) -> None:
        """Four points: index 4 is out of range, as a pair's target or as an impostor."""
        ts = TripletSet(np.array(pairs), np.array(triplets), k=1)
        with pytest.raises(InvalidArgumentError, match="4 training points"):
            _Objective(np.arange(8.0).reshape(4, 2), ts, 1.0, 1.0)


def _two_class_problem(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(12, 3)), rng.normal(size=(12, 3)) + 1.0])
    return x, np.array([0] * 12 + [1] * 12)


class TestObjective:
    """Loss and gradient agree with per-pair and per-triplet sums."""

    @staticmethod
    def check(
        x: np.ndarray, labels: np.ndarray, k: int, push_weight: float = 1.0, margin: float = 1.0
    ) -> TripletSet:
        """Compare evaluate() and gradient() with the oracle at M = F F'."""
        ts = build_triplets(x, labels, k)
        factor = np.random.default_rng(7).normal(size=(x.shape[1], x.shape[1]))
        objective = _Objective(x, ts, push_weight, margin)
        loss, w_pair, w_imp = objective.evaluate(factor)
        grad = objective.gradient(w_pair, w_imp)
        want_loss, want_grad = oracles.oracle_lmnn_objective(
            x.tolist(),
            ts.pairs.tolist(),
            ts.triplets.tolist(),
            (factor @ factor.T).tolist(),
            push_weight,
            margin,
        )
        want = np.array(want_grad)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        assert np.max(np.abs(grad - want)) <= 1e-10 * np.max(np.abs(want))
        return ts

    def test_random_problem(self) -> None:
        x, labels = _two_class_problem(8)
        ts = self.check(x, labels, k=2)
        assert ts.triplets.shape[0] > 0

    def test_duplicated_rows(self) -> None:
        x, labels = _two_class_problem(9)
        self.check(np.vstack([x, x[::3]]), np.concatenate([labels, labels[::3]]), k=2)

    def test_large_common_offset(self) -> None:
        """A 1e6 shift on every feature leaves loss and gradient unchanged."""
        x, labels = _two_class_problem(10)
        self.check(x + 1e6, labels, k=2)

    def test_push_weight_and_margin(self) -> None:
        x, labels = _two_class_problem(11)
        self.check(x, labels, k=2, push_weight=2.5, margin=0.5)

    def test_no_triplets(self) -> None:
        """Far-apart clusters: no impostor in any 3k-neighborhood."""
        x, labels = _two_class_problem(12)
        x[labels == 1] += 1000.0
        ts = self.check(x, labels, k=2)
        assert ts.triplets.shape[0] == 0


def _k90_problem() -> tuple[np.ndarray, np.ndarray]:
    """A k=90 problem in which a pair has more than 255 active triplets.

    The class-0 focal at the origin has 270 class-1 points within radius 1
    as impostors, while its 90 targets sit in a far class-0 blob, so every
    triplet of its 90 pairs is active.
    """
    rng = np.random.default_rng(13)
    blob = rng.normal(size=(400, 2)) + [100.0, 0.0]
    cluster = rng.uniform(-0.7, 0.7, size=(270, 2))
    x = np.vstack([[[0.0, 0.0]], blob, cluster])
    return x, np.array([0] * 401 + [1] * 270)


def _isolated_point_problem() -> tuple[np.ndarray, np.ndarray]:
    """A problem with a point that has no edge at all.

    At k=3 a class of three holds no focals. Two of its points are
    impostors; the third is too far to be anyone's, so it has no edge.
    """
    rng = np.random.default_rng(14)
    x = np.vstack([rng.normal(size=(14, 2)), [[0.1, 0.2], [-0.3, 0.1], [1000.0, 1000.0]]])
    return x, np.array([0] * 14 + [1] * 3)


def _shuffled(ts: TripletSet, seed: int) -> TripletSet:
    rng = np.random.default_rng(seed)
    return TripletSet(rng.permutation(ts.pairs), rng.permutation(ts.triplets), ts.k)


def _offset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    x, labels = _two_class_problem(seed)
    return x + 1e6, labels


def _far_apart(seed: int) -> tuple[np.ndarray, np.ndarray]:
    x, labels = _two_class_problem(seed)
    x[labels == 1] += 1000.0
    return x, labels


def _duplicated(seed: int) -> tuple[np.ndarray, np.ndarray]:
    x, labels = _two_class_problem(seed)
    return np.vstack([x, x[::3]]), np.concatenate([labels, labels[::3]])


class TestObjectiveBytes:
    """evaluate() and gradient() return the bytes of the frozen plain form.

    Bytes, not ==, so that a -0.0 where the plain form has +0.0 fails.
    """

    PROBLEMS = {
        "random": (lambda: _two_class_problem(8), 2, 1.0, 1.0),
        "duplicated-rows": (lambda: _duplicated(9), 2, 1.0, 1.0),
        "large-offset": (lambda: _offset(10), 2, 1.0, 1.0),
        "push-weight-and-margin": (lambda: _two_class_problem(11), 2, 2.5, 0.5),
        "no-triplets": (lambda: _far_apart(12), 2, 1.0, 1.0),
        "k90": (_k90_problem, 90, 1.0, 1.0),
        "isolated-point": (_isolated_point_problem, 3, 0.3, 2.0),
    }

    @staticmethod
    def check(x: np.ndarray, ts: TripletSet, push_weight: float, margin: float) -> np.ndarray:
        """Compare every output byte with the frozen form; return w_pair."""
        factor = np.eye(x.shape[1]) + 0.3 * np.random.default_rng(7).normal(size=(x.shape[1],) * 2)
        objective = _Objective(x, ts, push_weight, margin)
        loss, w_pair, w_imp = objective.evaluate(factor)
        got = (np.float64(loss), w_pair, w_imp, objective.gradient(w_pair, w_imp))
        want = oracles.frozen_lmnn_objective(x, ts.pairs, ts.triplets, factor, push_weight, margin)
        for what, a, b in zip(("loss", "w_pair", "w_imp", "gradient"), got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), what
        return w_pair

    @pytest.mark.parametrize("shuffle", [False, True], ids=["built", "shuffled"])
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_matches_frozen_form(self, problem: str, shuffle: bool) -> None:
        make, k, push_weight, margin = self.PROBLEMS[problem]
        x, labels = make()
        ts = build_triplets(x, labels, k)
        if shuffle:
            ts = _shuffled(ts, 15)
        w_pair = self.check(x, ts, push_weight, margin)
        if problem == "k90":
            assert w_pair.max() > 255
        if problem == "isolated-point":
            assert set(ts.triplets[:, 2]) == {14, 15}
        if problem == "no-triplets":
            assert ts.triplets.shape[0] == 0


class TestTrainMetric:
    """Trainer behaviour on small problems."""

    def test_zero_iterations_returns_identity(self) -> None:
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        labels = np.array([0] * 6 + [1] * 6)
        m = train_metric(x, labels, LmnnConfig(k=2, max_iters=0))
        assert np.array_equal(m.matrix, np.eye(3))

    def test_trained_metric_is_psd_and_symmetric(self) -> None:
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(size=(10, 4)), rng.normal(size=(10, 4)) + 2.0])
        labels = np.array([0] * 10 + [1] * 10)
        m = train_metric(x, labels, LmnnConfig(k=3, max_iters=40))
        assert float(np.abs(m.matrix - m.matrix.T).max()) < 1e-10
        assert float(np.linalg.eigvalsh(m.matrix).min()) >= -1e-10

    def test_improves_class_separation(self) -> None:
        """Learning shrinks within-class spread relative to between-class."""
        rng = np.random.default_rng(4)
        informative = np.concatenate([np.zeros(30), np.ones(30) * 3.0])
        noise = rng.normal(0.0, 4.0, size=(60, 3))
        x = np.column_stack([informative + 0.1 * rng.normal(size=60), noise])
        labels = np.array([0] * 30 + [1] * 30)
        m = train_metric(x, labels, LmnnConfig(k=5, max_iters=100, step_size=1e-3))

        def ratio(metric: MetricMatrix) -> float:
            within = np.mean(
                [
                    mahalanobis_distance(x[i], x[j], metric) ** 2
                    for i in range(0, 30, 3)
                    for j in range(1, 30, 3)
                ]
            )
            between = np.mean(
                [
                    mahalanobis_distance(x[i], x[j], metric) ** 2
                    for i in range(0, 30, 3)
                    for j in range(31, 60, 3)
                ]
            )
            return within / between

        assert ratio(m) < ratio(MetricMatrix.identity(4))

    def test_accepts_feature_vector_lists(self) -> None:
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(10, 2))
        vectors = [FeatureVector(r, "RawOrder") for r in rows]
        labels = np.array([0] * 5 + [1] * 5)
        m = train_metric(vectors, labels, LmnnConfig(k=2, max_iters=5))
        assert m.dim == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"margin": 0.0},
            {"push_weight": -1.0},
            {"max_iters": -1},
            {"step_size": 0.0},
            {"tolerance": -1e-9},
            {"push_weight": float("nan")},
            {"margin": float("inf")},
            {"step_size": float("nan")},
            {"tolerance": float("inf")},
            {"k": 2.5},
            {"max_iters": 10.0},
            {"k": True},
        ],
    )
    def test_config_validation(self, kwargs: dict) -> None:
        with pytest.raises(InvalidArgumentError):
            LmnnConfig(**kwargs)

    def test_config_stores_plain_integers(self) -> None:
        cfg = LmnnConfig(k=np.int64(3), max_iters=np.int32(7))
        assert type(cfg.k) is int and type(cfg.max_iters) is int


class TestTransform:
    """Mapping vectors into the learned space."""

    def test_transform_realizes_metric_distance(self) -> None:
        """Euclidean distance after transform equals the metric distance."""
        rng = np.random.default_rng(6)
        f = rng.normal(size=(4, 4))
        m = MetricMatrix(f @ f.T)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        direct = mahalanobis_distance(a, b, m)
        mapped = float(np.linalg.norm(transform(a, m) - transform(b, m)))
        assert mapped == pytest.approx(direct, abs=1e-10)

    def test_preserves_feature_vector_type(self) -> None:
        vec = FeatureVector(np.array([1.0, 2.0]), "RawOrder")
        out = transform(vec, MetricMatrix.identity(2))
        assert isinstance(out, FeatureVector)
        assert out.extractor_id == "RawOrder"

    def test_rejects_dimension_mismatch(self) -> None:
        with pytest.raises(InvalidArgumentError):
            transform(np.ones(3), MetricMatrix.identity(2))

    def test_rejects_an_infinite_vector(self) -> None:
        with pytest.raises(InvalidArgumentError):
            transform(np.array([np.inf, 0.0]), MetricMatrix.identity(2))
