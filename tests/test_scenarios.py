import numpy as np
import pytest

from priorstab.scenarios import (
    PortfolioBook,
    RegimeModel,
    ReturnPanel,
    generic_labels,
    kmeans_partition,
    label_regimes,
    monthly_features,
    portfolio_returns,
    utility_matrix,
)

from conftest import PLANTED_CENTERS, build_planted_panel


def make_panel(returns, assets=None, volatility=None, daily=None):
    T = len(returns)
    months = []
    year, month = 2020, 1
    for _ in range(T):
        months.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            year, month = year + 1, 1
    assets = assets or tuple(f"asset{i}" for i in range(len(returns[0])))
    return ReturnPanel(
        tuple(months), tuple(assets), np.asarray(returns, float),
        volatility=volatility, daily=daily,
    )


class TestPanelsAndBooks:
    def test_months_must_increase(self):
        with pytest.raises(ValueError):
            ReturnPanel(("2020-02", "2020-01"), ("a",), [[0.1], [0.2]])

    def test_month_format(self):
        with pytest.raises(ValueError):
            ReturnPanel(("202001",), ("a",), [[0.1]])

    def test_weights_must_be_convex(self):
        with pytest.raises(ValueError):
            PortfolioBook(("p",), ("a", "b"), [[0.6, 0.6]])
        with pytest.raises(ValueError):
            PortfolioBook(("p",), ("a", "b"), [[1.2, -0.2]])


class TestPortfolioReturns:
    def test_unit_weight_reads_column(self):
        panel = make_panel([[0.01, 0.03], [0.02, -0.01]])
        book = PortfolioBook(("first_only",), panel.assets, [[1.0, 0.0]])
        out = portfolio_returns(panel, book)
        assert np.array_equal(out[:, 0], panel.returns[:, 0])

    def test_equal_weight_is_row_mean(self):
        rng = np.random.default_rng(41)
        panel = make_panel(rng.normal(0, 0.02, size=(12, 5)))
        book = PortfolioBook(("equal",), panel.assets, [[0.2] * 5])
        out = portfolio_returns(panel, book)
        assert out[:, 0] == pytest.approx(panel.returns.mean(axis=1), abs=1e-15)

    def test_two_asset_blend(self):
        panel = make_panel([[0.02, -0.01]])
        book = PortfolioBook(("blend",), panel.assets, [[0.5, 0.5]])
        assert portfolio_returns(panel, book)[0, 0] == pytest.approx(0.005, abs=1e-15)

    def test_asset_mismatch(self):
        panel = make_panel([[0.02, -0.01]])
        book = PortfolioBook(("p",), ("other", "names"), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            portfolio_returns(panel, book)

    def test_asset_order_is_reconciled_by_name(self):
        panel = make_panel([[0.02, -0.01]], assets=("x", "y"))
        book = PortfolioBook(("p",), ("y", "x"), [[1.0, 0.0]])
        assert portfolio_returns(panel, book)[0, 0] == pytest.approx(-0.01, abs=0)


class TestMonthlyFeatures:
    def test_precomputed_volatility_passthrough(self):
        vol = np.array([0.01, 0.02, 0.03])
        panel = make_panel([[0.01], [0.02], [0.03]], volatility=vol)
        feats = monthly_features(panel, panel.assets[0])
        assert np.array_equal(feats[:, 1], vol)
        assert np.array_equal(feats[:, 0], panel.returns[:, 0])

    def test_constant_daily_returns_give_zero(self):
        daily = {"2020-01": np.full(20, 0.01)}
        panel = make_panel([[0.05]], daily=daily)
        feats = monthly_features(panel, panel.assets[0])
        assert feats[0, 1] == 0.0

    def test_sample_standard_deviation(self):
        obs = np.array([0.01, -0.01, 0.01, -0.01, 0.00])
        daily = {"2020-01": obs}
        panel = make_panel([[0.0]], daily=daily)
        feats = monthly_features(panel, panel.assets[0])
        assert feats[0, 1] == pytest.approx(0.01, abs=1e-9)
        assert feats[0, 1] == pytest.approx(float(obs.std(ddof=1)), abs=0)

    def test_too_few_daily_observations_names_month(self):
        daily = {"2020-01": np.array([0.01, 0.02])}
        panel = make_panel([[0.0]], daily=daily)
        with pytest.raises(ValueError, match="2020-01"):
            monthly_features(panel, panel.assets[0])

    def test_month_without_daily_data_names_month(self):
        panel = make_panel([[0.0], [0.0]], daily={"2020-01": np.full(10, 0.01)})
        with pytest.raises(ValueError, match="2020-02"):
            monthly_features(panel, panel.assets[0])

    def test_no_volatility_source(self):
        panel = make_panel([[0.0]])
        with pytest.raises(ValueError):
            monthly_features(panel, panel.assets[0])

    def test_unknown_market(self):
        panel = make_panel([[0.0]])
        with pytest.raises(ValueError):
            monthly_features(panel, "nope")


class TestKmeans:
    def test_separated_clouds_recovered(self):
        rng = np.random.default_rng(42)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
        truth = np.repeat(np.arange(4), 25)
        points = centers[truth] + rng.normal(0, 0.3, size=(100, 2))
        for seed in (0, 1, 42):
            model = kmeans_partition(points, k=4, seed=seed)
            for g in range(4):
                clusters = model.assignment[truth == g]
                assert len(set(clusters.tolist())) == 1
            assert sorted(
                int((model.assignment == j).sum()) for j in range(4)
            ) == [25, 25, 25, 25]

    def test_single_cluster_centroid_is_mean(self):
        rng = np.random.default_rng(43)
        points = rng.normal(0, 1, size=(30, 2))
        model = kmeans_partition(points, k=1, seed=7)
        # the centroid of the standardized points, whose mean is 0
        assert model.centroids[0] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert set(model.assignment.tolist()) == {0}

    def test_duplicated_dataset_same_centroids(self):
        rng = np.random.default_rng(44)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])
        truth = np.repeat(np.arange(4), 20)
        points = centers[truth] + rng.normal(0, 0.2, size=(80, 2))
        doubled = np.vstack([points, points])
        one = kmeans_partition(points, k=4, seed=5)
        two = kmeans_partition(doubled, k=4, seed=5)
        a = np.array(sorted(one.centroids.tolist()))
        b = np.array(sorted(two.centroids.tolist()))
        assert a == pytest.approx(b, abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(45)
        points = rng.normal(0, 1, size=(60, 2))
        one = kmeans_partition(points, k=3, seed=11)
        two = kmeans_partition(points, k=3, seed=11)
        assert np.array_equal(one.assignment, two.assignment)
        assert np.array_equal(one.centroids, two.centroids)
        assert one.wcss == two.wcss

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(46)
        points = rng.normal(0, 1, size=(50, 2))
        model = kmeans_partition(points, k=4, seed=3)
        parts = model.partition()
        indices = np.concatenate([parts[j] for j in range(4)])
        assert sorted(indices.tolist()) == list(range(50))

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            kmeans_partition(np.zeros((3, 2)), k=4, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # random.Random(-1) would draw what random.Random(1) draws
        points = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            kmeans_partition(points, k=2, seed=seed)


class TestLabels:
    def model_with_centroids(self, cents):
        cents = np.asarray(cents, float)
        k = len(cents)
        return RegimeModel(
            k=k,
            centroids=cents,
            assignment=np.arange(k),
            wcss=0.0,
            months=tuple(f"2020-{i + 1:02d}" for i in range(k)),
        )

    def test_reference_layout(self):
        model = self.model_with_centroids([[2, -1], [-2, 1], [1, 1], [-1, -1]])
        labeled = label_regimes(model)
        assert labeled.labels == {
            0: "Expansion",
            1: "Recession",
            2: "Recovery",
            3: "Stagnation",
        }

    def test_tie_gives_lower_index_the_higher_label(self):
        model = self.model_with_centroids([[1, 1], [1, 1], [-1, -1], [-1, -1]])
        labeled = label_regimes(model)
        assert labeled.labels[0] == "Expansion"
        assert labeled.labels[1] == "Recovery"
        assert labeled.labels[2] == "Stagnation"
        assert labeled.labels[3] == "Recession"

    def test_permuting_clusters_keeps_month_names(self):
        cents = np.array([[2.0, -1.0], [-2.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        model = self.model_with_centroids(cents)
        labeled = label_regimes(model)
        names = [labeled.labels[c] for c in labeled.assignment]
        perm = [2, 0, 3, 1]
        permuted = RegimeModel(
            k=4,
            centroids=cents[perm],
            assignment=np.array([perm.index(c) for c in model.assignment]),
            wcss=0.0,
            months=model.months,
        )
        relabeled = label_regimes(permuted)
        assert [relabeled.labels[c] for c in relabeled.assignment] == names

    def test_requires_four_clusters(self):
        model = self.model_with_centroids([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            label_regimes(model)
        generic = generic_labels(model)
        assert generic.labels == {0: "regime_1", 1: "regime_2"}


class TestUtilityMatrix:
    def test_single_month_regimes(self):
        returns = np.array([[0.01], [0.02], [0.03], [0.04]])
        model = RegimeModel(
            k=4,
            centroids=np.array([[3, -1], [1, 0], [-1, 0], [-3, 1]], float),
            assignment=np.array([0, 1, 2, 3]),
            wcss=0.0,
        )
        problem = utility_matrix(returns, label_regimes(model), ("only",))
        assert problem.states == ("Expansion", "Recovery", "Stagnation", "Recession")
        assert problem.utilities[0] == pytest.approx([0.01, 0.02, 0.03, 0.04], abs=0)

    def test_single_regime_is_overall_mean(self):
        rng = np.random.default_rng(47)
        returns = rng.normal(0, 0.02, size=(24, 3))
        model = generic_labels(
            RegimeModel(
                k=1,
                centroids=np.zeros((1, 2)),
                assignment=np.zeros(24, dtype=int),
                wcss=0.0,
            )
        )
        problem = utility_matrix(returns, model, ("x", "y", "z"))
        assert problem.states == ("regime_1",)
        assert problem.utilities[:, 0] == pytest.approx(returns.mean(axis=0), abs=1e-15)

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(48)
        returns = rng.normal(0, 0.02, size=(40, 3))
        assignment = rng.integers(0, 4, size=40)
        while len(set(assignment.tolist())) < 4:
            assignment = rng.integers(0, 4, size=40)
        model = label_regimes(
            RegimeModel(
                k=4,
                centroids=np.array([[2, -1], [1, 0], [-1, 0], [-2, 1]], float),
                assignment=assignment,
                wcss=0.0,
            )
        )
        problem = utility_matrix(returns, model, ("x", "y", "z"))
        # independent group-by: plain python accumulation
        for j, state in zip(model.state_order(), problem.states):
            members = [t for t in range(40) if assignment[t] == j]
            for i in range(3):
                mean = sum(returns[t, i] for t in members) / len(members)
                assert problem.utilities[i, list(problem.states).index(state)] == pytest.approx(
                    mean, abs=1e-12
                )

    def test_conditional_mean_identity(self):
        rng = np.random.default_rng(49)
        returns = rng.normal(0, 0.02, size=(36, 2))
        assignment = rng.integers(0, 4, size=36)
        while len(set(assignment.tolist())) < 4:
            assignment = rng.integers(0, 4, size=36)
        model = label_regimes(
            RegimeModel(
                k=4,
                centroids=np.array([[2, -1], [1, 0], [-1, 0], [-2, 1]], float),
                assignment=assignment,
                wcss=0.0,
            )
        )
        problem = utility_matrix(returns, model, ("x", "y"))
        sizes = {j: int((assignment == j).sum()) for j in range(4)}
        for i, act in enumerate(problem.acts):
            total = sum(
                sizes[j] * problem.utilities[i, k]
                for k, j in enumerate(model.state_order())
            )
            assert total == pytest.approx(returns[:, i].sum(), abs=1e-9)

    def test_empty_regime_is_an_error(self):
        model = label_regimes(
            RegimeModel(
                k=4,
                centroids=np.array([[2, -1], [1, 0], [-1, 0], [-2, 1]], float),
                assignment=np.zeros(6, dtype=int),
                wcss=0.0,
            )
        )
        with pytest.raises(ValueError):
            utility_matrix(np.zeros((6, 2)), model, ("x", "y"))

    def test_unlabeled_model_rejected(self):
        model = RegimeModel(
            k=1, centroids=np.zeros((1, 2)), assignment=np.zeros(5, dtype=int), wcss=0.0
        )
        with pytest.raises(ValueError):
            utility_matrix(np.zeros((5, 1)), model, ("x",))


class TestPlantedPipeline:
    def test_recovery_and_labels(self, planted_panel):
        feats = np.column_stack(
            [planted_panel["returns"][:, 0], planted_panel["volatility"]]
        )
        model = label_regimes(kmeans_partition(feats, k=4, seed=42))
        recovered = [model.labels[c] for c in model.assignment]
        agreement = np.mean(
            [a == b for a, b in zip(recovered, planted_panel["planted_names"])]
        )
        assert agreement >= 0.95
        # centroid semantics: expansion has the best return, recession the worst
        by_label = {model.labels[j]: model.centroids[j] for j in range(4)}
        assert by_label["Expansion"][0] == max(c[0] for c in by_label.values())
        assert by_label["Recession"][0] == min(c[0] for c in by_label.values())
