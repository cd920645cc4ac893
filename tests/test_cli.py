"""CLI contract: exit codes, CSV determinism, value passthrough."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from transbound import cli, clustering, validation
from transbound.cli import main
from transbound.hypergeom import epsilon_star
from transbound.pac_bayes import EVAL_BOUNDS, BoundInputs, det_bound
from transbound.transduce import ALGORITHMS, BOUND_NAMES

DATA = pathlib.Path(__file__).resolve().parent / "data"
FEATURES = str(DATA / "two_blob_features.csv")
LABELS = str(DATA / "two_blob_labels.csv")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCurve:
    def test_empty_bounds_header_only(self, capsys):
        code, out, _ = run(capsys, ["curve", "--bounds", "", "--m-grid", "10,20"])
        assert code == 0
        assert out == "m,u,bound_name,raw,clamped,valid\n"

    def test_values_equal_library_exactly(self, capsys):
        code, out, _ = run(
            capsys,
            ["curve", "--bounds", "serfling,det_direct", "--m-grid", "100",
             "--u-rule", "multiple:1", "--delta", "0.01"],
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        by_name = {ln.split(",")[2]: ln.split(",") for ln in lines}
        for variant, name in [("serfling", "serfling"), ("direct", "det_direct")]:
            want = det_bound(
                BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, prior_mass=1.0), variant
            )
            assert by_name[name][3] == format(want.raw, ".12g")
            assert by_name[name][4] == format(want.clamped, ".12g")

    def test_realizable_figure_regime(self, capsys):
        _, out, _ = run(
            capsys,
            ["curve", "--bounds", "serfling,det_direct", "--m-grid", "100",
             "--u-rule", "multiple:1", "--delta", "0.01"],
        )
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        vals = {r[2]: float(r[3]) for r in rows}
        assert vals["serfling"] == pytest.approx(0.21566691651358982, rel=1e-10)
        assert vals["det_direct"] == pytest.approx(0.93602979249272147, rel=1e-10)
        assert vals["serfling"] < vals["det_direct"]

    def test_nonzero_empirical_risk_additive_for_serfling(self, capsys):
        _, out, _ = run(
            capsys,
            ["curve", "--bounds", "serfling", "--m-grid", "100", "--u-rule",
             "multiple:1", "--delta", "0.01", "--emp-risk", "0.2"],
        )
        val = float(out.strip().split("\n")[1].split(",")[3])
        assert val == pytest.approx(0.2 + 0.21566691651358982, rel=1e-10)

    def test_u_rules(self, capsys):
        _, out, _ = run(
            capsys, ["curve", "--bounds", "serfling", "--m-grid", "100", "--u-rule", "sqrt"]
        )
        assert out.strip().split("\n")[1].split(",")[1] == "10"
        _, out, _ = run(
            capsys, ["curve", "--bounds", "serfling", "--m-grid", "100", "--u-rule", "const:7"]
        )
        assert out.strip().split("\n")[1].split(",")[1] == "7"

    def test_bad_bound_name_exits_2(self, capsys):
        code, _, err = run(capsys, ["curve", "--bounds", "magic", "--m-grid", "10"])
        assert code == 2
        assert "magic" in err

    def test_decreasing_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, ["curve", "--bounds", "serfling", "--m-grid", "20,10"])
        assert code == 2


class TestPriorSweep:
    def test_columns_nonincreasing_in_p(self, capsys):
        code, out, _ = run(
            capsys,
            ["prior-sweep", "--p-grid", "0.01,0.1,0.5,1", "--m", "50", "--u", "50",
             "--delta", "0.01"],
        )
        assert code == 0
        rows = [list(map(float, ln.split(","))) for ln in out.strip().split("\n")[1:]]
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
            assert vals[0] > vals[-1]

    def test_serfling_column_value(self, capsys):
        _, out, _ = run(
            capsys, ["prior-sweep", "--p-grid", "1", "--m", "50", "--u", "50",
                     "--delta", "0.01"]
        )
        row = out.strip().split("\n")[1].split(",")
        # the full Serfling-type complexity at m = u = 50 keeps its (m+u)/u factor
        assert float(row[3]) == pytest.approx(0.30650525573659755, rel=1e-10)


class TestEvalAndEpsilonStar:
    def test_eval_gibbs(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "--bound", "gibbs_direct", "--m", "100", "--u", "100",
             "--delta", "0.01", "--emp-risk", "0", "--kl", "0"],
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[3]) == pytest.approx(
            0.93602979249272147, rel=1e-10
        )

    # raw below 1, above 1 with clamped below 1, and above B; then a range below 1
    @pytest.mark.parametrize("emp_risk,loss_bound,digest", [
        ("0.2", "2", "aa73f4c61f3bc7c9c619428ea1dddda01f331634eefe828d8d4d9757fad60de4"),
        ("1.9", "2", "8c3cde1e4466b89f6bca149fe31c23f1f19f90945aed572295d2a07e0b658158"),
        ("0.5", "3", "e21a262e39d8f0a4bfea7075b9745eb60294abddb33ce54ba9dfd98f9d909bfa"),
        ("0.2", "0.5", "ea3d38f95fb3005befe416e2d2896587663096e9c835e86c90f085b8a0251f49"),
    ])
    def test_eval_serfling_with_a_loss_range_sha256(self, capsys, emp_risk, loss_bound, digest):
        code, out, _ = run(capsys, [
            "eval", "--bound", "serfling", "--m", "60", "--u", "40", "--delta", "0.05",
            "--prior-mass", "0.1", "--emp-risk", emp_risk, "--loss-bound", loss_bound])
        assert code == 0
        assert _sha256(out) == digest

    def test_epsilon_star_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["epsilon-star", "--m", "2", "--u", "2", "--prior-mass", "1",
             "--delta", "0.2", "--variant", "absolute"],
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[5]) == 0.5
        assert row[6] == "2"
        want = epsilon_star(1.0, 0.2, 2, 2, "absolute")
        assert float(row[5]) == want.value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestReadmeExamples:
    """Output of every CLI example in the README, pinned by sha256."""

    # argv0 and argv1 are the epsilon-star and prior-sweep pins; the rest follow in README order
    @pytest.mark.parametrize("argv,digest", [
        (["epsilon-star", "--m", "50", "--u", "50", "--prior-mass", "0.025",
          "--delta", "0.05", "--variant", "absolute"],
         "4dc900f59581bb8c743ad981bf07bc8388e44974673ed6245084c53064fa8983"),
        (["prior-sweep", "--p-grid", "0.01,0.05,0.2,1", "--m", "50", "--u", "50",
          "--delta", "0.01"],
         "daa62a5e43128ff082133dd27d895e96835a3e7b767e15d9cb1ffac5fab695a5"),
        (["curve", "--bounds", "serfling,det_direct,vapnik_absolute",
          "--m-grid", "50,100,200,400", "--u-rule", "multiple:1", "--delta", "0.01"],
         "2d474b157a4a8d212e21865efe58e3913b0d36ff5fd42bb33c6f203d372aa4bb"),
        (["eval", "--bound", "gibbs_direct", "--m", "100", "--u", "100", "--delta", "0.01",
          "--kl", "0.3"],
         "243065f10cc9d555a2f85f147cfaf715daafc57ba3d2d257cf7ca4c745ec9c9a"),
        (["validate", "--scenario", "vapnik_absolute", "--n", "40", "--m", "20",
          "--hypotheses", "16", "--delta", "0.05", "--trials", "10000", "--seed", "1"],
         "e61938fc83179121f15ff9b3ba2881e1f8f356775490ed4d20e70469c351e1f7"),
        (["validate", "--scenario", "serfling", "direct", "gibbs_direct",
          "--trials", "10000", "--seed", "1"],
         "fff94caf4fea400dc52d0b39b280f5b2133227981029690eddd36892b6c28deb"),
        (["mc-concentration", "--population-size", "100", "--ones", "30", "--m", "50",
          "--trials", "100000", "--seed", "1"],
         "9ae7e8e5049e11a4a792777f6c19511e367a908ac81f86c04739f799b0ddb14b"),
    ])
    def test_stdout_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert _sha256(out) == digest

    def test_transduce_files_sha256(self, capsys, tmp_path):
        pred, cert = tmp_path / "pred.csv", tmp_path / "cert.json"
        code, out, _ = run(capsys, [
            "transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer", "kmeans",
            "--max-clusters", "10", "--delta", "0.05",
            "--predictions-out", str(pred), "--certificate-out", str(cert)])
        assert code == 0
        assert out == ""
        assert _sha256(pred.read_text()) == (
            "4e67ab62715f59b15bc70de5d2a855fdb6376897871134fda94ff9897afa5c7b")
        assert _sha256(cert.read_text()) == (
            "f7b898af02fd185d322e1cff1ed0569ca7aecccc3e838cb1b612231daaada05b")


_TRANSDUCE_PINS = {
    "serfling_printed": "2a76b6d83eaa06ae92c77b79b94465a0d2e7fa3c405f16a89209afe1113721d9",
    "serfling_exact": "c2065f0262bab45face6b14a229b03a70566d2f43cadbb583bc5be8fd93c82a4",
    "direct": "f10b7d418b3a6c20f5a33b07b48bac1b5e950f031e2497d14a40b6d8677996f2",
    "vapnik_absolute": "dfd3e3c6f172d29f348435f372df65b99a301e7e6052324707a647eae9e6c007",
}
# all three clusterers, so k = 3 in the prior's 1/(kc)
_ENSEMBLE_PINS = {
    "serfling_printed": "f3a3b879e03f50cf5ddaf0ad4051f2f2bbcd664c8b3ea7d316166c47154b2145",
    "serfling_exact": "6a1773c4bdd91cf7f02a92d5dd242484f7e400bf5cec9bf6e8d9c03da354d030",
    "direct": "76e9a242e4a9e223b46a78ba5415a612bb9e2534145c7d48c29156ecb591ae6c",
    "vapnik_absolute": "7ca016f229bc1c86136fcace67ca1d0fe0579377fda301b4c109e85358d7a51d",
}


class TestEveryBoundName:
    """stdout of every name ``curve``, ``transduce`` and ``validate`` accept, pinned by sha256."""

    @pytest.mark.parametrize("prior_mass,m_grid,digest", [
        ("0.025", "50,100,200,400",
         "9e7f46f89e5b008724a9c61240b363c2450f1d1abe60a55746c23f596017a412"),
        # a subnormal mass: ln(1/p) stays finite and the vapnik_* levels go to log space
        ("5e-324", "2,50,400",
         "7414f04f2293714e83da7ea392ebf55d6415a9e4d506cbbeb557b7c868bf16ec"),
    ])
    def test_curve_over_every_eval_name(self, capsys, prior_mass, m_grid, digest):
        code, out, _ = run(capsys, [
            "curve", "--bounds", ",".join(EVAL_BOUNDS), "--m-grid", m_grid,
            "--u-rule", "multiple:1", "--delta", "0.01", "--emp-risk", "0.1",
            "--prior-mass", prior_mass, "--kl", "0.3"])
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize("bound_name,digest", _TRANSDUCE_PINS.items())
    def test_transduce_with_each_bound(self, capsys, bound_name, digest):
        code, out, _ = run(capsys, [
            "transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer", "kmeans",
            "--max-clusters", "10", "--delta", "0.05", "--bound", bound_name])
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize("bound_name,digest", _ENSEMBLE_PINS.items())
    def test_transduce_ensemble_with_each_bound(self, capsys, bound_name, digest):
        clusterers = [flag for algo in ALGORITHMS for flag in ("--clusterer", algo)]
        code, out, _ = run(capsys, [
            "transduce", "--data", FEATURES, "--labels", LABELS, *clusterers,
            "--max-clusters", "10", "--delta", "0.05", "--bound", bound_name])
        assert code == 0
        assert _sha256(out) == digest

    def test_transduce_repeated_clusterer(self, capsys):
        # one clusterer twice: k = 2 distinct ids over 20 partitions
        code, out, _ = run(capsys, [
            "transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer", "kmeans",
            "--clusterer", "kmeans", "--max-clusters", "10", "--delta", "0.05"])
        assert code == 0
        assert '"k_ensemble": 2,' in out
        assert _sha256(out) == "61c5f4299a99cd89fde226a832a25a146cafb97fcddc1a7027c7bc62a154062c"

    def test_every_transduce_name_is_pinned(self):
        assert tuple(_TRANSDUCE_PINS) == tuple(_ENSEMBLE_PINS) == BOUND_NAMES

    def test_validate_every_hypothesis_scenario(self, capsys):
        scenarios = [s for s in validation.SCENARIOS if s != "clustering"]
        assert len(scenarios) == 6
        code, out, _ = run(capsys, ["validate", "--scenario", *scenarios,
                                    "--trials", "2000", "--seed", "1"])
        assert code == 0
        assert _sha256(out) == "b344badb091205e99ab8514169b1ec568eb0ceb29fd4848f928065261f9208da"

    def test_validate_clustering_with_two_clusterers(self, capsys, tmp_path):
        full = tmp_path / "full_labels.csv"
        full.write_text("".join(f"{i},{1 if i % 2 == 0 else -1}\n" for i in range(100)))
        code, out, _ = run(capsys, [
            "validate", "--scenario", "clustering", "--data", FEATURES, "--labels", str(full),
            "--m", "50", "--max-clusters", "5", "--trials", "300", "--seed", "2",
            "--clusterer", "kmeans", "--clusterer", "agglomerative_single",
            "--bound", "vapnik_absolute"])
        assert code == 0
        assert _sha256(out) == "60f33d36d4bf514dbc02da8dbcea3a1b669af3421caac6ed8ed974052a8c1568"


class TestSizeChecks:
    @pytest.mark.parametrize("argv", [
        ["epsilon-star", "--m", "0", "--u", "5"],
        ["epsilon-star", "--m", "-3", "--u", "5"],
        ["epsilon-star", "--m", "5", "--u", "0", "--variant", "relative"],
        ["epsilon-star", "--m", "100000", "--u", "100000"],
        ["eval", "--bound", "vapnik_absolute", "--m", "0", "--u", "4"],
        ["eval", "--bound", "vapnik_relative", "--m", "4", "--u", "-1"],
        ["prior-sweep", "--p-grid", "0.5", "--m", "0", "--u", "5"],
        ["validate", "--scenario", "vapnik_absolute", "--hypotheses", "0", "--trials", "10"],
        ["mc-concentration", "--population-size", "0", "--ones", "0", "--m", "1",
         "--trials", "1000"],
        ["epsilon-star", "--m", "1", "--u", "50000000"],
    ])
    def test_nonpositive_sizes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestBadValues:
    @pytest.mark.parametrize("argv,named", [
        (["eval", "--bound", "gibbs_direct", "--m", "10", "--u", "10", "--kl", "nan"], "nan"),
        (["curve", "--bounds", "gibbs_direct", "--m-grid", "10,20", "--kl", "nan"], "nan"),
        (["eval", "--bound", "gibbs_reduction", "--m", "10", "--u", "10", "--kl", "inf",
          "--emp-risk", "0"], "inf"),
        (["eval", "--bound", "serfling", "--m", "10", "--u", "10", "--loss-bound", "inf",
          "--emp-risk", "0.1"], "inf"),
        (["curve", "--bounds", "serfling", "--m-grid", "10", "--u-rule", "multiple:inf"],
         "multiple:inf"),
        (["eval", "--bound", "det_reduction", "--m", "10", "--u", "10", "--loss-bound", "2"],
         "det_reduction"),
        (["eval", "--bound", "det_direct", "--m", "10", "--u", "10", "--loss-bound", "2"],
         "det_direct"),
        (["validate", "--scenario", "serfling", "--trials", "1000000000"], "1000000000"),
        (["validate", "--scenario", "serfling", "--trials", "1000", "--hypotheses",
          "1000000000"], "1000000000"),
        (["mc-concentration", "--population-size", "100000000000", "--ones", "3", "--m", "5",
          "--trials", "1000"], "100000000000"),
        (["prior-sweep", "--p-grid", "0,0.5", "--m", "5", "--u", "5"], "got 0.0"),
        (["mc-concentration", "--population-size", "40", "--ones", "10", "--m", "20",
          "--eps-grid", "0.1,nan", "--trials", "1000"], "eps"),
        # float flags the chosen bound does not read
        (["eval", "--bound", "serfling", "--m", "10", "--u", "10", "--kl", "nan"], "--kl"),
        (["eval", "--bound", "serfling", "--m", "10", "--u", "10", "--kl", "inf"], "--kl"),
        (["curve", "--bounds", "serfling", "--m-grid", "10", "--kl=-inf"], "--kl"),
        (["eval", "--bound", "gibbs_direct", "--m", "10", "--u", "10", "--prior-mass", "nan"],
         "--prior-mass"),
        (["curve", "--bounds", "gibbs_reduction", "--m-grid", "10", "--prior-mass=-inf"],
         "--prior-mass"),
        (["eval", "--bound", "vapnik_absolute", "--m", "10", "--u", "10", "--loss-bound", "nan"],
         "--loss-bound"),
        (["eval", "--bound", "vapnik_relative", "--m", "10", "--u", "10", "--loss-bound=-inf"],
         "--loss-bound"),
    ])
    def test_exit_2_naming_the_value(self, capsys, argv, named):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and named in err

    def test_subnormal_prior_mass_gives_a_finite_bound(self, capsys):
        # 1/p overflows at p = 5e-324, ln(1/p) = 744.44 does not
        code, out, _ = run(capsys, ["eval", "--bound", "det_reduction", "--m", "2", "--u", "1",
                                    "--delta", "0.5", "--prior-mass", "5e-324"])
        assert code == 0
        raw = float(out.splitlines()[1].split(",")[3])
        assert raw == pytest.approx(6.0 * (-math.log(5e-324) + math.log(4.0)), rel=1e-11)


class TestTransduce:
    @pytest.mark.parametrize("bound", BOUND_NAMES)
    def test_cluster_budget_where_the_prior_mass_underflows(self, capsys, tmp_path, bound):
        # p = 2^-tau / c underflows to 0 above tau of about 1075; ln(1/p) stays finite
        rng = np.random.default_rng(0)
        points, labels = tmp_path / "points.csv", tmp_path / "labels.csv"
        np.savetxt(points, rng.random((1200, 2)), delimiter=",")
        labels.write_text("".join(f"{i},{rng.choice([1, -1])}\n" for i in range(1150)))
        cert = tmp_path / "cert.json"
        code, _, err = run(capsys, ["transduce", "--data", str(points), "--labels", str(labels),
                                    "--clusterer", "agglomerative_single", "--max-clusters",
                                    "1100", "--bound", bound, "--certificate-out", str(cert)])
        assert code == 0, err
        doc = json.loads(cert.read_text())
        assert doc["c"] == 1100 and math.isfinite(doc["bound_raw"])

    def test_end_to_end_and_byte_identical(self, capsys, tmp_path):
        args = [
            "transduce", "--data", FEATURES, "--labels", LABELS,
            "--clusterer", "kmeans", "--max-clusters", "10", "--delta", "0.05",
        ]
        outs = []
        for i in range(2):
            pred = tmp_path / f"pred{i}.csv"
            cert = tmp_path / f"cert{i}.json"
            code = main(args + ["--predictions-out", str(pred),
                                "--certificate-out", str(cert)])
            assert code == 0
            outs.append((pred.read_bytes(), cert.read_bytes()))
        assert outs[0] == outs[1]

        doc = json.loads(outs[0][1])
        assert doc["chosen_tau"] == 2
        assert doc["emp_risk"] == 0.0
        assert 0.3 < doc["bound_raw"] < 0.5

        lines = outs[0][0].decode().strip().split("\n")[1:]
        assert len(lines) == 50
        for ln in lines:
            i, lab = ln.split(",")
            assert (lab == "+1") == (int(i) % 2 == 0)  # blob parity is the truth

    def test_c1_single_label(self, capsys, tmp_path):
        pred = tmp_path / "p.csv"
        code = main(
            ["transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer",
             "kmeans", "--max-clusters", "1", "--predictions-out", str(pred),
             "--certificate-out", str(tmp_path / "c.json")]
        )
        assert code == 0
        labels = {ln.split(",")[1] for ln in pred.read_text().strip().split("\n")[1:]}
        assert labels == {"+1"}

    def test_unknown_id_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("0,+1\n500,-1\n")
        code, _, err = run(
            capsys,
            ["transduce", "--data", FEATURES, "--labels", str(bad), "--clusterer",
             "kmeans", "--max-clusters", "2"],
        )
        assert code == 2
        assert "unknown id" in err

    def test_oversized_agglomerative_exits_2(self, capsys, monkeypatch):
        # the two-blob file's 100 points need 4950 distances; lower the cap below that
        monkeypatch.setattr(clustering, "MAX_LINKAGE_PAIRS", 4949)
        code, out, err = run(
            capsys,
            ["transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer",
             "agglomerative_single", "--max-clusters", "2"],
        )
        assert code == 2
        assert out == ""
        assert "n=100 points" in err

    def test_infeasible_budget_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["transduce", "--data", FEATURES, "--labels", LABELS, "--clusterer",
             "kmeans", "--max-clusters", "51"],
        )
        assert code == 2

    def test_fewer_distinct_points_than_clusters_exits_2(self, capsys, tmp_path):
        points, labels = tmp_path / "points.csv", tmp_path / "labels.csv"
        points.write_text("0,0\n0,0\n1,1\n2,2\n1,1\n2,2\n")
        labels.write_text("0,+1\n1,+1\n2,-1\n3,+1\n4,-1\n")
        code, out, err = run(
            capsys,
            ["transduce", "--data", str(points), "--labels", str(labels), "--clusterer",
             "kmeans", "--clusterer", "agglomerative_single", "--max-clusters", "4"],
        )
        assert code == 2
        assert out == ""
        assert "cannot form 4 clusters from 3 distinct points" in err

    @pytest.mark.parametrize("clusterer", ALGORITHMS)
    @pytest.mark.parametrize("n", [1, 6])
    def test_every_id_labelled_exits_2(self, capsys, tmp_path, clusterer, n):
        # no test point is left to predict; a single point gives linkage no pair
        points, labels = tmp_path / "points.csv", tmp_path / "labels.csv"
        np.savetxt(points, np.arange(2.0 * n).reshape(n, 2), delimiter=",")
        labels.write_text("".join(f"{i},{1 if i % 2 else -1}\n" for i in range(n)))
        code, out, err = run(
            capsys,
            ["transduce", "--data", str(points), "--labels", str(labels), "--clusterer",
             clusterer, "--max-clusters", "1"],
        )
        assert code == 2
        assert out == ""
        assert err == ("error: every point is labelled: "
                       "transduction needs at least one unlabelled point\n")

    def test_unparseable_data_exits_2(self, capsys, tmp_path):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b,c\n1,2\n")
        code, _, _ = run(
            capsys,
            ["transduce", "--data", str(junk), "--labels", LABELS, "--clusterer",
             "kmeans", "--max-clusters", "2"],
        )
        assert code == 2


class TestValidate:
    def test_zero_trials_exits_2(self, capsys):
        code, _, _ = run(capsys, ["validate", "--scenario", "serfling", "--trials", "0"])
        assert code == 2

    def test_smoke_and_determinism(self, capsys):
        args = ["validate", "--scenario", "vapnik_absolute", "--n", "20", "--m", "10",
                "--hypotheses", "8", "--delta", "0.1", "--trials", "500", "--seed", "7"]
        code, out1, _ = run(capsys, args)
        assert code == 0
        code, out2, _ = run(capsys, args)
        assert out1 == out2
        row = out1.strip().split("\n")[1].split(",")
        assert row[0] == "vapnik_absolute"
        assert row[6] in ("true", "false")

    def test_clustering_scenario_via_files(self, capsys, tmp_path):
        full = tmp_path / "full_labels.csv"
        with open(full, "w") as f:
            for i in range(100):
                f.write(f"{i},{'+1' if i % 2 == 0 else '-1'}\n")
        code, out, _ = run(
            capsys,
            ["validate", "--scenario", "clustering", "--data", FEATURES, "--labels",
             str(full), "--m", "50", "--max-clusters", "5", "--delta", "0.05",
             "--trials", "300", "--seed", "2"],
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[6] == "true"

    def test_clustering_rejects_a_repeated_id(self, capsys, tmp_path):
        # id 5 twice and id 7 never: the count still matches the 100 points
        ids = [5 if i == 7 else i for i in range(100)]
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(f"{i},{1 if i % 2 == 0 else -1}\n" for i in ids))
        code, out, err = run(
            capsys,
            ["validate", "--scenario", "clustering", "--data", FEATURES, "--labels",
             str(labels), "--m", "50", "--trials", "10"],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {labels}:8: repeated id 5 (first on line 6)\n"

    def test_clustering_takes_every_clusterer_and_bound(self, capsys, tmp_path, monkeypatch):
        full = tmp_path / "full_labels.csv"
        full.write_text("".join(f"{i},{1 if i % 2 == 0 else -1}\n" for i in range(100)))
        seen = []
        real = cli.mc_bound_validity
        monkeypatch.setattr(cli, "mc_bound_validity",
                            lambda sc, inst, *a: seen.append(inst) or real(sc, inst, *a))
        argv = ["validate", "--scenario", "clustering", "--data", FEATURES, "--labels",
                str(full), "--m", "50", "--max-clusters", "4", "--trials", "200",
                "--clusterer", "kmeans", "--clusterer", "agglomerative_single",
                "--bound", "direct"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert seen[0].clusterers == ("kmeans", "agglomerative_single")
        assert seen[0].bound_name == "direct"
        assert out.strip().split("\n")[1].split(",")[6] == "true"
        code, _, _ = run(capsys, argv[:-1] + ["tightest"])
        assert code == 2


    @pytest.mark.parametrize("scenarios, extra", [
        (["vapnik_absolute", "gibbs_direct", "serfling"], []),
        (["serfling", "clustering", "direct"], ["--data", FEATURES]),
    ], ids=["hypotheses", "with_clustering"])
    def test_several_scenarios_print_the_separate_runs_rows_from_one_draw(
            self, capsys, tmp_path, monkeypatch, scenarios, extra):
        full = tmp_path / "full_labels.csv"
        full.write_text("".join(f"{i},{1 if i % 2 == 0 else -1}\n" for i in range(100)))
        flags = extra + ["--labels", str(full), "--n", "100", "--m", "50", "--trials", "1500",
                         "--seed", "4"]
        apart = []
        for scenario in scenarios:
            validation._held = None  # each row from its own draw
            code, out, _ = run(capsys, ["validate", "--scenario", scenario] + flags)
            assert code == 0
            apart.append(out)
        draw, draws = validation._draw_masks, []
        monkeypatch.setattr(validation, "_draw_masks",
                            lambda *a: draws.append(a[0]) or draw(*a))
        validation._held = None
        code, out, _ = run(capsys, ["validate", "--scenario"] + scenarios + flags)
        assert code == 0
        # n = 100 and m = 50 whether the points come from --n or --data: one batch serves all
        assert len(draws) == 1
        assert out == apart[0] + "".join(o.split("\n", 1)[1] for o in apart[1:])


class TestMcConcentration:
    def test_zero_trials_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["mc-concentration", "--population-size", "20", "--ones", "5", "--m", "10",
             "--trials", "0"],
        )
        assert code == 2

    def test_smoke(self, capsys):
        code, out, _ = run(
            capsys,
            ["mc-concentration", "--population-size", "40", "--ones", "10", "--m", "20",
             "--eps-grid", "0,0.1", "--trials", "1000", "--seed", "1"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for ln in lines[1:]:
            cells = ln.split(",")
            assert cells[-1] == "true"  # exact below every bound
            assert cells[-2] == "true"  # empirical within tolerance
