"""Generated bad input through ``cli.main``: exit 0 or 2, never 3, no stdout on 2.

Each example starts from a valid command and corrupts at most one of its
inputs, so valid runs and each kind of bad value are both exercised.  Valid
sizes are small, so every valid run takes milliseconds, and oversized values
must be rejected before anything is allocated.
"""

import contextlib
import io
import math
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from transbound.cli import main
from transbound.pac_bayes import EVAL_BOUNDS

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)

BIG = 10**12
BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0, 1.0, 2.0, 1e308])
BAD_INTS = st.sampled_from([-1, 0, BIG])
UNIT = st.floats(min_value=0.001, max_value=0.999)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") or err.startswith("usage: "), (argv, err)
    return code, out, err


def corrupted(data, flags: dict, bad: dict) -> list[str]:
    """``--name=value`` for every flag, with at most one value replaced by a bad one.

    The ``--name=value`` form keeps argparse from reading "-inf" as an option.
    """
    which = data.draw(st.sampled_from([None] + sorted(bad)))
    if which is not None:
        flags = dict(flags, **{which: data.draw(bad[which])})
    return [f"--{name}={value}" for name, value in flags.items()]


class TestNumericFlags:
    @SETTINGS
    @given(m=st.integers(2, 20), u=st.integers(1, 20), delta=UNIT, emp=st.floats(0, 1),
           mass=UNIT, kl=st.floats(0, 50), data=st.data())
    def test_eval(self, m, u, delta, emp, mass, kl, data):
        flags = {"m": m, "u": u, "delta": delta, "emp-risk": emp, "prior-mass": mass,
                 "kl": kl, "loss-bound": 1.0}
        bad = {"m": BAD_INTS, "u": BAD_INTS, "delta": BAD_FLOATS, "emp-risk": BAD_FLOATS,
               "prior-mass": BAD_FLOATS, "kl": BAD_FLOATS, "loss-bound": BAD_FLOATS}
        argv = corrupted(data, flags, bad)
        for bound in EVAL_BOUNDS:
            code, out, _ = check(["eval", "--bound", bound] + argv)
            # a finite KL near DBL_MAX may overflow the raw bound to inf; never to nan
            assert "nan" not in out

    @SETTINGS
    @given(m=st.integers(1, 20), u=st.integers(1, 20), delta=UNIT, emp=st.floats(0, 1),
           mass=st.floats(math.log(5e-324), 0.0).map(math.exp),
           loss=st.sampled_from([1.0, 2.0]))
    def test_eval_at_any_prior_mass(self, m, u, delta, emp, mass, loss):
        # log-uniform masses down to the smallest subnormal: every bound charges
        # ln(1/p), which stays finite where 1/p overflows
        for bound in EVAL_BOUNDS:
            code, out, err = check(["eval", "--bound", bound, "--m", m, "--u", u, "--delta",
                                    delta, "--emp-risk", emp, "--prior-mass", mass,
                                    "--loss-bound", loss])
            if bound.startswith(("det_", "gibbs_")) and (m < 2 or loss != 1.0):
                assert code == 2
                continue
            assert code == 0, (bound, mass, err)
            raw = float(out.splitlines()[1].split(",")[3])
            assert math.isfinite(raw) and raw >= float(format(emp, ".12g"))

    @SETTINGS
    @given(bounds=st.sampled_from(["", "serfling,gibbs_direct", "vapnik_absolute,det_direct"]),
           grid=st.sampled_from(["10,20", "2", "5,6,7"]),
           rule=st.sampled_from(["sqrt", "const:3", "multiple:0.5", "multiple:2"]),
           kl=st.floats(0, 50), emp=st.floats(0, 1), data=st.data())
    def test_curve(self, bounds, grid, rule, kl, emp, data):
        flags = {"bounds": bounds, "m-grid": grid, "u-rule": rule, "kl": kl, "emp-risk": emp}
        bad = {
            "bounds": st.just("tightest"),
            "m-grid": st.sampled_from(["", "0", "-5", "3,2", "a", str(BIG)]),
            "u-rule": st.one_of(
                st.sampled_from(["const:0", "const:x", "multiple:", "bogus"]),
                st.sampled_from([math.nan, math.inf, -math.inf, -1, 1e300])
                .map(lambda a: f"multiple:{a}")),
            "kl": BAD_FLOATS,
            "emp-risk": BAD_FLOATS,
        }
        code, out, _ = check(["curve"] + corrupted(data, flags, bad))
        if code == 0:
            assert "nan" not in out

    @SETTINGS
    @given(grid=st.lists(UNIT, min_size=1, max_size=3), m=st.integers(1, 20),
           u=st.integers(1, 20), delta=UNIT, data=st.data())
    def test_prior_sweep(self, grid, m, u, delta, data):
        flags = {"p-grid": ",".join(map(str, grid)), "m": m, "u": u, "delta": delta}
        bad = {"p-grid": BAD_FLOATS.map(str), "m": BAD_INTS, "u": BAD_INTS,
               "delta": BAD_FLOATS}
        check(["prior-sweep"] + corrupted(data, flags, bad))

    @SETTINGS
    @given(m=st.integers(1, 20), u=st.integers(1, 20), mass=UNIT, delta=UNIT,
           variant=st.sampled_from(["relative", "absolute"]), data=st.data())
    def test_epsilon_star(self, m, u, mass, delta, variant, data):
        flags = {"m": m, "u": u, "prior-mass": mass, "delta": delta, "variant": variant}
        bad = {"m": BAD_INTS, "u": BAD_INTS, "prior-mass": BAD_FLOATS, "delta": BAD_FLOATS}
        check(["epsilon-star"] + corrupted(data, flags, bad))

    @SETTINGS
    @given(scenario=st.sampled_from(["vapnik_absolute", "vapnik_relative", "serfling",
                                     "direct", "gibbs_reduction", "gibbs_direct"]),
           n=st.integers(3, 12), m_frac=st.floats(0, 1), hypotheses=st.integers(1, 5),
           trials=st.integers(1, 50), delta=UNIT, data=st.data())
    def test_validate(self, scenario, n, m_frac, hypotheses, trials, delta, data):
        m = 2 + int(m_frac * (n - 3))
        flags = {"n": n, "m": m, "hypotheses": hypotheses, "trials": trials, "delta": delta}
        bad = {"n": BAD_INTS, "m": BAD_INTS, "hypotheses": BAD_INTS, "trials": BAD_INTS,
               "delta": BAD_FLOATS}
        check(["validate", "--scenario", scenario] + corrupted(data, flags, bad))

    @SETTINGS
    @given(size=st.integers(2, 40), ones_frac=st.floats(0, 1), m_frac=st.floats(0, 1),
           grid=st.lists(st.floats(0, 1), max_size=3), data=st.data())
    def test_mc_concentration(self, size, ones_frac, m_frac, grid, data):
        flags = {"population-size": size, "ones": int(ones_frac * size),
                 "m": 1 + int(m_frac * (size - 2)), "trials": 1000,
                 "eps-grid": ",".join(map(str, grid))}
        bad = {"population-size": BAD_INTS, "ones": st.sampled_from([-1, 41, BIG]),
               "m": BAD_INTS, "trials": st.sampled_from([0, 999, BIG]),
               "eps-grid": BAD_FLOATS.map(str)}
        check(["mc-concentration"] + corrupted(data, flags, bad))


NUMBERS = st.sampled_from(["0", "1", "-2.5", "3e2"])
JUNK = st.sampled_from(["nan", "inf", "-inf", "1e999", "a", "0x1"])


def write(directory, name, text):
    path = pathlib.Path(directory) / name
    path.write_text(text)
    return str(path)


def label_lines(pairs):
    return "".join(f"{i},{lab}\n" for i, lab in pairs)


def clustering_argv(command, data, labels):
    if command == "transduce":
        return ["transduce", "--data", data, "--labels", labels, "--max-clusters", "1"]
    return ["validate", "--scenario", "clustering", "--data", data, "--labels", labels,
            "--m", "1", "--max-clusters", "1", "--trials", "3"]


class TestInputFiles:
    @SETTINGS
    @given(n=st.integers(2, 6), width=st.integers(1, 3),
           corruption=st.sampled_from([None, "ragged", "junk", "empty"]),
           command=st.sampled_from(["transduce", "validate"]), data=st.data())
    def test_ragged_and_non_numeric_points(self, n, width, corruption, command, data):
        rows = [[data.draw(NUMBERS) for _ in range(width)] for _ in range(n)]
        row = data.draw(st.integers(0, n - 1))
        if corruption == "ragged":
            longer = width == 1 or data.draw(st.booleans())
            rows[row] = rows[row] + ["1"] if longer else rows[row][:-1]
        elif corruption == "junk":
            rows[row][data.draw(st.integers(0, width - 1))] = data.draw(JUNK)
        elif corruption == "empty":
            rows = []
        truth = [1 - 2 * (i % 2) for i in range(n)]
        with tempfile.TemporaryDirectory() as d:
            points = write(d, "points.csv", "".join(",".join(r) + "\n" for r in rows))
            labels = write(d, "labels.csv", label_lines(enumerate(truth)) if command ==
                           "validate" else label_lines([(0, 1)]))
            code, _, _ = check(clustering_argv(command, points, labels))
            assert code == 2 if corruption else code == 0

    @SETTINGS
    @given(n=st.integers(2, 8), corruption=st.sampled_from(
               [None, "repeat", "missing", "out_of_range", "bad_label", "bad_line"]),
           command=st.sampled_from(["transduce", "validate"]), data=st.data())
    def test_repeated_missing_and_out_of_range_ids(self, n, corruption, command, data):
        ids = data.draw(st.permutations(range(n)))
        if command == "transduce":
            ids = ids[: data.draw(st.integers(1, n - 1))]
        pairs = [(i, "+1" if i % 2 == 0 else "-1") for i in ids]
        pos = data.draw(st.integers(0, len(pairs) - 1))
        if corruption == "repeat":
            pairs.insert(data.draw(st.integers(pos + 1, len(pairs))), (ids[pos], "+1"))
        elif corruption == "missing":
            del pairs[pos]
        elif corruption == "out_of_range":
            pairs[pos] = (data.draw(st.sampled_from([-1, n, BIG])), "+1")
        elif corruption == "bad_label":
            pairs[pos] = (pairs[pos][0], data.draw(st.sampled_from(["0", "2", "x", ""])))
        with tempfile.TemporaryDirectory() as d:
            points = write(d, "points.csv", "".join(f"{i % 3},{i % 2}\n" for i in range(n)))
            text = label_lines(pairs) + ("1,1,1\n" if corruption == "bad_line" else "")
            code, _, err = check(clustering_argv(command, points, write(d, "labels.csv", text)))
        if corruption == "repeat":
            assert code == 2 and f"repeated id {ids[pos]}" in err
        elif corruption in ("out_of_range", "bad_label", "bad_line") or (
                corruption == "missing" and command == "validate"):
            assert code == 2


class TestEdgeShapes:
    @SETTINGS
    @given(distinct=st.integers(1, 4), copies=st.integers(1, 3), spare=st.integers(0, 2),
           clusterer=st.sampled_from(["kmeans", "agglomerative_single",
                                      "agglomerative_complete"]),
           bound=st.sampled_from(["serfling_printed", "direct", "vapnik_absolute"]),
           shape=st.sampled_from(["m1", "u1", "other"]), data=st.data())
    def test_duplicate_points_and_extreme_splits(self, distinct, copies, spare, clusterer,
                                                 bound, shape, data):
        n = max(distinct * copies + spare, 2)
        points = [(float(i % distinct), 0.0) for i in range(n)]
        truth = [1 if x % 2 == 0 else -1 for x, _ in points]
        m = {"m1": 1, "u1": n - 1}.get(shape) or data.draw(st.integers(1, n - 1))
        train = sorted(data.draw(st.permutations(range(n)))[:m])
        c = data.draw(st.sampled_from([1, distinct, m, m + 1]))
        # c equal to the distinct count is feasible; one more cluster, or m = 1 with
        # the direct bound (which divides by m - 1), is not
        feasible = c <= min(m, distinct) and not (m == 1 and bound == "direct")
        with tempfile.TemporaryDirectory() as d:
            pts = write(d, "points.csv", "".join(f"{x},{y}\n" for x, y in points))
            some = write(d, "train.csv", label_lines((i, truth[i]) for i in train))
            every = write(d, "every.csv", label_lines(enumerate(truth)))
            code, _, _ = check(["transduce", "--data", pts, "--labels", some, "--clusterer",
                                clusterer, "--max-clusters", c, "--bound", bound])
            assert (code == 0) == feasible
            code, _, _ = check(["validate", "--scenario", "clustering", "--data", pts,
                                "--labels", every, "--m", m, "--max-clusters", c,
                                "--clusterer", clusterer, "--bound", bound, "--trials", "5"])
            assert (code == 0) == feasible
        for scenario in ("vapnik_relative", "direct", "gibbs_direct"):
            code, _, _ = check(["validate", "--scenario", scenario, "--n", n, "--m", m,
                                "--hypotheses", copies, "--trials", "5"])
            assert code == 0 or (m == 1 and scenario != "vapnik_relative")
