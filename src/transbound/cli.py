"""Command-line surface: bound evaluation, curves, validation, transduction.

Subcommands: ``curve``, ``prior-sweep``, ``eval``, ``epsilon-star``,
``transduce``, ``validate``, ``mc-concentration``.  All output is CSV with a
fixed column order, 12-significant-digit decimal formatting and LF line
endings, so repeated runs with the same flags are byte-identical.  Every
emitted value comes straight from a library call, except two inputs the CLI
derives: the ``u`` column of ``curve``, from ``--u-rule`` at each m
(``_resolve_u``), and ``mc-concentration``'s default eps grid, eleven even
steps from 0 to 1 - ones / population-size.

Exit codes: 0 success, 2 invalid input or configuration, 3 internal failure.
"""

import argparse
from dataclasses import astuple, fields
import json
import math
import sys
import warnings

import numpy as np

from .hypergeom import epsilon_star
from .pac_bayes import EVAL_BOUNDS, evaluate_bound
from .records import _check_choice, _check_nonnegative, _check_size
from .transduce import (
    ALGORITHMS,
    BOUND_NAMES,
    Dataset,
    LabeledSubset,
    TransduceConfig,
    transduce,
)
from .validation import (
    SCENARIOS,
    ClusteringInstance,
    ConcentrationReport,
    McReport,
    check_mc_cells,
    mc_bound_validity,
    mc_concentration,
    random_hypothesis_instance,
)

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(header, rows, stream=None):
    stream = stream or sys.stdout
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_u(rule: str, m: int) -> int:
    if rule == "sqrt":
        u = math.ceil(math.sqrt(m))
    elif rule.startswith("multiple:"):
        alpha = float(rule.split(":", 1)[1])
        _check_nonnegative(f"u-rule {rule!r}", alpha)
        u = int(round(alpha * m))
    elif rule.startswith("const:"):
        u = int(rule.split(":", 1)[1])
    else:
        raise ValueError(f"unknown u-rule {rule!r}")
    if u < 1:
        raise ValueError(f"u-rule {rule!r} yields u < 1 at m = {m}")
    return u


_BOUND_HEADER = ("m", "u", "bound_name", "raw", "clamped", "valid")


def _bound_row(m: int, u: int, out) -> tuple:
    return (m, u, out.name, out.raw, out.clamped, out.valid)


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def cmd_curve(args) -> int:
    names = [tok for tok in args.bounds.split(",") if tok != ""]
    for name in names:
        _check_choice("bound", name, EVAL_BOUNDS)
    m_grid = _csv_ints(args.m_grid)
    if sorted(set(m_grid)) != m_grid:
        raise ValueError("m-grid must be strictly increasing")
    rows = []
    for m in m_grid:
        u = _resolve_u(args.u_rule, m)
        for name in sorted(names):
            out = evaluate_bound(name, m, u, args.delta, args.emp_risk, args.prior_mass,
                                 args.kl)
            rows.append(_bound_row(m, u, out))
    _emit(_BOUND_HEADER, rows)
    return 0


def cmd_prior_sweep(args) -> int:
    rows = []
    for p in sorted(_csv_floats(args.p_grid)):
        rel = epsilon_star(p, args.delta, args.m, args.u, "relative").value
        ab = epsilon_star(p, args.delta, args.m, args.u, "absolute").value
        serf = evaluate_bound("serfling", args.m, args.u, args.delta, 0.0, p).raw
        rows.append((p, rel, ab, serf))
    _emit(
        ("p", "vapnik_relative_eps_star", "vapnik_absolute_eps_star", "serfling_complexity"),
        rows,
    )
    return 0


def cmd_eval(args) -> int:
    out = evaluate_bound(args.bound, args.m, args.u, args.delta, args.emp_risk,
                         args.prior_mass, args.kl, args.loss_bound)
    _emit(_BOUND_HEADER, [_bound_row(args.m, args.u, out)])
    return 0


def cmd_epsilon_star(args) -> int:
    star = epsilon_star(args.prior_mass, args.delta, args.m, args.u, args.variant)
    _emit(
        ("m", "u", "variant", "prior_mass", "delta", "value", "achieving_k"),
        [(args.m, args.u, star.variant, args.prior_mass, args.delta, star.value,
          star.achieving_k)],
    )
    return 0


def _load_points(path: str) -> np.ndarray:
    with warnings.catch_warnings():  # an empty file gets the message below instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        pts = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if pts.size == 0:
        raise ValueError(f"no points in {path}")
    return pts


def _load_labels(path: str, n_total: int):
    ids, labels, first_line = [], [], {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'id,label'")
            i, lab = int(parts[0]), int(parts[1])
            if not 0 <= i < n_total:
                raise ValueError(f"{path}:{line_no}: unknown id {i}")
            if i in first_line:
                raise ValueError(f"{path}:{line_no}: repeated id {i} "
                                 f"(first on line {first_line[i]})")
            first_line[i] = line_no
            if lab not in (-1, 1):
                raise ValueError(f"{path}:{line_no}: label must be +1 or -1")
            ids.append(i)
            labels.append(lab)
    return np.array(ids), np.array(labels)


def cmd_transduce(args) -> int:
    pts = _load_points(args.data)
    ids, labels = _load_labels(args.labels, len(pts))
    data = Dataset(points=pts, ids=np.arange(len(pts)))
    labeled = LabeledSubset(indices=ids, labels=labels)
    config = TransduceConfig(
        algorithms=tuple(args.clusterer),
        c=args.max_clusters,
        delta=args.delta,
        bound_name=args.bound,
    )
    cert = transduce(data, labeled, config)

    pred_rows = [(int(i), "+1" if int(y) == 1 else "-1")
                 for i, y in zip(cert.test_ids, cert.predictions)]
    if args.predictions_out:
        with open(args.predictions_out, "w", newline="\n") as f:
            _emit(("id", "label"), pred_rows, stream=f)
    else:
        _emit(("id", "label"), pred_rows)

    doc = {
        "algorithm": cert.algorithm,
        "bound_clamped": cert.bound.clamped,
        "bound_name": cert.bound_name,
        "bound_raw": cert.bound.raw,
        "c": cert.c,
        "chosen_tau": cert.chosen_tau,
        "clusterer_id": cert.clusterer_id,
        "delta": cert.delta,
        "emp_risk": cert.emp_risk,
        "k_ensemble": cert.k_ensemble,
        "m": len(ids),
        "predictions": [[int(i), int(y)] for i, y in zip(cert.test_ids, cert.predictions)],
        "u": len(cert.test_ids),
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.certificate_out:
        with open(args.certificate_out, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    clustering = hypotheses = None
    if "clustering" in args.scenario:
        if not args.data or not args.labels:
            raise ValueError("clustering scenario needs --data and --labels (full target)")
        pts = _load_points(args.data)
        ids, labels = _load_labels(args.labels, len(pts))
        if len(ids) != len(pts):
            raise ValueError("clustering validation needs a label for every id")
        target = np.empty(len(pts), dtype=np.int64)
        target[ids] = labels
        clustering = ClusteringInstance(
            points=pts, target=target, m=args.m, c=args.max_clusters,
            clusterers=tuple(args.clusterer), bound_name=args.bound,
        )
    if set(args.scenario) - {"clustering"}:
        hypotheses = random_hypothesis_instance(
            n_total=args.n, m=args.m, n_hyp=args.hypotheses, seed=args.instance_seed
        )
    reps = [(s, mc_bound_validity(s, clustering if s == "clustering" else hypotheses,
                                  args.delta, args.trials, args.seed)) for s in args.scenario]
    _emit(("scenario", *(f.name for f in fields(McReport))),
          [(s, *astuple(rep)) for s, rep in reps])
    return 0


def cmd_mc_concentration(args) -> int:
    if args.trials < 1:  # else check_mc_cells passes any population size
        raise ValueError("need at least one trial")
    _check_size("population-size", args.population_size)
    check_mc_cells(args.trials, args.population_size, "trials x population-size")
    pop = np.zeros(args.population_size, dtype=np.int64)
    if not 0 <= args.ones <= args.population_size:
        raise ValueError("ones must lie in 0..population-size")
    pop[: args.ones] = 1
    if args.eps_grid:
        grid = _csv_floats(args.eps_grid)
    else:
        top = 1.0 - args.ones / args.population_size
        grid = [i * top / 10.0 for i in range(11)]
    reports = mc_concentration(pop, args.m, grid, args.trials, args.seed)
    _emit([f.name for f in fields(ConcentrationReport)], [astuple(r) for r in reports])
    return 0


def _check_float_flags(args) -> None:
    """Refuse a NaN or infinite float flag, whether or not the command reads it."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transbound",
        description="Transductive error bounds: evaluate, invert, compare, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_bound_flags(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--u", type=int, required=True)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--emp-risk", type=float, default=0.0)
        p.add_argument("--prior-mass", type=float, default=1.0)
        p.add_argument("--kl", type=float, default=0.0)

    p = sub.add_parser("curve", help="bound values over an m grid")
    p.add_argument("--bounds", default="", help="comma list of: " + ",".join(EVAL_BOUNDS))
    p.add_argument("--m-grid", required=True, help="comma list, strictly increasing")
    p.add_argument("--u-rule", default="multiple:1",
                   help="multiple:ALPHA (u = ALPHA*m), sqrt, or const:V")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--emp-risk", type=float, default=0.0)
    p.add_argument("--prior-mass", type=float, default=1.0)
    p.add_argument("--kl", type=float, default=0.0)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("prior-sweep", help="complexity terms as a function of prior mass")
    p.add_argument("--p-grid", required=True, help="comma list of prior masses in (0, 1]")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.set_defaults(func=cmd_prior_sweep)

    p = sub.add_parser("eval", help="evaluate a single bound from flags")
    p.add_argument("--bound", required=True, choices=EVAL_BOUNDS)
    common_bound_flags(p)
    p.add_argument("--loss-bound", type=float, default=1.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("epsilon-star", help="invert the worst-case deviation tail")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--prior-mass", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--variant", choices=("relative", "absolute"), default="absolute")
    p.set_defaults(func=cmd_epsilon_star)

    p = sub.add_parser("transduce", help="cluster, label, select by bound, certify")
    p.add_argument("--data", required=True, help="headerless CSV, one point per row")
    p.add_argument("--labels", required=True, help="CSV rows id,label with label +1/-1")
    p.add_argument("--clusterer", action="append", choices=ALGORITHMS, default=None)
    p.add_argument("--max-clusters", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--bound", choices=BOUND_NAMES, default="serfling_printed")
    p.add_argument("--predictions-out", default=None)
    p.add_argument("--certificate-out", default=None)
    p.set_defaults(func=cmd_transduce)

    p = sub.add_parser("validate", help="Monte-Carlo delta-validity of a bound")
    p.add_argument("--scenario", required=True, nargs="+", choices=SCENARIOS,
                   help="one or more, all on --seed's splits: one CSV row each")
    p.add_argument("--n", type=int, default=40, help="full sample size")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--hypotheses", type=int, default=16)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instance-seed", type=int, default=0)
    p.add_argument("--data", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--clusterer", action="append", choices=ALGORITHMS, default=None)
    p.add_argument("--max-clusters", type=int, default=5)
    p.add_argument("--bound", choices=BOUND_NAMES, default="serfling_printed")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mc-concentration", help="empirical vs exact vs bound tails")
    p.add_argument("--population-size", type=int, required=True)
    p.add_argument("--ones", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps-grid", default="", help="comma list; default 11 points")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mc_concentration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "clusterer") and args.clusterer is None:
        args.clusterer = ["kmeans"]
    try:
        _check_float_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
