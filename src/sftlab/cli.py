"""Command line: sample | emptiness | entropy | orbits | zeta | cover | experiment.

Precedence for every option: explicit flag > config file (flat `key = value`
lines via --config) > built-in default.  Randomized commands require --seed.
Output encodings are UTF-8 with LF newlines; JSON goes to stdout unless an
output path is given.
"""

import argparse
import json
import sys

from . import __version__
from .errors import DomainError, SftlabError
from . import analysis, experiments, patterns, repeatcover, zeta
from .ensemble import AllowedSet, EnsembleParams, sample
from .orbits import count_orbits


def _load_config(path):
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SftlabError(f"bad config line (expected key = value): {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise DomainError, so main
    reports them as one JSON line and exit 2 like every other bad input;
    subparsers take the class of their parent."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for s in subs for p in s.choices.values() for leaf in _leaf_parsers(p)]


def _parse(parser, argv):
    """flag > config > default for every option: the --config file's values
    become the commands' defaults, so argparse converts them with each
    option's type and explicit flags win, and an option the file supplies is
    no longer required."""
    pre = _Parser(prog="sftlab", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    cfg = _load_config(path) if path else {}
    for leaf in _leaf_parsers(parser):
        given = [a for a in leaf._actions if a.option_strings and a.dest in cfg]
        for a in given:
            a.required = False
        leaf.set_defaults(**{a.dest: cfg[a.dest] for a in given})
    return parser.parse_args(argv)


def _emit_json(payload, path=None):
    text = json.dumps(experiments._json_safe(payload), indent=2, default=str)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _float_list(text):
    return tuple(float(x) for x in text.split(","))


def _add_config(p):
    p.add_argument("--config", help="flat key = value config file")


def _add_common(p):
    _add_config(p)
    p.add_argument("--d", type=int, default=1, help="lattice dimension")
    p.add_argument("--alphabet", type=int, default=2, help="alphabet size")


def build_parser():
    ap = _Parser(prog="sftlab", description="random Z^d-SFT laboratory")
    ap.add_argument("--version", action="version", version=f"sftlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one allowed-window set")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--omega-out", required=True, help="output bitset file")

    p = sub.add_parser("emptiness", help="decide emptiness of a saved draw")
    _add_config(p)
    p.add_argument("--omega-in", required=True)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--torus-max", type=int, default=6)
    p.add_argument("--out")

    p = sub.add_parser("entropy", help="entropy bounds for a saved draw")
    _add_config(p)
    p.add_argument("--omega-in", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--boundary-samples", type=int, default=0,
                   help="0 = exact periodic count")
    p.add_argument("--out")

    p = sub.add_parser("orbits", help="orbit counts per size")
    _add_common(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV of (size, count) rows")

    p = sub.add_parser("zeta", help="truncated inverse zeta product")
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("cover", help="repeat cover of a text pattern")
    _add_config(p)
    p.add_argument("--in", dest="infile", required=True, help="pattern text file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, default=0.0,
                   help="when > 0, use the banded construction for side n*ceil(n^tau)")
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="Monte Carlo experiments")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("emptiness", "entropy", "orbits"):
        q = kinds.add_parser(kind)
        _add_common(q)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--alpha", type=_float_list, required=True,
                       help="comma-separated list")
        q.add_argument("--trials", type=int, required=True)
        q.add_argument("--seed", type=int, required=True)
        q.add_argument("--k", type=int, default=0, help="entropy window side")
        q.add_argument("--kmax", type=int, default=0)
        q.add_argument("--torus-max", type=int, default=0)
        q.add_argument("--orbit-max", type=int, default=8)
        q.add_argument("--boundary-samples", type=int, default=256)
        q.add_argument("--zeta-jmax", type=int, default=0)
        q.add_argument("--workers", type=int, default=1)
        q.add_argument("--epsilons", type=_float_list, default="0.05,0.1,0.2",
                       help="comma-separated list")
        q.add_argument("--out-csv")
        q.add_argument("--out-json")
        q.add_argument("--check-max-unknown", type=float)
        q.add_argument("--check-zeta-sigma", type=float)
        q.add_argument("--check-per-empty-sigma", type=float)
    return ap


def _cmd_sample(args):
    params = EnsembleParams(args.alphabet, args.d, args.n, args.alpha, args.seed)
    omega = sample(params, args.trial)
    omega.save(args.omega_out)
    _emit_json({
        "d": args.d, "n": args.n, "alphabet": args.alphabet,
        "alpha": args.alpha, "seed": args.seed, "trial": args.trial,
        "windows": int(omega.n_windows), "retained": int(omega.bits.sum()),
        "omega_out": args.omega_out,
    })
    return 0


def _cmd_emptiness(args):
    omega = AllowedSet.load(args.omega_in)
    v = analysis.decide_empty(omega, args.kmax, args.torus_max)
    payload = {
        "verdict": v.verdict,
        "certificate_k": v.certificate_k,
        "certificate_orbit": None,
        "effort": v.effort,
        "config": {"omega_in": args.omega_in, "kmax": args.kmax,
                   "torus_max": args.torus_max},
    }
    if v.certificate_orbit is not None:
        payload["certificate_orbit"] = {
            "size": v.certificate_orbit.size,
            "lattice": [list(r) for r in v.certificate_orbit.lattice],
            "symbols": list(v.certificate_orbit.symbols),
        }
    _emit_json(payload, args.out)
    return 0


def _cmd_entropy(args):
    omega = AllowedSet.load(args.omega_in)
    est = analysis.entropy_estimate(omega, args.k, args.boundary_samples)
    payload = {
        "k": est.k,
        "pattern_count": str(est.pattern_count),
        "h_upper": repr(est.h_upper),
        "periodic_count": repr(est.periodic_count),
        "periodic_count_stderr": repr(est.periodic_count_stderr),
        "periodic_count_exact": est.periodic_count_exact,
        "h_per_lower": repr(est.h_per_lower),
        "boundary_pool": str(est.boundary_pool),
        "config": {"omega_in": args.omega_in, "k": args.k,
                   "boundary_samples": args.boundary_samples},
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_orbits(args):
    rows = [f"{j},{count_orbits(args.alphabet, args.d, j).count}\n"
            for j in range(1, args.max_size + 1)]
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("size,count\n" + "".join(rows))
    return 0


def _cmd_zeta(args):
    zt = zeta.zeta_inverse(args.alphabet, args.d, args.alpha, args.jmax)
    _emit_json(zt.as_dict(), args.out)
    return 0


def _cmd_cover(args):
    u = patterns.load_text(args.infile)
    if args.tau > 0:
        rep = repeatcover.asymptotic_cover(u, args.n, args.tau)
        payload = {
            "pattern_side": u.shape.side, "n": args.n, "tau": args.tau,
            "windows": rep.j, "cover_size": rep.size, "route": rep.route,
            "bound_terms": list(rep.bound_terms),
            "ratio_log_n_per_window": rep.ratio,
        }
    else:
        cov = repeatcover.full_cube_cover(u, args.n)
        payload = {
            "pattern_side": u.shape.side, "n": args.n,
            "windows": len(patterns.windows(u, args.n)),
            "cover_size": len(cov.repeats),
            "covered_area": len(cov.area()),
        }
    _emit_json(payload, args.out)
    return 0


def _cmd_experiment(args):
    cfg = experiments.ExperimentConfig(
        d=args.d, alphabet=args.alphabet, n=args.n, alphas=args.alpha,
        trials=args.trials, seed=args.seed, k=args.k, k_max=args.kmax,
        torus_max=args.torus_max, orbit_max=args.orbit_max,
        boundary_samples=args.boundary_samples, zeta_j_max=args.zeta_jmax,
        epsilons=args.epsilons,
        workers=args.workers,
    )
    result = experiments.RUNNERS[args.kind](cfg)
    if args.out_csv:
        result.write_csv(args.out_csv)
    if args.out_json:
        result.write_json(args.out_json)
    if not args.out_csv and not args.out_json:
        _emit_json({"experiment": result.kind, "config": result.config,
                    "rows": result.rows})
    checks = {}
    if args.check_max_unknown is not None:
        checks["max_unknown_frac"] = args.check_max_unknown
    if args.check_zeta_sigma is not None:
        checks["zeta_sigma"] = args.check_zeta_sigma
    if args.check_per_empty_sigma is not None:
        checks["per_empty_sigma"] = args.check_per_empty_sigma
    if checks:
        failures = experiments.check_thresholds(result, checks)
        for f in failures:
            print(f"CHECK FAIL: {f}", file=sys.stderr)
        return 1 if failures else 0
    return 0


COMMANDS = {
    "sample": _cmd_sample,
    "emptiness": _cmd_emptiness,
    "entropy": _cmd_entropy,
    "orbits": _cmd_orbits,
    "zeta": _cmd_zeta,
    "cover": _cmd_cover,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), argv)
        return COMMANDS[args.command](args)
    except SftlabError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
