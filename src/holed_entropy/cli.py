"""Command-line surface tying the engines together.

Exit codes: 0 success, 2 input error (a malformed number, flag or JSON map
config too), 3 engine error (refinement does not close, resource caps, no
determinant root).

Numbers on the command line are num/den strings, integers or decimals, and
a map, hole or map parameter is always the exact rational it spells
("0.3" is 3/10).  The one exception is ``tower --a``: there a bare decimal
is a float, the centre of the ball [a - epsilon, a + epsilon] whose entropy
the tower engine encloses with certified ends (``--epsilon`` is passed to
``entropy_left_hole`` as ``epsilon``), and a warning on stderr says so.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import ENGINES, __version__
from .errors import (HoledEntropyError, InvalidParameterError, NoRootError,
                     NotFinitelyMarkovError, ResourceLimitError)
from .mapmodel import (Hole, PiecewiseMap, build_d_adic, build_scaled_farey,
                       load_map_config, map_to_config, parse_rational)

_ENGINE_ERRORS = (NotFinitelyMarkovError, ResourceLimitError, NoRootError)


def _parse_tower_a(text: str, epsilon: float) -> Fraction | float:
    """num/den or an integer is exact; a bare decimal is a float, and the
    warning names the ``epsilon`` that the tower engine will enclose it with."""
    text = text.strip()
    if "/" in text or text.lstrip("+-").isdigit():
        return parse_rational(text)
    try:
        a = float(text)
    except ValueError as exc:
        raise InvalidParameterError(f"malformed number {text!r}") from exc
    if not math.isfinite(a):
        raise InvalidParameterError(f"parameter a = {text} is not finite")
    print(f"warning: bare decimal {text!r} parsed in float mode "
          f"(epsilon {epsilon:g}); use num/den for exact arithmetic",
          file=sys.stderr)
    return a


def _parse_hole_arg(text: str | None) -> Hole:
    if text is None or text.strip().lower() in ("", "none", "empty"):
        return Hole.empty()
    pieces = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InvalidParameterError(
                f"hole piece {chunk!r} must be lo,hi (pieces separated by ';')")
        pieces.append((parse_rational(parts[0]), parse_rational(parts[1])))
    return Hole(pieces)


def _resolve_map(name: str, param: str | None) -> tuple[PiecewiseMap, Hole | None]:
    """The map that ``--map`` and ``--param`` name, and the hole of a JSON
    config (None for a built-in map or a config without one)."""
    if name == "doubling":
        return build_d_adic(2), None
    if name.startswith("d-adic:"):
        text = name.split(":", 1)[1]
        try:
            d = int(text)
        except ValueError as exc:
            raise InvalidParameterError(
                f"d-adic map needs an integer d >= 2, got {text!r}") from exc
        return build_d_adic(d), None
    if name == "farey":
        if param is None:
            raise InvalidParameterError("the farey map needs --param a in (0, 1]")
        return build_scaled_farey(parse_rational(param)), None
    if os.path.exists(name):
        return load_map_config(name)
    raise InvalidParameterError(
        f"unknown map {name!r}: use doubling, d-adic:<d>, farey, or a JSON path")


def _map_and_hole(args) -> tuple[PiecewiseMap, Hole]:
    """The map and the hole: ``--hole``, or else a JSON config's hole; a
    config hole and ``--hole`` together are an input error."""
    pmap, config_hole = _resolve_map(args.map, args.param)
    if config_hole is None:
        return pmap, _parse_hole_arg(args.hole)
    if args.hole is not None:
        raise InvalidParameterError(
            f"map config {args.map!r} has a hole; drop --hole or the config's \"hole\"")
    return pmap, config_hole


def _emit_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands: each imports only the engine it runs, and resolves the
# defaults that the engine defines
# ---------------------------------------------------------------------------

def _cmd_entropy(args) -> int:
    from .regularity import compare_engines, solve
    pmap, hole = _map_and_hole(args)
    if args.engine == "compare":
        rep = compare_engines(pmap, hole, args.depth, args.tol)
        _emit_json({**asdict(rep), "applicable": rep.applicable_engines()},
                   args.json)
        return 0
    res, (h, p, bound) = solve(args.engine, pmap, hole, args.depth, args.tol)
    if args.engine == "oracle":
        count = res.count(args.depth)
        detail = f"level={args.depth}, count={count}"
    elif args.engine == "kneading":
        detail = f"p={p}, error_bound={bound:.3g}"
    else:
        detail = f"p={p}, rho={res.report.rho:.15g}"
    print(f"entropy = {h:.15g}  (engine={args.engine}, {detail})")
    if args.json:
        # built only here: the Markov report reads min_poly, which takes
        # minutes for a rho of degree ~400
        _emit_json({"level": args.depth, "count": count, "entropy": h}
                   if args.engine == "oracle" else res.to_json(), args.json)
    return 0


def _cmd_tower(args) -> int:
    from .kneading import DEFAULT_EPSILON, DEFAULT_TOL, entropy_left_hole
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    tol = DEFAULT_TOL if args.tol is None else args.tol
    a = _parse_tower_a(args.a, epsilon)
    res = entropy_left_hole(a, tol=tol, epsilon=epsilon)
    _emit_json(res.to_json(), args.json)
    return 0


def _cmd_spectrum(args) -> int:
    from .markov import DEFAULT_TOL, spectrum_markov, to_dot
    pmap, hole = _map_and_hole(args)
    res = spectrum_markov(pmap, hole,
                          tol=DEFAULT_TOL if args.tol is None else args.tol)
    _emit_json(res.to_json(), args.json)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(res) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    from .cylinders import entropy_estimate, export_level_counts, refine
    pmap, hole = _map_and_hole(args)
    tree = refine(pmap, hole, args.depth)
    levels = [{"level": n, "count": tree.count(n), "entropy": entropy_estimate(tree, n)}
              for n in range(1, args.depth + 1)]
    for lv in levels:
        print(f"level {lv['level']}: count {lv['count']}, "
              f"entropy {lv['entropy']:.15g}")
    if args.json:
        _emit_json({"levels": levels}, args.json)
    if args.csv:
        export_level_counts(tree, args.csv, args.depth)
    return 0


def _make_family(args):
    from .regularity import LeftHoleFamily, SlidingHoleFamily
    if args.family == "left":
        return LeftHoleFamily()
    if args.family == "sliding":
        if args.width is None:
            raise InvalidParameterError("sliding family needs --width")
        return SlidingHoleFamily(parse_rational(args.width))
    raise InvalidParameterError(f"unknown family {args.family!r}")


def _cmd_sweep(args) -> int:
    from .regularity import SweepSpec, emit_csv, emit_svg_plot, run_sweep
    family = _make_family(args)
    extra = tuple(parse_rational(x) for x in (args.extra or []))
    spec = SweepSpec(family, parse_rational(args.start),
                     parse_rational(args.end), args.count,
                     engine=args.engine, depth=args.oracle_depth,
                     extra_points=extra)
    result = run_sweep(spec)
    flagged = sum(1 for r in result.rows if r.status != "ok")
    print(f"swept {len(result.rows)} points with engine {args.engine}"
          + (f" ({flagged} flagged)" if flagged else ""))
    if args.csv:
        emit_csv(result, args.csv)
    if args.svg:
        emit_svg_plot(result, args.svg)
    if args.json:
        _emit_json({"metadata": result.metadata,
                    "rows": [{"s": str(r.s), "entropy": r.entropy, "p": r.p,
                              "engine": r.engine, "error_bound": r.error_bound,
                              "status": r.status} for r in result.rows]},
                   args.json)
    return 0


def _cmd_holder(args) -> int:
    from .regularity import holder_estimate
    family = _make_family(args)
    t = parse_rational(args.t)
    xi = args.xi if args.xi is not None else math.log(2)
    if args.scale_from < 0:
        raise InvalidParameterError(
            f"--scale-from must be >= 0 (scales are 2^-k), got {args.scale_from}")
    scales = [Fraction(1, 2) ** k for k in range(args.scale_from, args.scale_to + 1)]
    est = holder_estimate(family, t, args.p, xi, scales, engine=args.engine)
    rep = est.bound_check(args.inflate)
    out = {
        "t": str(t),
        "alpha_target": est.alpha_target,
        "fitted_exponent": est.fitted_exponent,
        "fit_residual": est.fit_residual,
        "constant": est.constant,
        "mesh_sizes": list(est.mesh_sizes),
        "constant_per_mesh": list(est.constant_per_mesh),
        "locally_constant": est.locally_constant,
        "bound_check": {
            "alpha": rep.alpha,
            "passed": rep.passed,
            "stability_ratio": rep.stability_ratio,
            "detail": rep.detail,
        },
    }
    _emit_json(out, args.json)
    return 0


def _cmd_diag(args) -> int:
    from .cylinders import expansion_diagnostics
    pmap, hole = _map_and_hole(args)
    if args.dump_config:
        _emit_json(map_to_config(pmap, None if hole.is_empty else hole), args.json)
        return 0
    diag = expansion_diagnostics(pmap, args.n, hole=hole)
    _emit_json({
        "n": diag.n,
        # -inf when every point escapes by level n, which JSON cannot hold
        "theta_n": diag.theta_n if math.isfinite(diag.theta_n) else None,
        "lambda_n": diag.lambda_n,
        "xi_n": diag.xi_n,
        "a_n": diag.a_n,
        "A_n": diag.A_n,
    }, args.json)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="holed-entropy",
        description="Topological entropy of interval maps with holes")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, need_map=True):
        if need_map:
            p.add_argument("--map", required=True,
                           help="doubling | d-adic:<d> | farey | config.json")
            p.add_argument("--param", help="map parameter (farey a), exact")
            p.add_argument("--hole", help="pieces lo,hi separated by ';', exact")
        p.add_argument("--json", help="write a JSON report to this path")

    p = sub.add_parser("entropy", help="entropy of one map/hole pair")
    common(p)
    p.add_argument("--engine", default="kneading", choices=[*ENGINES, "compare"])
    p.add_argument("--depth", type=int, default=20, help="oracle/compare level")
    p.add_argument("--tol", type=float,
                   help="root tolerance (not oracle); default: the engine's own")
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("tower", help="boundary-orbit determinant for hole [a,1]")
    common(p, need_map=False)
    p.add_argument("--a", required=True,
                   help="num/den; a bare decimal gives a certified entropy "
                        "interval over [a - epsilon, a + epsilon]")
    p.add_argument("--epsilon", type=float,
                   help="radius of the certified ball around a decimal --a, "
                        "the one float input (decimals elsewhere are exact); "
                        "unused for num/den")
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=_cmd_tower)

    p = sub.add_parser("spectrum", help="exact Markov transition spectrum")
    common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--dot", help="write the transition graph in DOT format")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("oracle", help="per-level survivor counts")
    common(p)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--csv", help="write level,count,entropy_estimate rows")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("sweep", help="entropy over a hole family grid")
    common(p, need_map=False)
    p.add_argument("--family", required=True, choices=["left", "sliding"])
    p.add_argument("--width", help="sliding hole width (rational)")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--engine", default="kneading", choices=ENGINES)
    p.add_argument("--oracle-depth", type=int, default=20,
                   help="refinement level of the oracle engine")
    p.add_argument("--extra", nargs="*", help="extra exact grid points")
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("holder", help="local regularity estimate at one point")
    common(p, need_map=False)
    p.add_argument("--family", required=True, choices=["left", "sliding"])
    p.add_argument("--width")
    p.add_argument("--t", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--xi", type=float, default=None,
                   help="expansion rate (default log 2)")
    p.add_argument("--scale-from", type=int, default=6,
                   help="coarsest scale 2^-k")
    p.add_argument("--scale-to", type=int, default=16,
                   help="finest scale 2^-k")
    p.add_argument("--inflate", type=float, default=0.0,
                   help="exponent offset for the bound check")
    p.add_argument("--engine", default="kneading", choices=ENGINES)
    p.set_defaults(fn=_cmd_holder)

    p = sub.add_parser("diag", help="expansion diagnostics / config dump")
    common(p)
    p.add_argument("--n", type=int, default=5,
                   help="level; theta_n is null when not finite (every point "
                   "escapes by level n)")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(fn=_cmd_diag)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _ENGINE_ERRORS as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3
    except HoledEntropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
