"""Command-line front end: every experiment reachable as a subcommand.

Results are emitted as JSON (default) or flattened CSV.  The JSON document
echoes the parsed configuration, so a rerun from the echoed config is
byte-identical.  Exit codes: 0 success, 2 bad parameters, 3 resource
budget exceeded.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import LENGTH_BUDGET, ParameterError, ResourceError

# At exit, finalization runs full cyclic collections, each a pass over every
# tracked object (over 20,000 once numpy is loaded).  Freezing the heap
# first moves what is alive then out of their reach.  The hook runs only
# when the interpreter exits, after the result is written; reference
# counting still frees what module teardown releases, and no file or
# thread of the package waits on a collection.
atexit.register(gc.freeze)

# Each subcommand imports the circlelab modules it runs in its own branch
# of `_run`, so that a process compiles and loads only those.


def _parse_poly(text: str):
    """Comma-separated coefficients b_0,b_1,...,b_d (ascending powers)."""
    from .arith import IntPoly
    try:
        return IntPoly([int(c) for c in text.split(",")])
    except ValueError as exc:
        raise ParameterError(f"bad polynomial {text!r}: {exc}") from None


def _parse_rational(text: str) -> Fraction:
    """Exact parse of 'a/q', an integer, or a decimal literal."""
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from None


def _parse_list(text: str, kind):
    """Comma-separated values, each parsed by `kind` (int or complex)."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(f"bad {kind.__name__} list {text!r}") from None


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # NaN and +-inf are not valid JSON
    return obj


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(document: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        import csv
        import io
        rows = []
        _flatten("", document, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {out_path!r}: "
                                 f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _report_result(report):
    return {"scales": list(report.scales), "values": list(report.values),
            "fit": {"C": report.constant, "slope": report.slope,
                    "residual": report.residual}}


def _add_common(sub, poly=True, seed=False):
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    if seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed of the random draws, >= 0")
    if poly:
        sub.add_argument("--poly", default="0,0,1",
                         help="coefficients b_0,b_1,...,b_d")


def _add_scale_range(sub):
    sub.add_argument("--delta", type=float, default=0.05)
    sub.add_argument("--n-min", type=int, default=8)
    sub.add_argument("--n-max", type=int, default=12)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circlelab")
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("weyl-sum", help="normalized exponential sum")
    _add_common(s)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--alpha", required=True)

    s = subs.add_parser("gauss", help="complete congruence weight S_P^i(a/q)")
    _add_common(s)
    s.add_argument("--frac", required=True)
    s.add_argument("--pre-interval", type=int, default=0)

    s = subs.add_parser("arcs", help="major/minor classification")
    _add_common(s)
    s.add_argument("--alpha", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", type=float, default=0.05)

    s = subs.add_parser("variation", help="r-variation of a value list")
    _add_common(s, poly=False)
    s.add_argument("--values", required=True)
    s.add_argument("--indices", default=None)
    s.add_argument("--r", type=float, required=True)
    s.add_argument("--flavor", choices=["full", "long", "short"],
                   default="full")

    s = subs.add_parser("average", help="variation of cyclic-group averages")
    _add_common(s, seed=True)
    s.add_argument("--modulus", type=int, required=True)
    s.add_argument("--scales", required=True,
                   help="comma-separated increasing N values")
    s.add_argument("--r", type=float, default=2.0)

    s = subs.add_parser("entropy", help="separated-frequency variation bound")
    _add_common(s, poly=False, seed=True)
    s.add_argument("--num-freqs", type=int, required=True)
    s.add_argument("--sigma", type=float, default=2.0)
    s.add_argument("--r", type=float, default=3.0)

    s = subs.add_parser("smooth", help="smooth multiplier-family bound")
    _add_common(s, poly=False, seed=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--A", type=float, default=1.0)
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--trials", type=int, default=8)

    s = subs.add_parser("est", help="multiplier smoothness/decay experiments")
    _add_common(s, seed=True)
    _add_scale_range(s)
    s.add_argument("--samples", type=int, default=64,
                   help="minor-arc samples per scale, >= 16")

    s = subs.add_parser("main-decomp", help="arc-decomposition experiment")
    _add_common(s, seed=True)
    _add_scale_range(s)
    s.add_argument("--nu-floor", type=float, default=0.1)
    s.add_argument("--modulus", type=int, default=1 << 16)

    s = subs.add_parser("counterexample", help="2-variation lower-bound ladder")
    _add_common(s, poly=False, seed=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--R", type=int, required=True)
    s.add_argument("--dry-run", action="store_true",
                   help="validate and print derived parameters only")
    s.add_argument("--sample-count", type=int, default=4096)

    s = subs.add_parser("search-coeffs", help="optimize ladder coefficients")
    _add_common(s, poly=False, seed=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--iterations", type=int, default=200)
    s.add_argument("--restarts", type=int, default=2)

    return p


def _run(args) -> dict:
    # --poly is checked before any other argument that _run parses
    P = _parse_poly(args.poly) if "poly" in args else None
    results = []
    if args.command == "weyl-sum":
        from .expsum import weyl_sum
        val = weyl_sum(P, args.t, _parse_rational(args.alpha))
        results.append({"name": "weyl_sum",
                        "inputs": {"poly": args.poly, "t": args.t,
                                   "alpha": args.alpha},
                        "value": val})
    elif args.command == "gauss":
        from .arith import ReducedFraction
        from .expsum import gauss_weight
        fr = _parse_rational(args.frac)
        frac = ReducedFraction.make(fr.numerator, fr.denominator)
        val = gauss_weight(P, frac, args.pre_interval)
        results.append({"name": "gauss_weight",
                        "inputs": {"poly": args.poly, "frac": str(frac),
                                   "pre_interval": args.pre_interval},
                        "value": val})
    elif args.command == "arcs":
        from .arith import ArcParams, arc_labels
        params = ArcParams(args.n, args.delta, P.degree)
        alpha = _parse_rational(args.alpha)
        arcs = arc_labels(P, params, [alpha.numerator], alpha.denominator)
        value = {"kind": "minor", "fraction": None, "s": None,
                 "pre_interval": None}
        if arcs.major[0]:
            a, q = int(arcs.a[0]), int(arcs.q[0])
            value = {"kind": "major", "fraction": f"{a}/{q}",
                     "s": q.bit_length() - 1,
                     "pre_interval": P.leading * (alpha % 1) // 1}
        results.append({"name": "arc_label",
                        "inputs": {"poly": args.poly, "alpha": args.alpha,
                                   "n": args.n, "delta": args.delta},
                        "value": value})
    elif args.command == "variation":
        from .varnorm import (IndexedSeq, long_variation, short_variation,
                              variation)
        vals = _parse_list(args.values, complex)
        if args.indices:
            seq = IndexedSeq(_parse_list(args.indices, int), vals)
        else:
            seq = IndexedSeq.from_values(vals)
        fn = {"full": variation, "long": long_variation,
              "short": short_variation}[args.flavor]
        res = fn(seq, args.r)
        entry = {"name": f"{args.flavor}_variation",
                 "inputs": {"values": args.values, "r": args.r,
                            "indices": args.indices},
                 "value": res.value,
                 "optimal_subsequence": list(res.optimal_subsequence)}
        if args.flavor == "short":
            # the flat chain cannot show where one block's chain ends
            entry["block_subsequences"] = [list(b)
                                           for b in res.block_subsequences]
        results.append(entry)
    elif args.command == "average":
        import numpy as np

        from .expsum import check_count
        from .spectral import _complex_normal, variation_experiment
        scales = _parse_list(args.scales, int)
        M = check_count(args.modulus, "modulus M", LENGTH_BUDGET)
        f = _complex_normal(np.random.default_rng(args.seed), M)
        val = variation_experiment(f, P, scales, args.r)
        results.append({"name": "average_variation",
                        "inputs": {"poly": args.poly, "modulus": args.modulus,
                                   "scales": args.scales, "r": args.r},
                        "value": val})
    elif args.command == "entropy":
        from .verify import verify_entropy
        rep = verify_entropy(args.num_freqs, args.sigma, args.r, args.seed)
        results.append({"name": rep.name,
                        "inputs": {"num_freqs": args.num_freqs,
                                   "sigma": args.sigma, "r": args.r},
                        **_report_result(rep)})
    elif args.command == "smooth":
        from .verify import verify_smooth
        rep = verify_smooth(args.N, args.A, args.a, args.trials, args.seed)
        results.append({"name": rep.name,
                        "inputs": {"N": args.N, "A": args.A, "a": args.a,
                                   "trials": args.trials},
                        **_report_result(rep)})
    elif args.command == "est":
        from .verify import verify_est
        for rep in verify_est(P, args.n_min, args.n_max, args.delta,
                              args.samples, args.seed):
            results.append({"name": rep.name, "inputs": {"poly": args.poly},
                            **_report_result(rep)})
    elif args.command == "main-decomp":
        from .verify import verify_main_decomposition
        rep = verify_main_decomposition(P, args.modulus, args.n_min,
                                        args.n_max, args.delta, args.seed,
                                        args.nu_floor)
        results.append({"name": rep.minor.name,
                        "inputs": {"poly": args.poly,
                                   "modulus": args.modulus},
                        **_report_result(rep.minor)})
        results.append({"name": "main_decomposition_annulus",
                        "inputs": {"poly": args.poly,
                                   "modulus": args.modulus},
                        "offsets": list(rep.annulus_offsets),
                        "values": list(rep.annulus_values),
                        "decay_exponent": rep.annulus_decay_exponent,
                        "reassembly": {"lhs": rep.reassembly_lhs,
                                       "rhs": rep.reassembly_rhs}})
    elif args.command == "counterexample":
        from .torus import build_sequences, check_samples
        params = build_sequences(args.L, args.R)
        # refused in a dry run too, as the run refuses them before its search
        check_samples(params, args.sample_count)
        coupling, closure = params.identity_defects()
        entry = {"name": "counterexample_parameters",
                 "inputs": {"L": args.L, "R": args.R},
                 "value": {"k": list(params.k), "j": list(params.j),
                           "coupling_defects": list(coupling),
                           "closure_defects": list(closure)}}
        results.append(entry)
        if not args.dry_run:
            from .torus import eta_error, eta_multipliers, search_coefficients
            # the multipliers' tails are refused before the search, not after
            W = eta_multipliers(params)
            coeffs, obj = search_coefficients(args.L, 200, 0, args.seed)
            sup, rms = eta_error(coeffs, params, args.sample_count,
                                 args.seed, W)
            results.append({"name": "counterexample_eta",
                            "inputs": {"L": args.L, "R": args.R,
                                       "sample_count": args.sample_count},
                            "value": {"eta_sup": sup, "eta_rms": rms,
                                      "objective": obj,
                                      "coefficients": list(coeffs)}})
    elif args.command == "search-coeffs":
        from .torus import search_coefficients
        coeffs, obj = search_coefficients(args.L, args.iterations,
                                          args.restarts, args.seed)
        results.append({"name": "search_coefficients",
                        "inputs": {"L": args.L,
                                   "iterations": args.iterations,
                                   "restarts": args.restarts},
                        "value": {"coefficients": list(coeffs),
                                  "objective": obj}})
    else:  # pragma: no cover - argparse enforces the choices
        raise ParameterError(f"unknown command {args.command!r}")
    return {"results": results}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy refuses a negative seed only with a traceback, mid-run
        if getattr(args, "seed", 0) < 0:
            raise ParameterError(f"--seed must be >= 0, not {args.seed}")
        body = _run(args)
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("out", "format")}
        document = _jsonable({
            "config": config,
            "results": body["results"],
            "provenance": {"seed": getattr(args, "seed", None),
                           "version": __version__},
        })
        _emit(document, args.format, args.out)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
