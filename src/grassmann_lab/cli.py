"""Command-line driver.

Commands: build, verify, coreness, qbinom, scan.  All reports go to
stdout as UTF-8; errors go to stderr.  Exit codes: 0 all checks pass or
report produced, 1 a verification check failed, 2 a resource bound was
hit, 3 invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .arith import prime_power_base
from .config import (
    BUILD_BOUND,
    CLIQUE_ENUM_BOUND,
    MAX_FIELD_SIZE,
    MAX_QBINOM_DEGREE,
    MAX_SCAN_WORK,
    SEARCH_BOUND,
    BoundExceeded,
    check_decimal_digits,
)
from .coreness import core_test
from .field import make_field
from .fixture import load_fixture, verify_fixture_partition
from .graph import (
    all_maximal_cliques_bruteforce,
    build_graph,
    classify_maximal_cliques,
    dual_map_check,
    verify_clique_lemmas,
)
from .qpoly import (
    gaussian_binomial_int,
    gaussian_binomial_poly,
    h_integrality,
    h_report,
    knuth_wilf_exponents,
    scan_core_threshold,
)
from .report import (
    census_dict,
    check_scan_digits,
    coreness_report_dict,
    dual_report_dict,
    fixture_report_dict,
    graph_to_dot,
    graph_to_json_dict,
    graph_to_text,
    h_report_dict,
    lemma_report_dict,
    params_dict,
    poly_dict,
    scan_report_dict,
    to_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BOUND = 2
EXIT_INVALID = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _field_for(q: int):
    if q > MAX_FIELD_SIZE:  # before factoring q, which takes up to sqrt(q) trial divisions
        raise ValueError(f"field too large: q = {q} > {MAX_FIELD_SIZE}")
    pe = prime_power_base(q)
    if pe is None:
        raise ValueError(f"--q must be a prime power, got {q}")
    return make_field(*pe)


def _emit(data) -> None:
    sys.stdout.write(to_json(data) + "\n")


def cmd_build(args) -> int:
    spec = _field_for(args.q)
    G = build_graph(spec, args.n, args.m, max_vertices=args.max_vertices)
    if args.format == "json":
        _emit(graph_to_json_dict(G))
    elif args.format == "dot":
        sys.stdout.write(graph_to_dot(G))
    else:
        sys.stdout.write(graph_to_text(G))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _field_for(args.q)
    # the lemma checks compare every pair of star and top centres; build_graph
    # rejects m outside 1..n-1 as invalid input
    centres = sum(gaussian_binomial_int(args.n, k, args.q) for k in (args.m - 1, args.m + 1))
    if 1 <= args.m < args.n and centres > args.brute_bound:
        check_decimal_digits(
            centres, f"the star and top centre count of J_{args.q}({args.n},{args.m})"
        )
        raise BoundExceeded(
            f"clique catalogs too large for the lemma checks: J_{args.q}({args.n},{args.m}) "
            f"has {centres} star and top centres > {args.brute_bound}"
        )
    G = build_graph(spec, args.n, args.m, max_vertices=args.brute_bound)
    cliques = all_maximal_cliques_bruteforce(G, bound=args.brute_bound)
    census = classify_maximal_cliques(G, cliques)
    lemmas = verify_clique_lemmas(G)
    dual = dual_map_check(G) if G.n == 2 * G.m else None
    ok = census.ok and lemmas.ok and (dual is None or dual.ok)
    data = {
        "params": params_dict(G),
        "cliques": census_dict(census),
        "lemmas": {**lemma_report_dict(lemmas), "dual": dual_report_dict(dual)},
        "ok": ok,
    }
    if args.format == "text":
        status = "pass" if ok else "FAIL"
        sys.stdout.write(
            f"J_{args.q}({args.n},{args.m}): {census.total} maximal cliques "
            f"({census.star_count} stars, {census.top_count} tops); checks {status}\n"
        )
    else:
        _emit(data)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_coreness(args) -> int:
    fx = None
    if args.fixture:  # read it before the search, so a bad path fails at once
        try:
            fx = load_fixture(args.fixture)
        except OSError as exc:
            raise ValueError(f"cannot read fixture: {exc}") from exc
    rep = core_test(args.n, args.m, args.q, search_bound=args.brute_bound)
    fxrep = None
    if fx is not None:
        # a witness carries the graph core_test built
        G = rep.witness.graph if rep.witness else build_graph(_field_for(args.q), args.n, args.m)
        fxrep = verify_fixture_partition(G, fx)
    ok = fxrep is None or fxrep.ok
    if args.format == "text":
        sys.stdout.write(
            f"J_{args.q}({args.n},{args.m}): verdict {rep.verdict}; "
            + "; ".join(rep.evidence)
            + "\n"
        )
    else:
        data = {
            "params": {"q": args.q, "n": args.n, "m": args.m},
            "coreness": coreness_report_dict(rep),
        }
        if fxrep is not None:
            data["fixture"] = fixture_report_dict(fxrep)
        _emit(data)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_qbinom(args) -> int:
    with_h = 2 <= args.m and 2 * args.m <= args.n
    degree = args.m * (args.n - args.m)
    if with_h and degree > MAX_QBINOM_DEGREE:
        raise BoundExceeded(
            f"Gaussian binomial too large for the h report: [{args.n},{args.m}]_q has "
            f"degree {degree} > {MAX_QBINOM_DEGREE}"
        )
    if args.at is not None and prime_power_base(args.at) is None:
        raise ValueError(f"--at must be a prime power, got {args.at}")
    if with_h and args.at is not None:
        h_at = h_integrality(args.n, args.m, args.at)
        if not isinstance(h_at, int):
            check_decimal_digits(h_at.numerator, f"h({args.at}) for (n={args.n}, m={args.m})")
    if with_h and args.q_max is not None:
        _check_scan(args.n, args.m, args.q_max)
    poly = gaussian_binomial_poly(args.n, args.m)
    exps = knuth_wilf_exponents(args.n, args.m)
    data = {
        "params": {"n": args.n, "m": args.m},
        "qbinom": {
            "exponents": {str(t): e for t, e in sorted(exps.exponents.items())},
            "polynomial": poly_dict(poly),
        },
    }
    if args.at is not None:
        value_at = gaussian_binomial_int(args.n, args.m, args.at)
        data["qbinom"]["value_at"] = {"q": args.at, "value": value_at}
    if with_h:
        hrep = h_report(args.n, args.m)
        data["qbinom"]["h"] = h_report_dict(hrep)
        if args.at is not None:
            value = h_at if isinstance(h_at, int) else f"{h_at.numerator}/{h_at.denominator}"
            data["qbinom"]["h"]["value_at"] = {"q": args.at, "value": value}
        if args.q_max is not None:
            scan = scan_core_threshold(args.n, args.m, args.q_max)
            data["qbinom"]["scan"] = scan_report_dict(scan)
    if args.format == "text":
        lines = [f"[{args.n},{args.m}]_q = {poly}"]
        lines.append(
            "cyclotomic exponents: "
            + " ".join(f"Phi_{t}^{e}" for t, e in sorted(exps.exponents.items()))
        )
        if "h" in data["qbinom"]:
            h = data["qbinom"]["h"]
            lines.append(
                f"h = f/g with f = {h['f']['text']}, g = {h['g']['text']}, "
                f"r = {h['r']['text']}, applicable = {h['applicable']}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        if args.at is not None:  # h(q) there is no larger
            check_decimal_digits(value_at, f"[{args.n},{args.m}]_q at q = {args.at}")
        _emit(data)
    return EXIT_OK


def _check_scan(n: int, m: int, q_max: int) -> None:
    """Fail the h scan up to q_max before it runs.

    The scan's work m(n-m) * q_max may not pass MAX_SCAN_WORK.  Its report
    fails if any h(q) numerator is too long to print, so the one at the
    largest prime power is checked here.
    """
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    if m * (n - m) * q_max > MAX_SCAN_WORK:
        raise BoundExceeded(
            f"scan too long: m(n-m) * q_max may be at most {MAX_SCAN_WORK}, so q_max at most "
            f"{MAX_SCAN_WORK // (m * (n - m))} for (n={n}, m={m}), got {q_max}"
        )
    top = next((q for q in range(q_max, 1, -1) if prime_power_base(q)), None)
    if top is not None:
        check_scan_digits(h_integrality(n, m, top).numerator, n, m, q_max)


def cmd_scan(args) -> int:
    _check_scan(args.n, args.m, args.q_max)
    scan = scan_report_dict(scan_core_threshold(args.n, args.m, args.q_max))
    if args.format == "text":
        nonint = sum(1 for e in scan["entries"] if not e["is_integer"])
        sys.stdout.write(
            f"h integrality scan for (n={args.n}, m={args.m}) up to q = {args.q_max}: "
            f"{nonint}/{len(scan['entries'])} prime powers non-integral; "
            f"largest integral q = {scan['largest_integer_q']}\n"
        )
    else:
        _emit({"params": {"n": args.n, "m": args.m}, "qbinom": {"scan": scan}})
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="grassmann-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common_graph(p):
        p.add_argument("--q", type=int, required=True, help="field size (prime power)")
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
        p.add_argument("--m", type=int, required=True, help="subspace dimension")

    p = sub.add_parser("build", help="build a graph and dump it")
    common_graph(p)
    p.add_argument("--format", choices=["json", "text", "dot"], default="text")
    p.add_argument("--max-vertices", type=int, default=BUILD_BOUND)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="exhaustively verify clique structure")
    common_graph(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--brute-bound", type=int, default=CLIQUE_ENUM_BOUND)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coreness", help="core / not-core / undetermined verdict")
    common_graph(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--fixture", type=str, default=None, help="fixture file to verify")
    p.add_argument("--brute-bound", type=int, default=SEARCH_BOUND)
    p.set_defaults(func=cmd_coreness)

    p = sub.add_parser("qbinom", help="Gaussian binomial factorization and h report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--at", type=int, default=None, help="evaluate at this prime power")
    p.add_argument("--q-max", type=int, default=None, help="also scan integrality up to here")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("scan", help="integrality scan of h over prime powers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
