"""Command-line front end: flagcoh <subcommand> ... emitting JSON (or DOT).

Every output is deterministic for a fixed argv: element order is always
(length, matrix key), polynomial coefficients are emitted as decimal
strings, and sign vectors are '+'/'-' strings.  FLAGCOH_CAP overrides the
enumeration cap of the commands that build element tables: `eta`, `graph`,
`cohomology` over Z or Q, and `verify`.

Each handler cmd_<name>(args, t, eps) gets the parsed LieType and sign
vector (None when the subcommand has no --type or --eps) and returns
(body, ok): the export text for `graph`, else the payload fields that
follow the command/type/eps header.  `main` parses both flags, builds
that header, writes the output once and exits 0 when ok, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, blowup, chevalley, cohomology, graph, tau, verify
from .cartan import LieType, compact_dual_data, weyl_order
from .errors import FlagcohError
from .flow import SpectralData, count_zeros, default_window, tau_signal
from .qpoly import QPoly, factor_q_minus_form
from .weyl import enumerate_group, length_distribution, longest_element, word_label


def _cap(args) -> int | None:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("FLAGCOH_CAP")
    return int(env) if env else None


def _poly_pairs(p: QPoly) -> list[list]:
    return [[e, str(c)] for e, c in p.items()]


def _factored(p: QPoly) -> str | None:
    degrees = factor_q_minus_form(p)
    if degrees is None:
        return None
    parts = []
    for d in sorted(set(degrees)):
        m = degrees.count(d)
        base = f"(q^{d}-1)" if d > 1 else "(q-1)"
        parts.append(base if m == 1 else f"{base}^{m}")
    return "*".join(parts) if parts else "1"


def _emit(body, out_path: str | None) -> None:
    text = body if isinstance(body, str) else json.dumps(body, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_weyl(args, t, eps):
    if args.emit == "word-of-longest":
        return {"word_of_longest": list(longest_element(t).word)}, True
    if args.emit == "order":
        return {"order": weyl_order(t)}, True
    return {"lengths": length_distribution(t)}, True


def cmd_eta(args, t, eps):
    group = enumerate_group(t, _cap(args))
    table = blowup.blowup_table(group, eps)
    values = [
        {
            "word": word_label(group.word(i)),
            "length": group.lengths[i],
            "eta": table.counts[i],
        }
        for i in group.canonical_order().tolist()
    ]
    return {"values": values, "max": table.max_value}, True


def cmd_pq(args, t, eps):
    p = blowup.blowup_poly(t, eps)
    body = {"poly": _poly_pairs(p)}
    factored = _factored(p)
    if factored is not None:
        body["factored"] = factored
    return body, True


def cmd_graph(args, t, eps):
    g = graph.build_graph(enumerate_group(t, _cap(args)), eps)
    return graph.export_graph(g, args.format), True


def cmd_cohomology(args, t, eps):
    body = {"ring": args.ring}
    if args.ring == "F2":
        if args.cap is not None:
            raise ValueError("--cap does not apply to --ring F2")
        body["dims"] = list(cohomology.mod2_dims(t))
    else:
        groups = cohomology.integral_cohomology(enumerate_group(t, _cap(args)), eps)
        if args.ring == "Q":
            body["betti"] = list(groups.free_ranks())
        else:
            body["groups"] = [
                {"free_rank": free, "torsion": list(tors)}
                for free, tors in groups.groups
            ]
    return body, True


def cmd_tau(args, t, eps):
    family = tau.nilpotent_tau_family(t)
    body = {"emit": args.emit}
    if args.emit == "multiplicity":
        body["multiplicity"] = family.multiplicity()
    elif args.emit == "min-degrees":
        body["min_degrees"] = list(family.min_degrees())
    else:
        body["taus"] = [
            {
                "kind": entry.kind,
                "vars": list(entry.poly.vars),
                "terms": [
                    {
                        "exponents": list(exp),
                        "numerator": str(c.numerator),
                        "denominator": str(c.denominator),
                    }
                    for exp, c in entry.poly.sorted_terms()
                ],
            }
            for entry in family.entries
        ]
    return body, True


def cmd_chevalley(args, t, eps):
    data = compact_dual_data(t)
    op = chevalley.order_poly(t)
    body = {
        "dual_compact": data.name,
        "degrees": list(data.degrees),
        "r": op.r,
        "reduced_poly": _poly_pairs(op.reduced),
        "full_poly": _poly_pairs(op.full()),
    }
    if args.verify:
        if args.prime is None:
            raise ValueError("--verify needs --prime")
        body["verify"] = chevalley.verify_order(t, chevalley.PrimeField(args.prime))
        return body, body["verify"]["match"]
    if args.prime is not None:
        if chevalley.prime_base(args.prime) is None:
            raise ValueError(f"--prime must be a prime power q >= 2, got {args.prime}")
        body["order_at_prime"] = op.order_at(args.prime)
    return body, True


def cmd_flow(args, t, eps):
    if args.rank < 1:
        raise ValueError(f"--rank must be >= 1, got {args.rank}")
    values = [float(x) for x in args.spectrum.split(",")]
    if len(values) != args.rank + 1:
        raise ValueError(f"rank {args.rank} needs {args.rank + 1} eigenvalues")
    spec = SpectralData.make(values)
    window = default_window(spec) if args.window == "auto" else float(args.window)
    per = [
        count_zeros(tau_signal(spec, j), window, args.samples)
        for j in range(1, spec.rank + 1)
    ]
    eta_star = blowup.longest_blowups(LieType("A", spec.rank))
    match = sum(per) == eta_star
    body = {
        "type": f"A{spec.rank}",
        "spectrum": list(spec.eigenvalues),
        "window": window,
        "per_tau_zeros": per,
        "total": sum(per),
        "eta_wstar": eta_star,
        "match": match,
    }
    return body, match


def cmd_verify(args, t, eps):
    results = verify.run_checks(t, _cap(args))
    for r in results:
        line = f"{r.status.upper():5s} {t} {r.name}"
        if r.detail:
            line += f" ({r.detail})"
        print(line, file=sys.stderr)
    passed = verify.all_passed(results)
    checks = [{"name": r.name, "status": r.status, "detail": r.detail} for r in results]
    return {"checks": checks, "passed": passed}, passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcoh",
        description="Blow-up combinatorics of Toda flows: counts, graphs, "
        "cohomology, tau degrees, Chevalley orders.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        if flags.get("type", True):
            p.add_argument("--type", required=True, help="Lie type, e.g. A3, D4, E8")
        if flags.get("eps"):
            p.add_argument("--eps", required=True, help="sign vector like '--+', or rank many signs")
        if flags.get("cap", True):
            p.add_argument("--cap", type=int, help="enumeration cap override")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.set_defaults(fn=fn)
        return p

    p = add("weyl", cmd_weyl, cap=False)
    p.add_argument("--emit", choices=["lengths", "order", "word-of-longest"], default="lengths")
    add("eta", cmd_eta, eps=True)
    add("pq", cmd_pq, eps=True, cap=False)
    p = add("graph", cmd_graph, eps=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p = add("cohomology", cmd_cohomology, eps=True)
    p.add_argument("--ring", choices=["Z", "Q", "F2"], default="Z")
    p = add("tau", cmd_tau, cap=False)
    p.add_argument("--emit", choices=["min-degrees", "multiplicity", "poly"], default="min-degrees")
    p = add("chevalley", cmd_chevalley, cap=False)
    p.add_argument("--prime", type=int)
    p.add_argument("--verify", action="store_true")
    p = add("flow", cmd_flow, type=False, cap=False)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--spectrum", required=True, help="comma-separated eigenvalues")
    p.add_argument("--window", default="auto")
    p.add_argument("--samples", type=int, default=4001)
    add("verify", cmd_verify)
    return parser


def _stash_raw_values(argv: list[str]):
    """Hide '--eps --' and '--spectrum -3,...' values behind placeholders.

    Sign vectors and negative eigenvalue lists are legitimate values that
    argparse would otherwise swallow as option syntax.
    """
    stash: dict[str, str] = {}
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        handled = False
        for name in ("--eps", "--spectrum"):
            raw = None
            if tok == name and i + 1 < len(argv):
                raw = argv[i + 1]
                i += 2
            elif tok.startswith(name + "="):
                raw = tok[len(name) + 1 :]
                i += 1
            if raw is not None:
                key = f"@{len(stash)}"
                stash[key] = raw
                out.append(f"{name}={key}")
                handled = True
                break
        if not handled:
            out.append(tok)
            i += 1
    return out, stash


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv, stash = _stash_raw_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    for attr in ("eps", "spectrum"):
        value = getattr(args, attr, None)
        if value in stash:
            setattr(args, attr, stash[value])
    try:
        t = LieType.parse(args.type) if hasattr(args, "type") else None
        eps = blowup.sign_vector(args.eps, t.rank) if hasattr(args, "eps") else None
        body, ok = args.fn(args, t, eps)
        if not isinstance(body, str):
            header = {"command": args.command}
            if t is not None:
                header["type"] = str(t)
            if eps is not None:
                header["eps"] = blowup.format_signs(eps)
            body = header | body
        _emit(body, args.out)
        return 0 if ok else 1
    except FlagcohError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
