"""Cross-identity verification for one type: every check the machinery
supports, each reported as pass/fail/warn/skip."""

from __future__ import annotations

from dataclasses import dataclass

from . import blowup, chevalley, cohomology, graph, tau, weyl
from .cartan import (
    LieType,
    cartan_matrix,
    compact_dual_data,
    dual_type,
    positive_root_count,
    same_up_to_relabeling,
    weyl_order,
)
from .errors import FlagcohError, UnsupportedType
from .intmat import transpose
from .qpoly import QPoly, divide_exact, product, q_power_minus_one
from .weyl import DEFAULT_CAP, enumerate_group, longest_element, positive_roots

# peak RSS per element of W through assign_signs is 1.17-1.19 KB on A8, B7, C7
# and D7, 1.52 KB on E7.  No type within the default cap has 645,120 < |W| <
# 2,903,040, so any budget from about 1 GB to 4 GB admits the same types.
_SOLVE_BYTES = 1536
_SOLVE_BUDGET = 2 << 30

_KNOWN_COMPONENTS = {"A2": 4, "A3": 10, "B3": 17, "D4": 35, "F4": 100, "D5": 95, "E6": 307}


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | warn | skip
    detail: str


def _betti_from_degrees(degrees) -> tuple[int, ...]:
    """Coefficients of prod (1 + t^{2 d_i - 1}), the exterior algebra's Poincare series."""
    poly = product(QPoly({0: 1, 2 * d - 1: 1}) for d in degrees)
    return tuple(poly.coeffs.get(e, 0) for e in range(poly.degree + 1))


def _height_product(cartan) -> tuple[int, ...]:
    """Coefficients of sum_w q^{l(w)} by Macdonald's product over the positive
    roots, prod (q^{ht a + 1} - 1) / (q^{ht a} - 1)."""
    heights = [sum(root) for root in positive_roots(cartan)]
    poly = divide_exact(
        product(q_power_minus_one(h + 1) for h in heights),
        product(q_power_minus_one(h) for h in heights),
    )
    return tuple(poly.coeffs.get(e, 0) for e in range(poly.degree + 1))


def run_checks(t, cap: int | None = None) -> list[CheckResult]:
    t = LieType.parse(t)
    out: list[CheckResult] = []
    ok = lambda name, detail="": out.append(CheckResult(name, "pass", detail))
    fail = lambda name, detail="": out.append(CheckResult(name, "fail", detail))
    warn = lambda name, detail="": out.append(CheckResult(name, "warn", detail))
    skip = lambda name, detail="": out.append(CheckResult(name, "skip", detail))

    l = t.rank
    cartan = cartan_matrix(t)
    data = compact_dual_data(t)

    # static table identities
    dim_ok = data.dim == sum(2 * d - 1 for d in data.degrees)
    r_ok = data.r == sum(d - 1 for d in data.degrees)
    (ok if dim_ok and r_ok else fail)(
        "dual-table-invariants", f"dim={data.dim} r={data.r} degrees={data.degrees}"
    )
    dual_ok = same_up_to_relabeling(
        cartan_matrix(dual_type(t)).entries, transpose(cartan.entries)
    )
    (ok if dual_ok else fail)("dual-transpose", str(dual_type(t)))

    # longest element and blow-up count at w*
    wstar = longest_element(t)
    n_pos = positive_root_count(t)
    (ok if wstar.length == n_pos else fail)(
        "longest-length", f"{wstar.length} vs positive roots {n_pos}"
    )
    eta_star = blowup.longest_blowups(t)
    (ok if eta_star == sum(data.degrees) else fail)(
        "blowups-at-longest", f"{eta_star} vs sum of degrees {sum(data.degrees)}"
    )

    minus = blowup.all_minus(l)
    table = blowup.pq_table(t)
    p = table[minus]
    closed = chevalley.order_poly(t).reduced
    (ok if p == closed else fail)("pq-closed-form", f"p(q) = {p}")
    (ok if p.degree == eta_star else fail)("pq-degree", f"{p.degree}")
    (ok if p(1) == 0 else fail)("pq-at-one", f"{p(1)}")
    bad = sum(1 for eps, poly in table.items() if eps != minus and not poly.is_zero())
    (ok if not bad else fail)(
        "pq-vanishing", f"{bad} of {len(table) - 1} other sign vectors nonzero"
    )

    dist = weyl.length_distribution(t)
    order = weyl_order(t)
    (ok if sum(dist) == order else fail)("weyl-order", f"{sum(dist)}")
    (ok if dist == dist[::-1] else fail)("length-palindrome", f"{dist}")
    (ok if blowup.restricted_blowup_poly(t, minus) == p else fail)(
        "restricted-sum", f"|W-| = {blowup.stable_count(t, minus)}"
    )

    cap = DEFAULT_CAP if cap is None else cap
    if order <= cap:
        # eta(w*) = eta(w* w) + eta(w), with w* w read off the left permutations
        group = enumerate_group(t, cap)
        counts = blowup.chain_walk(group, minus)[0]
        dual = group.left_product(group.word(group.order - 1))
        (ok if (counts[dual] + counts == counts[-1]).all() else fail)("poincare-duality")

        solve = order * _SOLVE_BYTES
        if solve > _SOLVE_BUDGET:
            skip("cohomology", f"estimate {solve >> 20} MB beyond budget {_SOLVE_BUDGET >> 20} MB")
        else:
            g = graph.build_graph(group, minus)
            known = _KNOWN_COMPONENTS.get(str(t))
            ncomp = len(graph.components(g))
            if known is not None:
                (ok if ncomp == known else fail)("graph-components", f"{ncomp} vs {known}")
            else:
                ok("graph-components", f"{ncomp} (no reference value)")
            neg, want = graph.negative_components(g), 2**data.g
            (ok if neg == want else warn)("negative-components", f"{neg} vs 2^g = {want}")
            (warn if len(g.cond_c_failures) else ok)(
                "cover-condition-redundancy", f"{len(g.cond_c_failures)} exceptions"
            )
            try:
                groups = cohomology.cohomology_of_complex(cohomology.assign_signs(g))
            except FlagcohError as e:
                fail("cohomology", str(e))
            else:  # only these three read the groups
                betti = groups.free_ranks()
                expected_betti = _betti_from_degrees(data.degrees)
                (ok if tuple(betti) == expected_betti else fail)("rational-betti", f"{betti}")
                (ok if sum(betti) == 2**data.g else fail)("total-betti", f"{sum(betti)}")
                divisors = {d for tors in groups.torsion() for d in tors}
                (ok if divisors <= {2} else warn)(
                    "torsion-exponent-two", f"divisors {sorted(divisors)}"
                )

    (ok if cohomology.mod2_dims(t) == _height_product(cartan) else fail)(
        "mod2-dims", f"length counts vs the height product over the positive roots ({n_pos})"
    )
    try:
        mult = tau.singularity_multiplicity(t)
        (ok if mult == eta_star else fail)("tau-multiplicity", f"{mult} vs {eta_star}")
    except UnsupportedType as e:
        skip("tau-multiplicity", str(e))

    try:
        report = chevalley.verify_order(t, chevalley.PrimeField(5))
        (ok if report["match"] else fail)(
            "chevalley-order", f"{report['closed_form']} vs {report['brute_force']}"
        )
    except UnsupportedType as e:
        skip("chevalley-order", str(e))

    if order > cap:
        skip("enumeration", f"|W|={order} beyond cap={cap}")
    return out


def all_passed(results) -> bool:
    return all(r.status != "fail" for r in results)
