"""Sign dynamics of the Toda flow: blow-up counts, their tables and p_eps(q).

A sign vector eps in {+,-}^l records sgn(a_i).  A simple reflection s_i
flips component j exactly when C[j][i] is odd and eps_i is minus (only the
parity of the Cartan entry matters).  Walking a reduced word of w from eps
and counting the letters hit while their component is minus gives the
blow-up count; the final vector of the walk is w^{-1} eps.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .cartan import CartanMatrix, LieType, cartan_matrix, positive_root_count
from .qpoly import QPoly
from .weyl import WeylElement, WeylGroup, _coset_chain, _letter, enumerate_group, longest_element

Signs = tuple[int, ...]  # entries are +1 or -1

_CHAR = {"+": 1, "-": -1}


def sign_vector(spec, rank: int | None = None) -> Signs:
    """Normalize '-+-' strings or +-1 sequences into a sign tuple."""
    if isinstance(spec, str):
        try:
            eps = tuple(_CHAR[ch] for ch in spec.strip())
        except KeyError:
            raise ValueError(f"sign vector may only contain '+'/'-': {spec!r}") from None
    else:
        eps = tuple(spec)
        if any(x not in (1, -1) for x in eps):
            raise ValueError(f"sign entries must be +1/-1: {spec!r}")
        eps = tuple(int(x) for x in eps)
    if rank is not None and len(eps) != rank:
        raise ValueError(f"sign vector {format_signs(eps)!r} has length {len(eps)}, expected {rank}")
    return eps


def format_signs(eps: Signs) -> str:
    return "".join("+" if x > 0 else "-" for x in eps)


def all_minus(l: int) -> Signs:
    return (-1,) * l


def all_sign_vectors(l: int):
    """All 2^l sign vectors, all-minus first, in deterministic order."""
    return list(itertools.product((-1, 1), repeat=l))


def reflect_signs(i: int, eps: Signs, cartan: CartanMatrix) -> Signs:
    """Action of s_i on signs: eps_j -> eps_j * eps_i^{C[j][i]}."""
    k = _letter(i, cartan.rank)
    eps = sign_vector(eps, cartan.rank)
    if eps[k] == 1:
        return eps
    return tuple(-x if cartan[j][k] % 2 else x for j, x in enumerate(eps))


def _word_of(w) -> tuple[int, ...]:
    return w.word if isinstance(w, WeylElement) else tuple(w)


def blowup_count(w, eps, cartan: CartanMatrix) -> int:
    """Blow-ups along a reduced word of w, walked left to right from eps."""
    eps = sign_vector(eps, cartan.rank)
    count = 0
    for i in _word_of(w):
        if eps[_letter(i, cartan.rank)] == -1:
            count += 1
        eps = reflect_signs(i, eps, cartan)
    return count


def dual_blowup_count(w, eps, cartan: CartanMatrix) -> int:
    """Blow-up count for the transposed Cartan matrix (the dual system)."""
    return blowup_count(w, eps, cartan.transposed())


@dataclass
class BlowupTable:
    """Blow-up counts and accumulated sign vectors for every group element."""

    group: WeylGroup
    eps: Signs
    counts: tuple[int, ...]
    final_signs: tuple[Signs, ...]

    def __getitem__(self, w) -> int:
        return self.counts[self.group.element_index(w)]

    @property
    def max_value(self) -> int:
        return max(self.counts)

    def value_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))


def _lie_type(g) -> LieType:
    return g.lie_type if isinstance(g, WeylGroup) else LieType.parse(g)


def _coerce_group(group_or_type) -> WeylGroup:
    if isinstance(group_or_type, WeylGroup):
        return group_or_type
    return enumerate_group(group_or_type)


def blowup_table(group_or_type, eps) -> BlowupTable:
    """Counts and final sign vectors for all elements at once (chain_walk)."""
    group = _coerce_group(group_or_type)
    eps = sign_vector(eps, group.rank)
    return BlowupTable(group, eps, *_as_tuples(*chain_walk(group, eps), group.rank))


def chain_walk(group: WeylGroup, eps: Signs) -> tuple[np.ndarray, np.ndarray]:
    """Every element's blow-up count and final sign code from eps, walking the
    chain digits w = u_l ... u_1 through each level's tables: count +=
    eta(u_k, x), x = final(u_k, x)."""
    x = np.full(group.order, _code(eps))
    counts = np.zeros(group.order, np.int64)
    for level, u in group.chain_digits():
        counts += level.eta[u, x]
        x = level.final[u, x]
    return counts, x


def _as_tuples(counts: np.ndarray, codes: np.ndarray, l: int):
    """chain_walk's arrays as (counts, final sign vectors) tuples."""
    signs = [_signs(code, l) for code in range(1 << l)]
    return tuple(counts.tolist()), tuple(map(signs.__getitem__, codes.tolist()))


def _code(eps: Signs) -> int:
    """Sign code of eps: bit j set iff eps_{j+1} is minus."""
    return sum(1 << j for j, x in enumerate(eps) if x == -1)


def _signs(code: int, l: int) -> Signs:
    return tuple(-1 if code >> j & 1 else 1 for j in range(l))


def blowup_poly(group_or_type, eps) -> QPoly:
    """Alternating sum (-1)^{l(w*)} sum_w (-1)^{l(w)} q^{count(w)}, looked up
    in the type's pq_table: no element is walked and nothing is enumerated."""
    t = _lie_type(group_or_type)
    return pq_table(t)[sign_vector(eps, t.rank)]


@lru_cache(maxsize=None)
def pq_table(t) -> Mapping[Signs, QPoly]:
    """p_eps(q) for all 2^l sign vectors of type t, by the parabolic coset chain."""
    t = LieType.parse(t)
    polys = _chain_fold(t, [{0: 1}] * (1 << t.rank))
    return MappingProxyType({_signs(x, t.rank): poly for x, poly in enumerate(polys)})


def _chain_fold(t: LieType, sums: list[dict[int, int]]) -> list[QPoly]:
    """(-1)^{l(w*)} S_l at every sign code, folded up the coset chain from S_0.

    W_k = W_k^J . W_{k-1} (W_k on nodes 1..k) with lengths and counts adding,
    so S_k(x) = sum_u (-1)^{l(u)} q^{eta(u,x)} S_{k-1}(final(u,x)) over the
    minimal left coset reps u of the chain's level k: S_0 = 1 gives p(q),
    and S_0 the indicator of eps, read at eps, gives the sum over W^-.
    """
    for level in _coset_chain(t):
        signs = [-1 if x % 2 else 1 for x in level.lengths.tolist()]
        reps = list(zip(signs, level.eta.tolist(), level.final.tolist()))
        folded = []
        for x in range(len(sums)):
            acc: dict[int, int] = {}
            for sign, eta, fin in reps:
                for e, v in sums[fin[x]].items():
                    acc[eta[x] + e] = acc.get(eta[x] + e, 0) + sign * v
            folded.append({e: v for e, v in acc.items() if v})
        sums = folded
    top = -1 if positive_root_count(t) % 2 else 1
    return [QPoly({e: top * v for e, v in poly.items()}) for poly in sums]


def restricted_blowup_poly(group_or_type, eps) -> QPoly:
    """Same alternating sum taken only over the sign-stable elements, by the
    chain fold from the indicator of eps: nothing is enumerated."""
    t = _lie_type(group_or_type)
    x = _code(sign_vector(eps, t.rank))
    start: list[dict[int, int]] = [{}] * (1 << t.rank)
    start[x] = {0: 1}
    return _chain_fold(t, start)[x]


def stable_count(group_or_type, eps) -> int:
    """|W^-|: the elements whose sign walk takes eps back to eps, counted up
    the coset chain as the fold counts them (n_k(x) = sum_u n_{k-1}(final(u,x)))."""
    t = _lie_type(group_or_type)
    x = _code(sign_vector(eps, t.rank))
    n = np.arange(1 << t.rank) == x
    for level in _coset_chain(t):
        n = n[level.final].sum(axis=0)
    return int(n[x])


def minus_stable_elements(group_or_type) -> list[WeylElement]:
    """Elements whose sign walk returns all-minus to all-minus (the set W^-)."""
    group = _coerce_group(group_or_type)
    eps = all_minus(group.rank)
    codes = chain_walk(group, eps)[1]
    return [group.elements[i] for i in np.flatnonzero(codes == _code(eps)).tolist()]


def longest_blowups(t) -> int:
    """All-minus blow-up count at the longest element, via the greedy word
    only: the degree of p(q).

    Works for every type including E8, where full enumeration is off the
    table.
    """
    t = LieType.parse(t)
    return blowup_count(longest_element(t), all_minus(t.rank), cartan_matrix(t))
