"""Weyl groups: enumeration, reduced words, Bruhat covers, longest element.

Elements act on the root lattice in the simple-root basis; the integer
matrix of that action is the canonical key.  Enumeration is breadth-first
under right multiplication by generators (ties broken by the smallest
generator index), so element order, lengths and stored reduced words are
deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartan import CartanMatrix, LieType, cartan_matrix, positive_root_count, weyl_order
from .errors import CapExceeded, InvariantViolated
from .intmat import Matrix, identity, mat_mul

DEFAULT_CAP = 3_000_000


@dataclass(frozen=True)
class WeylElement:
    mat: Matrix
    length: int
    word: tuple[int, ...]  # one reduced word, generator indices 1..l


def word_label(word) -> str:
    """A reduced word as its digits, or 'e' for the identity."""
    return "e" if not word else "".join(str(i) for i in word)


def reflection_matrix(i: int, cartan: CartanMatrix) -> Matrix:
    """Matrix of s_i: column j is alpha_j - C[j][i] alpha_i (i is 1-based)."""
    l = cartan.rank
    if not 1 <= i <= l:
        raise IndexError(f"generator index {i} out of range 1..{l}")
    k = i - 1
    return tuple(
        tuple((int(r == c) - cartan[c][k]) if r == k else int(r == c) for c in range(l))
        for r in range(l)
    )


def simple_reflection(i: int, cartan: CartanMatrix) -> WeylElement:
    return WeylElement(reflection_matrix(i, cartan), 1, (i,))


def _column_updates(cartan: CartanMatrix):
    """Per generator, the nonzero (column, C[c][i]) pairs of right multiplication."""
    l = cartan.rank
    return [
        tuple((c, cartan[c][i]) for c in range(l) if cartan[c][i] != 0)
        for i in range(l)
    ]


class WeylGroup:
    """Immutable enumerated Weyl group with BFS parents for table recurrences."""

    def __init__(self, lie_type, cartan, elements, index, parent, parent_gen):
        self.lie_type = lie_type
        self.cartan = cartan
        self.elements = elements
        self.index = index
        self.parent = parent
        self.parent_gen = parent_gen
        self._reflections = None
        self._covers = None
        self._cover_up = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]

    def element_index(self, w) -> int:
        mat = w.mat if isinstance(w, WeylElement) else w
        return self.index[mat]

    def by_length(self) -> list[list[int]]:
        layers = [[] for _ in range(self.longest.length + 1)]
        for i, w in enumerate(self.elements):
            layers[w.length].append(i)
        return layers

    def length_distribution(self) -> list[int]:
        return [len(layer) for layer in self.by_length()]

    def inverse_mat(self, w: WeylElement) -> Matrix:
        """Matrix of w^{-1}, as the product over the reversed reduced word."""
        mat = identity(self.rank)
        updates = _column_updates(self.cartan)
        for i in reversed(w.word):
            mat = _apply_update(mat, updates[i - 1], i - 1)
        return mat

    def reflections(self) -> frozenset:
        """Matrix keys of all reflections, generated by the root orbit."""
        if self._reflections is None:
            self._reflections = frozenset(
                m for _, m in _root_reflection_orbit(self.cartan)
            )
        return self._reflections

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """All Bruhat covers (i, j) with length(j) = length(i) + 1.

        Lifting property: for w = p s with p = parent[w], the coatoms of w
        are p and every v s with v a coatom of p and v s > v; BFS lists p
        before w."""
        if self._covers is None:
            updates = _column_updates(self.cartan)
            coatoms: list[list[int]] = [[]]
            for j in range(1, self.order):
                p, s = self.parent[j], self.parent_gen[j] - 1
                down = [p]
                for v in coatoms[p]:
                    mat = self.elements[v].mat
                    if all(row[s] >= 0 for row in mat):
                        down.append(self.index[_apply_update(mat, updates[s], s)])
                coatoms.append(down)
            self._covers = tuple(sorted((i, j) for j, down in enumerate(coatoms) for i in down))
        return self._covers

    def canonical_order(self) -> list[int]:
        """Element indices by (length, matrix key): the order of all output."""
        els = self.elements
        return sorted(range(len(els)), key=lambda i: (els[i].length, els[i].mat))

    def covers_up(self) -> dict[int, tuple[int, ...]]:
        if self._cover_up is None:
            up: dict[int, list[int]] = {}
            for i, j in self.cover_pairs():
                up.setdefault(i, []).append(j)
            self._cover_up = {i: tuple(sorted(js)) for i, js in up.items()}
        return self._cover_up


def _root_reflection_orbit(cartan: CartanMatrix):
    """Orbit of (positive root, reflection matrix) pairs under the generators."""
    l = cartan.rank
    gens = [reflection_matrix(i, cartan) for i in range(1, l + 1)]
    seen = {}
    frontier = []
    for k in range(l):
        root = tuple(int(c == k) for c in range(l))
        seen[root] = gens[k]
        frontier.append(root)
    while frontier:
        nxt = []
        for root in frontier:
            rmat = seen[root]
            for k in range(l):
                coeff = sum(cartan[j][k] * root[j] for j in range(l))
                new = tuple(
                    x - coeff if c == k else x for c, x in enumerate(root)
                )
                if all(x >= 0 for x in new) and new not in seen:
                    seen[new] = mat_mul(gens[k], mat_mul(rmat, gens[k]))
                    nxt.append(new)
        frontier = nxt
    return sorted(seen.items())


def positive_roots(cartan: CartanMatrix) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted."""
    return [root for root, _ in _root_reflection_orbit(cartan)]


@lru_cache(maxsize=None)
def _enumerate(family: str, rank: int, cap: int) -> WeylGroup:
    t = LieType(family, rank)
    expected = weyl_order(t)
    if expected > cap:
        raise CapExceeded(
            f"|W({t})| = {expected} exceeds cap {cap}; "
            "use longest_element() for w*-only questions"
        )
    cartan = cartan_matrix(t)
    l = rank
    updates = _column_updates(cartan)

    ident = identity(l)
    elements = [WeylElement(ident, 0, ())]
    index = {ident: 0}
    parent = [-1]
    parent_gen = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            w = elements[idx]
            mat, length, word = w.mat, w.length, w.word
            for i in range(1, l + 1):
                new = _apply_update(mat, updates[i - 1], i - 1)
                if new not in index:
                    index[new] = len(elements)
                    elements.append(WeylElement(new, length + 1, word + (i,)))
                    parent.append(idx)
                    parent_gen.append(i)
                    nxt.append(index[new])
        frontier = nxt
    if len(elements) != expected:
        raise InvariantViolated(f"enumerated {len(elements)} elements of W({t}), not {expected}")
    return WeylGroup(t, cartan, elements, index, parent, parent_gen)


def _apply_update(mat: Matrix, update, i: int) -> Matrix:
    rows = []
    for row in mat:
        ri = row[i]
        if ri:
            new = list(row)
            for c, cc in update:
                new[c] -= cc * ri
            rows.append(tuple(new))
        else:
            rows.append(row)
    return tuple(rows)


def enumerate_group(t, cap: int | None = None) -> WeylGroup:
    """Enumerate W(t) breadth-first; cached per (type, cap)."""
    t = LieType.parse(t)
    return _enumerate(t.family, t.rank, DEFAULT_CAP if cap is None else cap)


def _diagram_automorphism(t: LieType) -> list[int]:
    l = t.rank
    sigma = list(range(l))
    if t.family == "A":
        sigma = [l - 1 - c for c in range(l)]
    elif t.family == "D" and l % 2 == 1:
        sigma[l - 2], sigma[l - 1] = sigma[l - 1], sigma[l - 2]
    elif t.family == "E" and l == 6:
        sigma = [5, 1, 4, 3, 2, 0]
    return sigma


def longest_element(t) -> WeylElement:
    """w* with a reduced word, built by greedy peeling (no enumeration).

    Starts from the matrix -(diagram automorphism) and repeatedly strips a
    generator whose simple root is sent to a negative root.
    """
    t = LieType.parse(t)
    cartan = cartan_matrix(t)
    l = t.rank
    sigma = _diagram_automorphism(t)
    wstar = tuple(tuple(-int(r == sigma[c]) for c in range(l)) for r in range(l))
    updates = _column_updates(cartan)
    ident = identity(l)

    mat = wstar
    peeled = []
    while mat != ident:
        for i in range(l):
            if all(mat[r][i] <= 0 for r in range(l)):
                break
        else:
            raise InvariantViolated(f"peeling stuck for {t}: not a longest-element matrix")
        peeled.append(i + 1)
        mat = _apply_update(mat, updates[i], i)
    word = tuple(reversed(peeled))
    expected = positive_root_count(t)
    if len(word) != expected:
        raise InvariantViolated(f"w* of {t} peeled to length {len(word)}, expected {expected}")
    return WeylElement(wstar, len(word), word)


def bruhat_cover(group: WeylGroup, w1: WeylElement, w2: WeylElement) -> bool:
    """True iff w2 covers w1: lengths differ by one and w1^{-1} w2 reflects."""
    if w1.mat not in group.index or w2.mat not in group.index:
        raise ValueError("elements do not belong to this group")
    if w2.length != w1.length + 1:
        return False
    return mat_mul(group.inverse_mat(w1), w2.mat) in group.reflections()


def word_matrix(word, cartan: CartanMatrix) -> Matrix:
    """Product of simple reflections for a word (letters applied on the right)."""
    mat = identity(cartan.rank)
    updates = _column_updates(cartan)
    for i in word:
        mat = _apply_update(mat, updates[i - 1], i - 1)
    return mat


def right_descents(mat: Matrix) -> list[int]:
    """Generators i with w(alpha_i) negative, i.e. l(w s_i) < l(w)."""
    l = len(mat)
    return [i + 1 for i in range(l) if all(mat[r][i] <= 0 for r in range(l))]


def all_reduced_words(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of w, by recursion over right descents."""
    updates = _column_updates(group.cartan)
    cache: dict[Matrix, list[tuple[int, ...]]] = {identity(group.rank): [()]}

    def rec(mat: Matrix) -> list[tuple[int, ...]]:
        got = cache.get(mat)
        if got is not None:
            return got
        words = []
        for i in right_descents(mat):
            shorter = _apply_update(mat, updates[i - 1], i - 1)
            words.extend(word + (i,) for word in rec(shorter))
        cache[mat] = words
        return words

    return rec(w.mat)


def random_reduced_word(group: WeylGroup, w: WeylElement, rng) -> tuple[int, ...]:
    """One reduced word of w, chosen by random descent walks."""
    updates = _column_updates(group.cartan)
    mat = w.mat
    rev = []
    for _ in range(w.length):
        i = rng.choice(right_descents(mat))
        rev.append(i)
        mat = _apply_update(mat, updates[i - 1], i - 1)
    return tuple(reversed(rev))
