"""Weyl groups: the parabolic coset chain, enumeration, reduced words,
Bruhat covers, longest element.

An element's handle is its index.  W is stored over the parabolic
coset chain W_k = W_k^J . W_{k-1} (W_k on the nodes 1..k): w = u_l ... u_1
with u_k a minimal left coset representative of W_k / W_{k-1}, so lengths
add and reduced words concatenate.  The representatives of level k are the
orbit of the k-th fundamental weight, and left multiplication by a simple
reflection is a walk down the chain (Deodhar's lemma): s u_k is again a
representative, or s u_k = u_k s' with s' in W_{k-1} pushed one level down.

enumerate_group holds the chain, the order and the length counts, which
come from the levels alone; the first read of a table over all of W builds
them all: lengths, the l left-multiplication permutations, and each
element's least reduced word as a (first letter, rest) tree.  Element
indices run by length, then by lexicographically least reduced word (the
order of a breadth-first search under right multiplication, ties to the
smallest generator), so they are deterministic across runs.  A reduced
word reaches its index by a walk from e through the left permutations, and
the Bruhat covers are stored once, as two index arrays.  The integer
matrices of the action on the simple-root basis only fix the output order
(canonical_order, applied by the graph export and the eta table alone;
every other stage runs in index order) and back the matrix-keyed `index`;
they and the WeylElements are built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .cartan import CartanMatrix, LieType, cartan_matrix, positive_root_count, weyl_order
from .errors import CapExceeded, InvariantViolated
from .intmat import Matrix, identity

# the group's tables cost about 70 bytes of peak RSS per element once read:
# E7 (2,903,040 elements) builds them in 0.6 s at 233 MB, 204 MB above the
# bare interpreter; its order and length counts need none of them, and
# covers, matrices and WeylElements are built only when read
DEFAULT_CAP = 3_000_000


@dataclass(frozen=True)
class WeylElement:
    mat: Matrix
    length: int
    word: tuple[int, ...]  # one reduced word, generator indices 1..l


def word_label(word) -> str:
    """A reduced word as its digits, or 'e' for the identity."""
    return "e" if not word else "".join(str(i) for i in word)


def _letter(i: int, l: int) -> int:
    """The 0-based position of letter i, which must lie in 1..l."""
    if not 1 <= i <= l:
        raise ValueError(f"letter {i} out of range 1..{l}")
    return i - 1


def reflection_matrix(i: int, cartan: CartanMatrix) -> Matrix:
    """Matrix of s_i: column j is alpha_j - C[j][i] alpha_i (i is 1-based)."""
    l = cartan.rank
    if not 1 <= i <= l:
        raise IndexError(f"generator index {i} out of range 1..{l}")
    return word_matrix((i,), cartan)


def simple_reflection(i: int, cartan: CartanMatrix) -> WeylElement:
    return WeylElement(reflection_matrix(i, cartan), 1, (i,))


def _column_updates(cartan: CartanMatrix):
    """Per generator, the nonzero (column, C[c][i]) pairs of right multiplication."""
    l = cartan.rank
    return [
        tuple((c, cartan[c][i]) for c in range(l) if cartan[c][i] != 0)
        for i in range(l)
    ]


class CosetLevel(NamedTuple):
    """Level k of the chain: the minimal left coset representatives u of
    W_k / W_{k-1} (u = 0 is e), with Deodhar's table for s in 0..k-1 and the
    sign walk of each u from every sign code x (bit j set: eps_{j+1} is -)."""

    lengths: np.ndarray  # (n,)
    step: np.ndarray  # (k, n): the representative s u, or -1 if s u = u s'
    push: np.ndarray  # (k, n): that s' (0-based, below k - 1), or -1
    eta: np.ndarray  # (n, 2^l): blow-ups along u walked from x
    final: np.ndarray  # (n, 2^l): the sign code at the end of that walk


@lru_cache(maxsize=None)
def _coset_chain(t: LieType) -> tuple[CosetLevel, ...]:
    """The levels k = 1..l of the parabolic coset chain of type t.

    The representatives are the orbit of the k-th fundamental weight lam:
    s u is a new, longer representative iff lam_s > 0, at lam - lam_s * (row
    s of C); lam_s < 0 gives a shorter one, and lam_s = 0 means s u = u s'
    with alpha_{s'} = u^{-1} alpha_s, read off the carried matrix of u^{-1}.
    eta and final ride along by eta(s u, x) = [x_s = -] + eta(u, s x) and
    final(s u, x) = final(u, s x)."""
    c = cartan_matrix(t)
    l = t.rank
    updates = _column_updates(c)
    codes = np.arange(1 << l)
    minus = [codes >> s & 1 for s in range(l)]
    flips = [sum(1 << j for j in range(l) if c[j][s] % 2) for s in range(l)]
    act = [np.where(minus[s], codes ^ flips[s], codes) for s in range(l)]
    levels = []
    for k in range(1, l + 1):
        points = [tuple(int(j == k - 1) for j in range(k))]
        where = {points[0]: 0}
        lengths, inverses = [0], [identity(l)]
        eta, final = [np.zeros_like(codes)], [codes]
        step, push = [], []  # per u, then transposed
        for u, lam in enumerate(points):
            step.append([-1] * k)
            push.append([-1] * k)
            for s in range(k):
                if lam[s] == 0:
                    root = [row[s] for row in inverses[u]]
                    if sorted(root) != [0] * (l - 1) + [1] or root.index(1) >= k - 1:
                        raise InvariantViolated(
                            f"{t} level {k}: u^-1 alpha_{s + 1} = {root} is no simple root "
                            f"of W_{k - 1}"
                        )
                    push[u][s] = root.index(1)
                    continue
                new = tuple(x - lam[s] * c[s][j] for j, x in enumerate(lam))
                if lam[s] > 0 and new not in where:
                    where[new] = len(points)
                    points.append(new)
                    lengths.append(lengths[u] + 1)
                    inverses.append(_apply_update(inverses[u], updates[s], s))
                    eta.append(minus[s] + eta[u][act[s]])
                    final.append(final[u][act[s]])
                step[u][s] = where[new]  # a shorter one was found one length earlier
        levels.append(CosetLevel(
            np.array(lengths), np.array(step).T, np.array(push).T, np.array(eta), np.array(final)
        ))
    return tuple(levels)


def length_distribution(t) -> list[int]:
    """The number of elements of each length in W(t), from the coset chain
    alone: sum_w q^{l(w)} is the product over the levels of sum_u q^{l(u)}."""
    counts = [np.bincount(level.lengths) for level in _coset_chain(LieType.parse(t))]
    return reduce(np.convolve, counts, np.ones(1, np.int64)).tolist()


class _Elements(Sequence):
    """WeylElements of a group, built when read: one at a time from the
    (first letter, rest) tree, or all at once when iterated."""

    def __init__(self, group: "WeylGroup"):
        self._group = group
        self._all: list[WeylElement] | None = None
        self._some: dict[int, WeylElement] = {}

    def __len__(self) -> int:
        return self._group.order

    def __getitem__(self, i: int) -> WeylElement:
        if self._all is not None:
            return self._all[i]
        i = range(len(self))[i]
        got = self._some.get(i)
        if got is None:
            g = self._group
            word = g.word(i)
            got = self._some[i] = WeylElement(word_matrix(word, g.cartan), len(word), word)
        return got

    def __iter__(self):
        if self._all is None:
            g = self._group
            words: list[tuple[int, ...]] = [()]
            for s, p in zip(g.first[1:].tolist(), g.rest[1:].tolist()):
                words.append((s,) + words[p])
            self._all = [
                WeylElement(tuple(map(tuple, m)), len(w), w)
                for m, w in zip(g.matrices().tolist(), words)
            ]
        return iter(self._all)


class WeylGroup:
    """Immutable Weyl group over its coset chain, with numpy tables over its
    elements built on the first read of any of them (see _TABLES).

    lengths[i] is the length of element i; left[s - 1][i] is the index of
    s w_i; w_i = s w_rest with s = first[i] its smallest left descent and
    rest[i] = left[s - 1][i] (first[0] = rest[0] = 0 for e); chain_index[i]
    is its mixed-radix number over the coset chain, top digit first."""

    def __init__(self, lie_type, cartan, chain, order):
        self.lie_type = lie_type
        self.cartan = cartan
        self.chain = chain
        self.order = order
        self._offsets = np.concatenate(([0], np.cumsum(length_distribution(lie_type)))).tolist()
        self.elements = _Elements(self)
        self._length_list = None
        self._index = None
        self._matrices = None
        self._canonical = None
        self._covers = None

    def __getattr__(self, name):  # reached only while the tables are unbuilt
        if name not in _TABLES:
            raise AttributeError(name)
        self.__dict__.update(zip(_TABLES, _build_tables(self.chain)))
        return self.__dict__[name]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]

    @property
    def lengths(self) -> list[int]:
        if self._length_list is None:
            self._length_list = self._lengths.tolist()
        return self._length_list

    @property
    def index(self) -> dict[Matrix, int]:
        if self._index is None:
            self._index = {w.mat: i for i, w in enumerate(self.elements)}
        return self._index

    def element_index(self, w) -> int:
        """Index of a WeylElement by its word, checked against its length and
        matrix; a bare Matrix is looked up in `index`."""
        if not isinstance(w, WeylElement):
            return self.index[w]
        i = self.word_index(w.word)
        if w.length != len(w.word) or word_matrix(w.word, self.cartan) != w.mat:
            raise ValueError(f"{word_label(w.word)} is not an element of W({self.lie_type})")
        return i

    def word_index(self, word) -> int:
        """Index of the element with reduced word (a1, ..., am), walked from e
        through the left permutations: s_{a1} (... (s_{am} e))."""
        i = 0
        for s in reversed(word):
            i = self.left[_letter(s, self.rank), i]
        if self._lengths[i] != len(word):
            raise ValueError(f"word {word_label(word)} is not reduced")
        return int(i)

    def descents(self, i: int) -> list[tuple[int, int]]:
        """(s, index of s w_i) for every left descent s of element i."""
        lengths = self.lengths
        down = enumerate(self.left[:, i].tolist(), 1)
        return [(s, j) for s, j in down if lengths[j] < lengths[i]]

    def word(self, i: int) -> tuple[int, ...]:
        """The least reduced word of element i, read down the tree."""
        word = []
        for _ in range(self._lengths[i]):
            word.append(int(self.first[i]))
            i = self.rest[i]
        return tuple(word)

    def left_product(self, word) -> np.ndarray:
        """Indices of (s_{a1} ... s_{am}) w_i for every i, word = (a1, ..., am)."""
        out = np.arange(self.order)
        for s in reversed(word):
            out = self.left[s - 1][out]
        return out

    def chain_digits(self):
        """(level, every element's digit u_k) for k = l down to 1: w = u_l ... u_1."""
        x = self.chain_index
        strides = np.cumprod([1] + [level.lengths.size for level in self.chain[:-1]])
        for level, stride in zip(reversed(self.chain), reversed(strides.tolist())):
            yield level, x // stride
            x = x % stride

    def by_length(self) -> list[list[int]]:
        off = self._offsets
        return [list(range(a, b)) for a, b in zip(off, off[1:])]

    def length_distribution(self) -> list[int]:
        off = self._offsets
        return [b - a for a, b in zip(off, off[1:])]

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """All Bruhat covers (i, j), sorted, as a tuple built from covers()."""
        bottom, top = self.covers()
        return tuple(zip(bottom.tolist(), top.tolist()))

    def covers(self) -> tuple[np.ndarray, np.ndarray]:
        """All Bruhat covers i < j (length(j) = length(i) + 1) as two int32
        arrays (bottom i, top j), sorted by (i, j).

        w is covered by t w for each reflection t with l(t w) = l(w) + 1.
        The left table of t_beta (t_beta w_i at i) comes from its parent's in
        the root walk: beta = s_k(beta') gives t_beta = s_k t_beta' s_k.  Only
        two rounds of tables are held at once (E7's are 11.6 MB each)."""
        if self._covers is None:
            lengths, left, n = self._lengths, self.left, self.order
            keys, tables = [], {}
            for walk in _root_rounds(self.cartan):
                tables = {
                    root: left[k] if parent is None else left[k].take(tables[parent].take(left[k]))
                    for root, parent, k in walk
                }
                for t in tables.values():
                    up = np.flatnonzero(lengths.take(t) - lengths == 1)
                    keys.append(up * n + t.take(up))
            key = np.concatenate(keys)
            del keys
            key.sort()
            self._covers = np.empty(key.size, np.int32), np.empty(key.size, np.int32)
            np.divmod(key, n, out=self._covers, casting="unsafe")
        return self._covers

    def matrices(self) -> np.ndarray:
        """(order, l, l) int8 array of every element's matrix, M_w = R_s M_p
        for w = s p: row s - 1 of M_p becomes sum_c (delta - C[c][s-1]) M_p[c]."""
        if self._matrices is None:
            l, off = self.rank, self._offsets
            mix = np.eye(l, dtype=np.int64) - np.array(self.cartan.entries).T
            mats = np.empty((self.order, l, l), np.int8)
            mats[0] = np.eye(l)
            for a, b in zip(off[1:], off[2:]):
                m = mats[self.rest[a:b]].astype(np.int64)
                s = self.first[a:b] - 1
                m[np.arange(b - a), s] = np.einsum("nc,ncj->nj", mix[s], m)
                mats[a:b] = m
            self._matrices = mats
        return self._matrices

    def canonical_order(self) -> np.ndarray:
        """Element indices by (length, matrix key): the order of all output."""
        if self._canonical is None:
            flat = self.matrices().reshape(self.order, -1)
            keys = [flat[:, c] for c in reversed(range(flat.shape[1]))] + [self._lengths]
            self._canonical = np.lexsort(keys)
        return self._canonical


def _root_rounds(cartan: CartanMatrix):
    """The positive roots, each once, in rounds of (root, parent, k): root =
    s_k(parent) lies above its parent, a root of the round before, and the
    first round is the simple roots, with parent None.  A positive root beta
    that is not simple has <beta, alpha_k^v> > 0 for some k, so s_k beta is a
    lower positive root, and rising steps alone reach every root."""
    l, cols = cartan.rank, list(zip(*cartan.entries))
    walk = [(tuple(int(c == k) for c in range(l)), None, k) for k in range(l)]
    seen = {root for root, _, _ in walk}
    while walk:
        yield walk
        nxt = []
        for root, _, _ in walk:
            for k, col in enumerate(cols):
                coeff = sum(x * c for x, c in zip(root, col))
                new = root[:k] + (root[k] - coeff,) + root[k + 1 :]
                if coeff < 0 and new not in seen:
                    seen.add(new)
                    nxt.append((new, root, k))
        walk = nxt


def positive_roots(cartan: CartanMatrix) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted."""
    return sorted(root for walk in _root_rounds(cartan) for root, _, _ in walk)


@lru_cache(maxsize=None)
def _enumerate(family: str, rank: int) -> WeylGroup:
    t = LieType(family, rank)
    expected = weyl_order(t)
    chain = _coset_chain(t)
    size = math.prod(level.lengths.size for level in chain)
    if size != expected:
        raise InvariantViolated(f"the coset chain of W({t}) has {size} elements, not {expected}")
    return WeylGroup(t, cartan_matrix(t), chain, size)


_TABLES = ("_lengths", "left", "first", "rest", "chain_index")


def _build_tables(chain: tuple[CosetLevel, ...]):
    """The WeylGroup tables over all of W, in _TABLES order."""
    # tables in chain order: w = u v (v in W_{k-1}) at u |W_{k-1}| + index(v);
    # s u is a representative (a new digit) or u s' (s' acts on v)
    lengths = np.zeros(1, np.int16)
    left = np.zeros((0, 1), np.int32)
    for k, level in enumerate(chain, 1):
        n, r = level.lengths.size, lengths.size
        block = np.arange(n * r, dtype=np.int32).reshape(n, r)
        grown = np.empty((k, n, r), np.int32)
        for s in range(k):
            hop = level.step[s] >= 0
            grown[s, hop] = block[level.step[s, hop]]
            grown[s, ~hop] = block[~hop, :1] + left[level.push[s, ~hop]]
        left = grown.reshape(k, n * r)
        lengths = (level.lengths[:, None] + lengths).ravel().astype(np.int16)

    # re-index by (length, least reduced word): the least word of w is its
    # smallest left descent s followed by the least word of s w, so each
    # length layer sorts on (s, new index of s w)
    n, rank = lengths.size, len(chain)
    first = np.zeros(n, np.int8)
    for s in reversed(range(rank)):
        first[lengths[left[s]] < lengths] = s + 1
    down = left[np.maximum(first, 1) - 1, np.arange(n)]
    by_length = np.argsort(lengths, kind="stable")
    off = np.concatenate(([0], np.cumsum(np.bincount(lengths)))).tolist()
    new = np.zeros(n, np.int32)
    for a, b in zip(off[1:], off[2:]):
        layer = by_length[a:b]
        key = first[layer].astype(np.int64) * n + new[down[layer]]
        new[layer[np.argsort(key)]] = np.arange(a, b)
    old = np.empty(n, np.int32)
    old[new] = np.arange(n)
    for s in range(rank):  # in place, one row at a time: E7 holds one table, not two
        left[s] = new[left[s][old]]
    rest = new[down[old]]
    rest[0] = 0
    return lengths[old], left, first[old], rest, old


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
    """W(t) over its coset chain, tables built on first read; cached per
    type, so the cap only decides whether |W(t)| may be built."""
    t = LieType.parse(t)
    cap = DEFAULT_CAP if cap is None else cap
    order = weyl_order(t)
    if order > cap:
        raise CapExceeded(
            f"|W({t})| = {order} exceeds cap {cap}; "
            "use longest_element() for w*-only questions"
        )
    return _enumerate(t.family, t.rank)


def longest_element(t) -> WeylElement:
    """w* with a reduced word, built by greedy ascent (no enumeration).

    From e, multiply on the right by the least s_i whose column of the
    matrix is >= 0: then w(alpha_i) > 0 and l(w s_i) = l(w) + 1. w* alone
    has no right ascent, so the climb ends there after N steps, and needs no
    diagram automorphism. The word is the climb reversed, a reduced word of
    w*^-1 = w*: the word of peeling w* to e by its least right descent, as
    w* x has a right descent at i exactly when x has a right ascent there.
    """
    t = LieType.parse(t)
    l = t.rank
    updates = _column_updates(cartan_matrix(t))
    mat, climbed = identity(l), []
    while (i := next((i for i in range(l) if all(r[i] >= 0 for r in mat)), None)) is not None:
        climbed.append(i + 1)
        mat = _apply_update(mat, updates[i], i)
    word = tuple(reversed(climbed))
    expected = positive_root_count(t)
    if len(word) != expected:
        raise InvariantViolated(f"w* of {t} climbed to length {len(word)}, expected {expected}")
    return WeylElement(mat, len(word), word)


def bruhat_cover(group: WeylGroup, w1: WeylElement, w2: WeylElement) -> bool:
    """True iff w2 covers w1, looked up in the group's stored covers."""
    i, j = group.element_index(w1), group.element_index(w2)
    bottom, top = group.covers()
    lo, hi = np.searchsorted(bottom, [i, i + 1])
    k = lo + np.searchsorted(top[lo:hi], j)
    return bool(k < hi and top[k] == j)


def word_matrix(word, cartan: CartanMatrix) -> Matrix:
    """Product of simple reflections for a word (letters applied on the right)."""
    mat = identity(cartan.rank)
    updates = _column_updates(cartan)
    for i in word:
        k = _letter(i, cartan.rank)
        mat = _apply_update(mat, updates[k], k)
    return mat


def all_reduced_words(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of w, by recursion over left descents."""
    cache: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def rec(i: int) -> list[tuple[int, ...]]:
        if i not in cache:
            cache[i] = [(s,) + word for s, j in group.descents(i) for word in rec(j)]
        return cache[i]

    return rec(group.element_index(w))


def random_reduced_word(group: WeylGroup, w: WeylElement, rng) -> tuple[int, ...]:
    """One reduced word of w, chosen by a random walk down left descents."""
    i, word = group.element_index(w), []
    while i:
        s, i = rng.choice(group.descents(i))
        word.append(s)
    return tuple(word)
