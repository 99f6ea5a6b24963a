import random

import numpy as np
import pytest

from flagcoh.cartan import LieType, cartan_matrix, positive_root_count, weyl_order
from flagcoh.errors import CapExceeded
from flagcoh.intmat import identity, mat_mul
from flagcoh.weyl import (
    all_reduced_words,
    bruhat_cover,
    enumerate_group,
    length_distribution,
    longest_element,
    positive_roots,
    random_reduced_word,
    reflection_matrix,
    simple_reflection,
    word_matrix,
)


def test_simple_reflection_action():
    c = cartan_matrix("A2")
    s1 = simple_reflection(1, c)
    # alpha_1 -> -alpha_1, alpha_2 -> alpha_1 + alpha_2
    assert [row[0] for row in s1.mat] == [-1, 0]
    assert [row[1] for row in s1.mat] == [1, 1]
    assert s1.length == 1 and s1.word == (1,)


def test_reflection_is_involution():
    for name in ["A3", "B3", "G2", "F4"]:
        c = cartan_matrix(name)
        for i in range(1, c.rank + 1):
            m = simple_reflection(i, c).mat
            assert mat_mul(m, m) == identity(c.rank)


def test_g2_second_reflection():
    c = cartan_matrix("G2")
    s2 = simple_reflection(2, c)
    # alpha_1 -> alpha_1 + alpha_2 (C[0][1] = -1), alpha_2 -> -alpha_2
    assert [row[0] for row in s2.mat] == [1, 1]
    assert [row[1] for row in s2.mat] == [0, -1]


def test_reflection_index_range():
    c = cartan_matrix("A2")
    with pytest.raises(IndexError):
        simple_reflection(3, c)


@pytest.mark.parametrize("letter", [0, 3, -1])
def test_word_matrix_rejects_out_of_range_letters(letter):
    with pytest.raises(ValueError, match=f"letter {letter} out of range 1..2"):
        word_matrix((1, letter), cartan_matrix("A2"))


@pytest.mark.parametrize(
    "name,order",
    [("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120), ("B2", 8), ("B3", 48),
     ("C3", 48), ("D4", 192), ("G2", 12), ("F4", 1152)],
)
def test_group_orders(name, order):
    g = enumerate_group(name)
    assert g.order == order == weyl_order(name)


def test_a2_length_multiset():
    assert enumerate_group("A2").length_distribution() == [1, 2, 2, 1]


def test_g2_unique_longest():
    g = enumerate_group("G2")
    assert g.length_distribution()[-1] == 1
    assert g.longest.length == 6


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_group("E8")
    with pytest.raises(CapExceeded):
        enumerate_group("A4", cap=100)


def test_enumeration_cached_per_type_not_per_cap():
    a = enumerate_group("E6")
    assert enumerate_group("E6", 10**6) is a
    assert enumerate_group("E6", 51_840) is a
    with pytest.raises(CapExceeded, match="exceeds cap 51839"):
        enumerate_group("E6", 51_839)


def test_length_distribution_palindromic():
    for name in ["A3", "B3", "D4", "G2", "F4"]:
        dist = enumerate_group(name).length_distribution()
        assert dist == dist[::-1]
        assert sum(dist) == weyl_order(name)


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)] + ["D4", "D5", "D6", "F4", "G2", "E6"],
)
def test_chain_length_counts_match_the_built_lengths(name):
    g = enumerate_group(name)
    counts = np.bincount(g._lengths).tolist()
    assert g.length_distribution() == counts
    assert length_distribution(name) == counts
    assert g._offsets == np.concatenate(([0], np.cumsum(counts))).tolist()


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_chain_length_counts_match_the_height_product(name):
    from flagcoh.verify import _height_product

    assert tuple(length_distribution(name)) == _height_product(cartan_matrix(name))


def test_order_and_length_counts_build_no_tables(monkeypatch):
    from flagcoh import blowup, cohomology, weyl

    built = []
    build = weyl._build_tables
    monkeypatch.setattr(weyl, "_build_tables", lambda chain: built.append(chain) or build(chain))
    g = weyl._enumerate.__wrapped__("E", 6)
    dist = g.length_distribution()
    assert g.order == sum(dist) == 51840
    assert [len(layer) for layer in g.by_length()] == dist
    assert cohomology.mod2_dims(g) == tuple(dist)
    for eps in blowup.all_sign_vectors(6):
        blowup.blowup_poly(g, eps)
    assert built == []
    assert g.covers() is g.covers()
    assert built == [g.chain]
    assert {"_lengths", "left", "first", "rest", "chain_index"} <= vars(g).keys()
    g.word(g.order - 1)
    assert len(built) == 1


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A5", "B2", "B4", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_longest_element_length(name):
    w = longest_element(name)
    assert w.length == positive_root_count(name) == len(w.word)
    # the stored matrix is reproduced by the word
    assert word_matrix(w.word, cartan_matrix(name)) == w.mat


def test_longest_element_examples():
    assert longest_element("A1").word == (1,)
    w = longest_element("G2")
    assert w.word in ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))


def test_e8_positive_root_orbit():
    # independent count: orbit generation of the root system itself
    assert len(positive_roots(cartan_matrix("E8"))) == 120


def test_longest_matches_enumeration():
    for name in ["A3", "B3", "G2", "D4"]:
        g = enumerate_group(name)
        assert longest_element(name).mat == g.longest.mat


def _diagram_automorphism(t):
    # the node permutation sigma with w*(alpha_i) = -alpha_sigma(i)
    l = t.rank
    sigma = list(range(l))
    if t.family == "A":
        sigma = [l - 1 - c for c in range(l)]
    elif t.family == "D" and l % 2 == 1:
        sigma[l - 2], sigma[l - 1] = sigma[l - 1], sigma[l - 2]
    elif t.family == "E" and l == 6:
        sigma = [5, 1, 4, 3, 2, 0]
    return sigma


def _peeled_longest(name):
    """Oracle: w* as the matrix -sigma, peeled down to e by its least right
    descent (a column <= 0); the word is the peel reversed."""
    t = LieType.parse(name)
    c, l = cartan_matrix(t), t.rank
    sigma = _diagram_automorphism(t)
    wstar = tuple(tuple(-int(r == sigma[k]) for k in range(l)) for r in range(l))
    mat, peeled = wstar, []
    while mat != identity(l):
        i = next(i for i in range(l) if all(row[i] <= 0 for row in mat))
        peeled.append(i + 1)
        mat = mat_mul(mat, simple_reflection(i + 1, c).mat)
    return wstar, len(peeled), tuple(reversed(peeled))


_TABLE_TYPES = (
    [f"A{l}" for l in range(1, 16)]
    + [f"{f}{l}" for f in "BC" for l in range(2, 16)]
    + [f"D{l}" for l in range(4, 16)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", _TABLE_TYPES)
def test_longest_element_matches_the_peel_from_minus_sigma(name):
    w = longest_element(name)
    assert (w.mat, w.length, w.word) == _peeled_longest(name)


def _subword_le(uwords, wword):
    """Bruhat order oracle, the subword property (Bjorner & Brenti, GTM 231,
    Thm 2.2.2): u <= w iff one fixed reduced word of w has some reduced word
    of u as a subsequence."""

    def contains(big, small):
        it = iter(big)
        return all(ch in it for ch in small)

    return any(contains(wword, small) for small in uwords)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_bruhat_cover_against_subword_oracle(name):
    g = enumerate_group(name)
    words = {i: all_reduced_words(g, w) for i, w in enumerate(g.elements)}
    for i, u in enumerate(g.elements):
        for j, w in enumerate(g.elements):
            expected = (
                w.length == u.length + 1
                and _subword_le(words[i], words[j][0])
            )
            assert bruhat_cover(g, u, w) == expected


def test_cover_by_right_generator():
    for name in ["A3", "B3", "G2"]:
        g = enumerate_group(name)
        c = g.cartan
        for w in g.elements:
            for i in range(1, g.rank + 1):
                m2 = mat_mul(w.mat, simple_reflection(i, c).mat)
                w2 = g.elements[g.element_index(m2)]
                if w2.length == w.length + 1:
                    assert bruhat_cover(g, w, w2)


def test_cover_pairs_count_a2():
    g = enumerate_group("A2")
    # Hasse diagram of S3: e<s1,e<s2, s1<12,s1<21, s2<12,s2<21, 12<121, 21<121
    assert len(g.cover_pairs()) == 8


def _root_reflection_orbit(cartan):
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


@pytest.mark.parametrize("name", ["A1", "A6", "B5", "C5", "D6", "E6", "E7", "E8", "F4", "G2"])
def test_positive_roots_match_the_reflection_orbit(name):
    # the rising root walk reaches every root the full orbit does
    c = cartan_matrix(name)
    assert positive_roots(c) == [root for root, _ in _root_reflection_orbit(c)]


def _reflection_covers(g):
    """Covers by definition: (i, j) with w_j t = w_i for a reflection t and
    w_i one shorter than w_j."""
    reflections = {m for _, m in _root_reflection_orbit(g.cartan)}
    pairs = []
    for j, w in enumerate(g.elements):
        for t in reflections:
            i = g.index[mat_mul(w.mat, t)]
            if g.elements[i].length == w.length - 1:
                pairs.append((i, j))
    return tuple(sorted(pairs))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
)
def test_cover_pairs_match_reflection_definition(name):
    g = enumerate_group(name)
    assert g.cover_pairs() == _reflection_covers(g)


def _left_lifting_covers(g):
    """Covers by the left lifting property, one length layer at a time: for
    w = s p with p = rest[w], the coatoms of w are p and every s v with v a
    coatom of p and s v > v; each layer's coatoms grouped by element."""
    off, lengths, left, n = g._offsets, g._lengths, g.left, g.order
    ptr, coat = np.zeros(2, np.int64), np.zeros(0, np.int64)  # layer 0: e
    bottoms, tops = [], []
    for pa, a, b in zip(off, off[1:], off[2:]):
        ws, ps = np.arange(a, b), g.rest[a:b]
        lo = ptr[ps - pa]
        sizes = ptr[ps - pa + 1] - lo
        pos = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        v = coat[pos]
        sv = left[np.repeat(g.first[a:b] - 1, sizes), v]
        up = lengths[sv] > lengths[v]
        owners = np.concatenate((ws, np.repeat(ws, sizes)[up]))
        by_owner = np.argsort(owners, kind="stable")
        coat = np.concatenate((ps, sv[up]))[by_owner]
        ptr = np.concatenate(([0], np.cumsum(np.bincount(owners - a, minlength=b - a))))
        bottoms.append(coat)
        tops.append(owners[by_owner])
    key = np.sort(np.concatenate(bottoms).astype(np.int64) * n + np.concatenate(tops))
    return (key // n).astype(np.int32), (key % n).astype(np.int32)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "B5", "B6", "C3", "C4", "C5",
     "C6", "D4", "D5", "D6", "F4", "G2", "E6"],
)
def test_covers_match_the_left_lifting_reference(name):
    # the reflection-table covers equal the left-lifting walk byte for byte
    g = enumerate_group(name)
    for got, want in zip(g.covers(), _left_lifting_covers(g)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_bruhat_cover_agrees_with_covers_up(name):
    g = enumerate_group(name)
    up = {}
    for i, j in zip(*(a.tolist() for a in g.covers())):
        up.setdefault(i, []).append(j)
    for i, u in enumerate(g.elements):
        for j, w in enumerate(g.elements):
            if w.length == u.length + 1:
                assert bruhat_cover(g, u, w) == (j in up.get(i, ())), (u.word, w.word)


def test_length_gap_is_not_cover():
    g = enumerate_group("A2")
    e = g.elements[0]
    w12 = next(w for w in g.elements if w.word == (1, 2))
    assert not bruhat_cover(g, e, w12)


def test_cover_rejects_foreign_elements():
    g = enumerate_group("A2")
    other = enumerate_group("B2")
    with pytest.raises(ValueError):
        bruhat_cover(g, other.elements[1], other.elements[2])


def test_all_reduced_words_a3():
    g = enumerate_group("A3")
    words = all_reduced_words(g, g.longest)
    assert len(words) == 16  # classical count for the S4 longest element
    assert all(len(w) == 6 for w in words)
    assert len(set(words)) == len(words)
    c = g.cartan
    assert all(word_matrix(w, c) == g.longest.mat for w in words)


def test_random_reduced_word_is_reduced():
    g = enumerate_group("F4")
    rng = random.Random(11)
    for _ in range(25):
        w = g.elements[rng.randrange(g.order)]
        word = random_reduced_word(g, w, rng)
        assert len(word) == w.length
        assert word_matrix(word, g.cartan) == w.mat


def test_deterministic_enumeration():
    from flagcoh.weyl import _enumerate

    a = enumerate_group("B3")
    fresh = _enumerate.__wrapped__("B", 3)
    assert [w.word for w in a.elements] == [w.word for w in fresh.elements]


def _bfs_oracle(name):
    """The group by matrix BFS under right multiplication, ties to the
    smallest generator: (elements as (mat, length, word), index by matrix)."""
    c = cartan_matrix(name)
    gens = [simple_reflection(i, c).mat for i in range(1, c.rank + 1)]
    elements = [(identity(c.rank), 0, ())]
    index = {elements[0][0]: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            mat, length, word = elements[idx]
            for i, gen in enumerate(gens, 1):
                new = mat_mul(mat, gen)
                if new not in index:
                    index[new] = len(elements)
                    elements.append((new, length + 1, word + (i,)))
                    nxt.append(index[new])
        frontier = nxt
    return elements, index


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2"],
)
def test_coset_tables_match_bfs_oracle(name):
    g = enumerate_group(name)
    elements, index = _bfs_oracle(name)
    assert [(w.mat, w.length, w.word) for w in g.elements] == elements
    assert g.index == index
    assert g.lengths == [length for _, length, _ in elements]
    assert [g.word(i) for i in range(g.order)] == [word for _, _, word in elements]
    for s in range(1, g.rank + 1):
        gen = simple_reflection(s, g.cartan).mat
        assert g.left[s - 1].tolist() == [index[mat_mul(gen, mat)] for mat, _, _ in elements]
