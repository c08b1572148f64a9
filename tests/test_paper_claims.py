"""Claims of the source paper's abstract, each in the sense the code shows it.

The local-Clifford moves on a graph's weights are the ones ``classify``
runs: scaling a vertex by a nonzero factor, the star update at a vertex and
swapping two vertices. They are spelled here on plain tuples, so these
tests lean on no reducer of the package.
"""

from itertools import combinations, product

import pytest

from quditgraph import is_prime


def _primitive_root(d: int) -> int:
    """The least generator of GF(d)*: scaling by its powers is scaling by any
    nonzero factor."""
    return next(g for g in range(1, d)
                if len({pow(g, k, d) for k in range(1, d)}) == d - 1)


def _moves(w, d: int, pairs, g: int):
    """The graphs one move away from the graph of weights ``w`` over ``pairs``:
    a scale of a vertex by g, a star at a vertex by 1, or a swap of two
    vertices."""
    n = max(map(max, pairs)) + 1
    weight = dict(zip(pairs, w))
    weight.update(((m, l), x) for (l, m), x in zip(pairs, w))
    for v in range(n):
        yield tuple(x * g % d if v in pair else x for x, pair in zip(w, pairs))
        yield tuple(x if v in (l, m) else (x + weight[l, v] * weight[v, m]) % d
                    for x, (l, m) in zip(w, pairs))
    for a, b in combinations(range(n), 2):
        t = {a: b, b: a}
        yield tuple(weight[t.get(l, l), t.get(m, m)] for l, m in pairs)


def _orbits(n: int, d: int) -> list[set]:
    """The orbits of every graph on n vertices with weights in Z_d under the
    moves, in the order of their least member."""
    pairs = tuple(combinations(range(n), 2))
    g, seen, orbits = _primitive_root(d), set(), []
    for start in product(range(d), repeat=len(pairs)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            for h in _moves(frontier.pop(), d, pairs, g):
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        seen |= orbit
        orbits.append(orbit)
    return orbits


PRIMES = [p for p in range(2, 32) if is_prime(p)]


@pytest.mark.parametrize("d", PRIMES)
def test_two_and_three_particle_graph_states_are_one_orbit_when_connected(d):
    """The abstract: "This breaks the pattern of two- and three-particle
    systems, in which the existing graph states are equally accessible to
    binary and nonbinary systems alike." As local-Clifford orbits, with
    x = d - 1: the two-vertex graphs fall into the product (1 graph) and the
    Bell pair (x graphs), and the three-vertex graphs into the empty graph
    (1), one edge (3x) and every connected graph (3x^2 + x^3, the GHZ3
    orbit), at d = 2 as at every odd prime."""
    x = d - 1
    unjoined, bell = _orbits(2, d)
    assert unjoined == {(0,)} and len(bell) == x
    empty, one_edge, connected = _orbits(3, d)
    assert empty == {(0, 0, 0)}
    assert len(one_edge) == 3 * x and all(sum(map(bool, w)) == 1 for w in one_edge)
    assert len(connected) == 3 * x**2 + x**3 and all(sum(map(bool, w)) >= 2 for w in connected)
    assert (1, 1, 0) in connected  # the star at vertex 0: GHZ3
