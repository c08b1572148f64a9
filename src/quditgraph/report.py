"""Self-verifying report bundles over the canonical state families.

A bundle collects, per prime dimension, the purity profiles, the first- and
second-measurement tallies, the per-branch path tree, the persistency
statistics, and the maximal-mixing flags of the three family states,
together with a checklist comparing every value against its closed-form
expectation. Every number is a closed form of the family graph's six
weights, in O(1) GF(d) arithmetic per graph, and no state or tableau is
built: each purity is d^-S, S an exact cut rank (``measures.graph_entropies``),
and each tally counts the lines that leave each residue site pure
(``steering.enumerate_paths``). Numeric entries carry both an exact-rational
string and a float rounded to 12 significant digits, so repeated runs are
byte-identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# purity_profile and family_reduced_state stay bound for perfbench/child.py's tracer.
from .measures import all_subsystems, graph_entropies, is_k_mm, purity_profile, subsystem_label
from .pauli import check_prime
from .serialize import BASIS_ORDER, exact_and_float, metadata, rational_str
from .states import family_graph, family_reduced_state
from .steering import BELL, GHZ3, PRODUCT, SNB, enumerate_paths, persistency_stats

__all__ = [
    "build_report",
    "expected_first_counts",
    "expected_pair_counts",
    "expected_purity_columns",
]

FAMILIES = ("G", "C", "P")
# Every value is a closed form of six weights in Python ints, so neither
# memory nor time grows with d: build_report([10007]) takes 0.3-0.5 ms
# in-process (medians of 15 warm calls on 2 AMD EPYC vCPUs, Python 3.11).
# The cap is kept until every cap is set from one budget.
MAX_TABLES_D = 10007

# Checked purity columns, in the order of expected_purity_columns; (0,2) and
# (1,3) are the diagonally coordinated pairs of the square.
PURITY_COLUMNS = (
    ("single", ((0,), (1,), (2,), (3,))),
    ("diagonal_pair", ((0, 2), (1, 3))),
    ("adjacent_pair", ((0, 1), (1, 2), (2, 3), (0, 3))),
)


def _family_effective(family: str, d: int) -> str:
    """At d = 2 the negated edge is no negation at all, so P collapses to C."""
    if family == "P" and d == 2:
        return "C"
    return family


def expected_purity_columns(family: str, d: int) -> tuple[int, int, int]:
    """(single, diagonal pair, adjacent pair) entropy pattern of a family, in
    units of log d: each column's purity is d^-entropy."""
    return {"G": (1, 1, 1), "C": (1, 1, 2), "P": (1, 2, 2)}[_family_effective(family, d)]


def expected_first_counts(family: str, d: int) -> dict[str, int]:
    family = _family_effective(family, d)
    if family == "G":
        return {PRODUCT: 4, SNB: 0, GHZ3: 4 * d}
    if family == "C":
        return {PRODUCT: 0, SNB: 4, GHZ3: 4 * d}
    return {PRODUCT: 0, SNB: 0, GHZ3: 4 * (d + 1)}


def expected_pair_counts(family: str, d: int) -> dict[str, int]:
    family = _family_effective(family, d)
    if family == "G":
        return {PRODUCT: 24 * d + 12, BELL: 12 * d * d}
    if family == "C":
        return {PRODUCT: 20 * d + 8, BELL: 12 * d * d + 4 * d + 4}
    return {PRODUCT: 12 * d + 12, BELL: 12 * d * d + 12 * d}


# Exact persistency statistics at d = 3: (n_ave, n_min, delta).
_PERSISTENCY_D3 = {
    "G": (Fraction(37, 16), 1, Fraction(1, 8)),
    "C": (Fraction(127, 48), 2, Fraction(7, 24)),
    "P": (Fraction(11, 4), 2, Fraction(1, 2)),
}


def expected_n_min(family: str, d: int) -> int:
    return 1 if _family_effective(family, d) == "G" else 2


def expected_mmes(family: str, d: int) -> tuple[bool, bool]:
    """(1-MM, 2-MM) flags: only the P family reaches 2-MM, and only for d >= 3."""
    return (True, _family_effective(family, d) == "P")


class _Checklist:
    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, d: int, name: str, expected, actual) -> None:
        self.rows.append(
            {
                "d": d,
                "name": name,
                "expected": expected,
                "actual": actual,
                "pass": expected == actual,
            }
        )

    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


def _purity_section(d: int, profiles: dict, labels: list, checks: _Checklist) -> tuple[dict, dict]:
    """(purity profiles, k-MM flags) of the family entropy profiles, each
    subsystem under its ``labels`` entry. Each entropy is 0, 1 or 2, so the
    three purities 1, 1/d and 1/d^2 are formatted once and indexed by it."""
    forms = [exact_and_float(Fraction(1, d**e)) for e in range(3)]
    section, mmes = {}, {}
    for family, entropy in profiles.items():
        section[family] = {label: forms[entropy[keep]] for keep, label in labels}
        for (name, keeps), exp in zip(PURITY_COLUMNS, expected_purity_columns(family, d)):
            actual = tuple(forms[entropy[keep]]["float"] for keep in keeps)
            checks.add(d, f"purity:{family}:{name}", (forms[exp]["float"],) * len(keeps), actual)
        one_mm, two_mm = is_k_mm(entropy, 1), is_k_mm(entropy, 2)
        checks.add(d, f"mmes:{family}", expected_mmes(family, d), (one_mm, two_mm))
        mmes[family] = {"1mm": one_mm, "2mm": two_mm}
    return section, mmes


def _steering_section(d: int, tallies: dict, checks: _Checklist) -> tuple[dict, dict]:
    """(tallies, path trees and persistency, the ``PersistencyStats`` by
    family) of the family tallies."""
    firsts, pairs, trees, persistency, stats_of = {}, {}, {}, {}, {}
    for family, tally in tallies.items():
        fc, pc = tally.first_counts(), tally.pair_counts()
        firsts[family] = fc
        pairs[family] = pc
        trees[family] = tally.branch_tree(0)
        checks.add(d, f"first_tally:{family}", expected_first_counts(family, d), fc)
        checks.add(d, f"pair_tally:{family}", expected_pair_counts(family, d), pc)
        checks.add(d, f"pair_total:{family}", 12 * (d + 1) ** 2, sum(pc.values()))

        stats = stats_of[family] = persistency_stats(tally)
        n_ave, delta = exact_and_float(stats.n_ave), exact_and_float(stats.delta)
        persistency[family] = {"n_ave": n_ave, "n_min": stats.n_min, "delta": delta}
        checks.add(d, f"persistency_n_min:{family}", expected_n_min(family, d), stats.n_min)
        checks.add(d, f"n_ave_below_3:{family}", True, stats.n_ave < 3)
        if d == 3:
            exp_ave, _, exp_delta = _PERSISTENCY_D3[family]
            checks.add(d, f"persistency_n_ave:{family}", rational_str(exp_ave), n_ave["exact"])
            checks.add(d, f"persistency_delta:{family}", rational_str(exp_delta), delta["exact"])
    section = {
        "first_measurement_tallies": firsts,
        "pair_tallies": pairs,
        "path_tree": trees,
        "persistency": persistency,
    }
    return section, stats_of


def build_report(d_values: Sequence[int]) -> tuple[dict, bool]:
    """Full verified bundle over the given prime dimensions.

    The dimensions must be distinct primes up to MAX_TABLES_D. Returns
    (bundle, all_pass); every comparison row also appears under ``checks``.
    The purities come from each family graph's cut ranks and the tallies from
    one ``enumerate_paths`` over all family graphs.
    """
    d_values = [check_prime(d) for d in d_values]
    if any(d > MAX_TABLES_D for d in d_values):
        raise ValueError(f"tables supports prime dimensions up to {MAX_TABLES_D}")
    if len(set(d_values)) != len(d_values):
        raise ValueError(f"each dimension may be given once, got {d_values}")
    graphs = [family_graph(f, d) for d in d_values for f in FAMILIES]
    tallies = enumerate_paths(graphs)
    labels = [(keep, subsystem_label(keep)) for keep in all_subsystems()]
    checks = _Checklist()
    sections, n_aves = {}, {family: [] for family in FAMILIES}
    for i, d in enumerate(d_values):
        of_d = slice(i * len(FAMILIES), (i + 1) * len(FAMILIES))
        profiles = {f: graph_entropies(g) for f, g in zip(FAMILIES, graphs[of_d])}
        purities, mmes = _purity_section(d, profiles, labels, checks)
        steering, stats = _steering_section(d, dict(zip(FAMILIES, tallies[of_d])), checks)
        for family in FAMILIES:
            n_aves[family].append(stats[family].n_ave)
        sections[str(d)] = {"purities": purities, "mmes": mmes, **steering}
    if len(d_values) >= 2 and sorted(d_values) == d_values:
        for family, seq in n_aves.items():
            # exact: adjacent primes near 3e6 share a 12-digit float
            increasing = all(a < b for a, b in zip(seq, seq[1:]))
            checks.add(0, f"n_ave_monotone:{family}", True, increasing)
    bundle = {
        "metadata": metadata(
            d_values=list(d_values), families=list(FAMILIES), basis_order=BASIS_ORDER
        ),
        "sections": sections,
        "checks": checks.rows,
        "all_pass": checks.all_pass(),
    }
    return bundle, checks.all_pass()
