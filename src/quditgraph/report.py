"""Self-verifying report bundles over the canonical state families.

A bundle collects, per prime dimension, the purity profiles, the first- and
second-measurement tallies, the per-branch path tree, the persistency
statistics, and the maximal-mixing flags of the three reduced family states,
together with a checklist comparing every value against its closed-form
expectation. Every number comes from one stabilizer ``Tableau`` per family
and d, and no dense state is built: purities are exact cut ranks, d^-entropy.
Numeric entries carry both an exact-rational string and a float rounded to
12 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# purity_profile and family_reduced_state stay bound for perfbench/child.py's tracer.
from .measures import is_k_mm, purity_profile, subsystem_label, tableau_purity_profiles
from .pauli import check_prime
from .serialize import BASIS_ORDER, exact_and_float, metadata, rational_str
from .states import family_fourier_sites, family_graph, family_reduced_state, stabilizer_tableaux
from .steering import BELL, GHZ3, PRODUCT, SNB, enumerate_paths, persistency_stats

__all__ = [
    "build_report",
    "expected_first_counts",
    "expected_pair_counts",
    "expected_purity_columns",
]

FAMILIES = ("G", "C", "P")
# Every int64 product in the tableau arithmetic multiplies two residues mod d,
# so all intermediates stay below 2d^2 (about 2e8 here). Memory stays flat in
# d, so the cap bounds time: tables --d 10007 takes about 0.5 s.
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


def expected_purity_columns(family: str, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(single, diagonal pair, adjacent pair) purity pattern of a family."""
    family = _family_effective(family, d)
    one_d = Fraction(1, d)
    one_d2 = Fraction(1, d * d)
    if family == "G":
        return (one_d, one_d, one_d)
    if family == "C":
        return (one_d, one_d, one_d2)
    return (one_d, one_d2, one_d2)


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


def _purity_section(d: int, profiles: dict, checks: _Checklist) -> tuple[dict, dict]:
    """(purity profiles, k-MM flags) of the family profiles. Their exact
    purities are 1, 1/d or 1/d^2, so those three are formatted once."""
    forms = {(1, d**e): exact_and_float(Fraction(1, d**e)) for e in range(3)}

    def form(v: Fraction) -> dict:
        return forms.get((v.numerator, v.denominator)) or exact_and_float(v)

    section, mmes = {}, {}
    for family, profile in profiles.items():
        section[family] = {subsystem_label(k): form(v) for k, v in profile.values.items()}
        for (name, keeps), exp in zip(PURITY_COLUMNS, expected_purity_columns(family, d)):
            actual = tuple(form(profile[keep])["float"] for keep in keeps)
            checks.add(d, f"purity:{family}:{name}", (form(exp)["float"],) * len(keeps), actual)
        one_mm, two_mm = is_k_mm(profile, 1), is_k_mm(profile, 2)
        checks.add(d, f"mmes:{family}", expected_mmes(family, d), (one_mm, two_mm))
        mmes[family] = {"1mm": one_mm, "2mm": two_mm}
    return section, mmes


def _steering_section(d: int, runs: dict, checks: _Checklist) -> dict:
    """Tallies, path trees and persistency of the family (tableau, tally) runs."""
    firsts, pairs, trees, persistency = {}, {}, {}, {}
    for family, (tableau, tally) in runs.items():
        fc, pc = tally.first_counts(), tally.pair_counts()
        firsts[family] = fc
        pairs[family] = pc
        trees[family] = tally.branch_tree(0)
        checks.add(d, f"first_tally:{family}", expected_first_counts(family, d), fc)
        checks.add(d, f"pair_tally:{family}", expected_pair_counts(family, d), pc)
        checks.add(d, f"pair_total:{family}", 12 * (d + 1) ** 2, sum(pc.values()))

        stats = persistency_stats(tableau, tally)
        persistency[family] = {
            "n_ave": exact_and_float(stats.n_ave),
            "n_min": stats.n_min,
            "delta": exact_and_float(stats.delta),
        }
        checks.add(d, f"persistency_n_min:{family}", expected_n_min(family, d), stats.n_min)
        checks.add(d, f"n_ave_below_3:{family}", True, stats.n_ave < 3)
        if d == 3:
            exp_ave, _, exp_delta = _PERSISTENCY_D3[family]
            checks.add(d, f"persistency_n_ave:{family}", rational_str(exp_ave),
                       rational_str(stats.n_ave))
            checks.add(d, f"persistency_delta:{family}", rational_str(exp_delta),
                       rational_str(stats.delta))
    return {
        "first_measurement_tallies": firsts,
        "pair_tallies": pairs,
        "path_tree": trees,
        "persistency": persistency,
    }


def build_report(d_values: Sequence[int]) -> tuple[dict, bool]:
    """Full verified bundle over the given prime dimensions.

    The dimensions must be distinct primes up to MAX_TABLES_D. Returns
    (bundle, all_pass); every comparison row also appears under ``checks``.
    The family tableaux are built and checked as one batch, the purities come
    from one batched entropy call and the tallies from one ``enumerate_paths``.
    """
    d_values = [check_prime(d) for d in d_values]
    if any(d > MAX_TABLES_D for d in d_values):
        raise ValueError(f"tables supports prime dimensions up to {MAX_TABLES_D}")
    if len(set(d_values)) != len(d_values):
        raise ValueError(f"each dimension may be given once, got {d_values}")
    tableaux = stabilizer_tableaux((family_graph(f, d), family_fourier_sites(f))
                                   for d in d_values for f in FAMILIES)
    profiles = tableau_purity_profiles(tableaux)
    tallies = enumerate_paths(tableaux)
    checks = _Checklist()
    sections = {}
    for i, d in enumerate(d_values):
        of_d = slice(i * len(FAMILIES), (i + 1) * len(FAMILIES))
        purities, mmes = _purity_section(d, dict(zip(FAMILIES, profiles[of_d])), checks)
        runs = dict(zip(FAMILIES, zip(tableaux[of_d], tallies[of_d])))
        steering = _steering_section(d, runs, checks)
        sections[str(d)] = {"purities": purities, "mmes": mmes, **steering}
    if len(d_values) >= 2 and sorted(d_values) == d_values:
        for family in FAMILIES:
            # exact: adjacent primes near 3e6 share a 12-digit float
            seq = [Fraction(sections[str(d)]["persistency"][family]["n_ave"]["exact"])
                   for d in d_values]
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
