"""Structural computation of (1,1)-ball intersections.

The intersection of the single-deletion single-substitution balls of two
words x, x' is the union, over every deleted pair (z, z') at Hamming
distance at most 2, of the radius-1 substitution balls' intersection
B(z) & B(z').  Each such intersection has a direct form: the full
radius-1 ball of z when z == z', exactly q words (one per alphabet
symbol written at the single residual mismatch) at distance 1, and
exactly 2 words (each mismatch repaired with the other word's symbol)
at distance 2.  Generating those members straight from the deletion
positions and residual mismatches - never by materializing and
intersecting substitution balls - gives the exact intersection size in
O(n^2) scan time plus output size.

Two constructions of the deleted-pair family coexist:

* :func:`delsub.diffs.lambda_enumerate` scans all position pairs, and
* :func:`claims_lambda` builds each group directly from interval counts
  and landmark indices, without scanning.

They must agree groupwise; :func:`verify_claims` checks that, together
with the per-group cardinality and absorption facts that the coverage
bound 2qn - 3q - 2 - [q == 2] rests on, from one profile and one scan.

Every pair, at any Hamming distance, goes through the same structural
path; the materialized oracle of :mod:`delsub.balls` is for tests and
the CLI's ``--mode oracle`` only.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .diffs import (
    CASE_BY_TRIPLE,
    DiffProfile,
    GroupKey,
    PairGroups,
    PairValue,
    RawEntry,
    Word,
    group_pairs,
    landmarks,
    scan_candidates,
)
from .sequence import (
    Sequence, _delete_t, _phi_t, _require_same_shape, alternating, run_last_positions,
)

TRIPLE_BY_CASE: Dict[Tuple[int, int], Tuple[int, int, int]] = {
    (sum(t), c): t for t, c in CASE_BY_TRIPLE.items()
}

ALL_GROUP_KEYS: Tuple[GroupKey, ...] = tuple(
    [("L", 0, None), ("R", 0, None)]
    + [(side, 1, i) for side in ("L", "R") for i in (1, 2, 3)]
    + [(side, 2, i) for side in ("L", "R") for i in (1, 2, 3, 4, 5, 6)]
)


def kronecker_q2(q: int) -> int:
    return 1 if q == 2 else 0


def coverage_bound(n: int, q: int) -> int:
    """Upper bound on the (1,1)-ball intersection size of two length-n
    words at Hamming distance >= 2, valid for n >= min_valid_length(q)."""
    return 2 * q * n - 3 * q - 2 - kronecker_q2(q)


def min_valid_length(q: int) -> int:
    """Smallest n for which the coverage bound is guaranteed:
    n >= (q+23)/2 and n >= (5q+19)/(q-1)."""
    return max(-(-(q + 23) // 2), -(-(5 * q + 19) // (q - 1)))


def bound_applicable(n: int, q: int, d: int) -> bool:
    return d >= 2 and n >= min_valid_length(q)


def constant_regime_bound(q: int) -> int:
    """Size bound 4q + 32, independent of n, for pairs with Hamming
    distance >= 3 whose mismatch windows shift on both sides (in
    particular whenever the two words do not share a length n-1
    subsequence)."""
    return 4 * q + 32


def extremal_pair(q: int, n: int) -> Tuple[Sequence, Sequence]:
    """A pair of length-n words at Hamming distance 2 whose (1,1)-ball
    intersection meets the coverage bound once n is in the valid range.

    For q >= 3 the pair is 01201 / 10201 followed by an alternating
    tail; for q = 2 it is 0101 / 1001 followed by an alternating tail.
    """
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if q >= 3:
        if n < 5:
            raise ValueError("construction needs n >= 5 for q >= 3")
        head_x, head_y = "01201", "10201"
    else:
        if n < 4:
            raise ValueError("construction needs n >= 4 for q = 2")
        head_x, head_y = "0101", "1001"
    tail = alternating(n - len(head_x), 0, 1, q=q)
    return Sequence.parse(head_x, q) + tail, Sequence.parse(head_y, q) + tail


# ---------------------------------------------------------------------------
# Member expansion


def expand_members(
    xs: Word, ys: Word, q: int, side: str, ell: int, j: int, jprime: int,
    mismatches: Tuple[int, ...],
) -> List[Word]:
    """Members of B(z) & B(z') for the deleted pair selected by
    (side, j, j'), generated directly.

    Side L deletes j from x, side R deletes j from y; ``mismatches``
    are the original positions of the residual mismatches.  A mismatch
    inside [j+1, j'] compares against the other word one position to the
    left, which is what the target-symbol lookup below accounts for.
    """
    if side == "L":
        primary, other = xs, ys
    else:
        primary, other = ys, xs
    if ell == 0:
        z = _delete_t(primary, j)
        members = [z]
        for p in range(len(z)):
            base = z[p]
            for a in range(q):
                if a != base:
                    members.append(z[:p] + (a,) + z[p + 1 :])
        return members
    if ell == 1:
        m = mismatches[0]
        return [_phi_t(primary, j, m, a) for a in range(q)]
    members = []
    for m in mismatches:
        target = other[m - 1] if (m < j or m > jprime) else other[m - 2]
        members.append(_phi_t(primary, j, m, target))
    return members


def structural_group_sets(
    profile: DiffProfile, xs: Word, ys: Word, groups: PairGroups
) -> Dict[GroupKey, Set[Word]]:
    """Expand each group's distinct deleted pairs (from
    :func:`delsub.diffs.group_pairs`) into the group's member set."""
    q = profile.q
    out: Dict[GroupKey, Set[Word]] = {}
    for key, pairs in groups.items():
        side, ell, _ = key
        members: Set[Word] = set()
        for j, jprime in pairs.values():
            mism = profile.mismatch_positions(j, jprime, side)
            members.update(expand_members(xs, ys, q, side, ell, j, jprime, mism))
        out[key] = members
    return out


# ---------------------------------------------------------------------------
# Direct (claims-based) construction of the decomposition


def claims_lambda(x: Sequence, y: Sequence) -> Dict[GroupKey, FrozenSet[PairValue]]:
    """The distinct deleted pairs of every group, built directly from
    interval counts and landmarks without scanning position pairs; the
    same form as :func:`delsub.diffs.lambda_enumerate`.

    Groups whose characterization is only a containment are generated as
    candidates and validated against their defining count triple; a
    failing candidate is dropped.  Requires Hamming distance >= 2.
    """
    xs, ys = x.symbols, y.symbols
    groups = group_pairs(xs, ys, _claims_raw(DiffProfile(x, y), xs, ys))
    return {key: frozenset(pairs) for key, pairs in groups.items()}


def _claims_raw(p: DiffProfile, xs: Word, ys: Word) -> List[RawEntry]:
    """Both sides' groups from one profile.  The reversed pair (y, x) has
    TL equal to this pair's TR, so side R is side L of that pair read
    off TR and the m-landmarks."""
    if p.d < 2:
        raise ValueError("direct construction needs Hamming distance >= 2")
    m = landmarks(p)
    left = _claims_one_side(p, "L", xs, (m.k1, m.k1p, m.k2, m.k2p))
    return left + _claims_one_side(p, "R", ys, (m.m1, m.m1p, m.m2, m.m2p))


def _claims_one_side(
    p: DiffProfile, side: str, xs: Word, marks: Tuple[Optional[int], ...]
) -> List[RawEntry]:
    """One side's groups: ``xs`` is the word that loses position j (x on
    side L, y on side R) and ``marks`` the (k1, k1', k2, k2') landmarks
    of that side's shifted set."""
    s = p.s
    d = p.d
    n = p.n
    t = p.tl if side == "L" else p.tr
    i1, i2, id1, idd = s[0], s[1], s[-2], s[-1]
    k1, k1p, k2, k2p = marks
    out: List[RawEntry] = []

    def cnt(lo: int, hi: int) -> int:
        return p.t_count(side, lo, hi)

    def emit(ell: int, case: Optional[int], j: int, jprime: int) -> None:
        out.append((side, ell, case, j, jprime))

    def emit_validated(ell: int, case: int, j: int, jprime: int) -> None:
        if not 1 <= j <= jprime <= n:
            return
        triple = TRIPLE_BY_CASE[(ell, case)]
        if (
            p.s_count(1, j - 1) == triple[0]
            and cnt(j + 1, jprime) == triple[1]
            and p.s_count(jprime + 1, n) == triple[2]
        ):
            emit(ell, case, j, jprime)

    mid_all = cnt(i1 + 1, idd)

    # distance 0: one collapsed pair when nothing shifts inside [i1, id]
    if mid_all == 0:
        emit(0, None, i1, idd)

    # distance 1, case (1,0,0)
    if cnt(i2 + 1, idd) == 0:
        emit(1, 1, i2, idd)
    # distance 1, case (0,1,0)
    if mid_all == 1:
        emit(1, 2, i1, idd)
    elif mid_all == 0:
        if k1 is not None:
            emit_validated(1, 2, k1 - 1, idd)
        if k1p is not None:
            emit_validated(1, 2, i1, k1p)
    # distance 1, case (0,0,1)
    if cnt(i1 + 1, id1) == 0:
        emit(1, 3, i1, id1)

    # distance 2, case (2,0,0)
    if d == 2:
        for j in run_last_positions(xs, i2 + 1, n):
            emit(2, 1, j, j)
    else:
        if cnt(s[2] + 1, idd) == 0:
            emit(2, 1, s[2], idd)
    # distance 2, case (0,2,0)
    if mid_all == 2:
        emit(2, 2, i1, idd)
    elif mid_all == 1:
        if k1 is not None:
            emit_validated(2, 2, k1 - 1, idd)
        if k1p is not None:
            emit_validated(2, 2, i1, k1p)
    elif mid_all == 0:
        if k2 is not None:
            emit_validated(2, 2, k2 - 1, idd)
        if k1 is not None and k1p is not None:
            emit_validated(2, 2, k1 - 1, k1p)
        if k2p is not None:
            emit_validated(2, 2, i1, k2p)
    # distance 2, case (0,0,2)
    if d == 2:
        for j in run_last_positions(xs, 1, i1 - 1):
            emit(2, 3, j, j)
    else:
        if cnt(i1 + 1, s[-3]) == 0:
            emit(2, 3, i1, s[-3])
    # distance 2, case (0,1,1)
    mid_front = cnt(i1 + 1, id1)
    if mid_front == 1:
        emit(2, 4, i1, id1)
    elif mid_front == 0:
        if k1 is not None:
            emit_validated(2, 4, k1 - 1, id1)
        jp1 = _interval_min(t, id1 + 1, idd - 1)
        if jp1 is not None:
            emit_validated(2, 4, i1, jp1)
    # distance 2, case (1,0,1)
    if d == 2:
        for j in run_last_positions(xs, i1 + 1, i2 - 1):
            emit(2, 5, j, j)
    else:
        if cnt(i2 + 1, id1) == 0:
            emit(2, 5, i2, id1)
    # distance 2, case (1,1,0)
    mid_back = cnt(i2 + 1, idd)
    if mid_back == 1:
        emit(2, 6, i2, idd)
    elif mid_back == 0:
        if k1p is not None:
            emit_validated(2, 6, i2, k1p)
        j1 = _interval_max(t, i1 + 2, i2)
        if j1 is not None:
            emit_validated(2, 6, j1 - 1, idd)
    return out


def _interval_min(positions: Tuple[int, ...], lo: int, hi: int) -> Optional[int]:
    idx = bisect_left(positions, lo)
    if idx < len(positions) and positions[idx] <= hi:
        return positions[idx]
    return None


def _interval_max(positions: Tuple[int, ...], lo: int, hi: int) -> Optional[int]:
    idx = bisect_right(positions, hi)
    if idx > 0 and positions[idx - 1] >= lo:
        return positions[idx - 1]
    return None


# ---------------------------------------------------------------------------
# Fast intersection size


@dataclass(frozen=True)
class IntersectionReport:
    """Size and structure of a (1,1)-ball intersection.

    ``method`` is "structural" when the size came from the deleted-pair
    expansion, which :func:`intersection_size_fast` uses at every Hamming
    distance; "oracle" marks a report built from the materialized balls,
    which only the CLI's ``--mode oracle`` produces.  ``group_sizes`` holds
    each group's member count before cross-group deduplication; the
    overlap fields describe how the distance-1 and distance-2 members sit
    inside the distance-0 core.
    """

    n: int
    q: int
    d: int
    size: int
    method: str
    bound: int
    bound_applicable: bool
    group_sizes: Dict[str, int] = field(default_factory=dict)
    omega0_size: Optional[int] = None
    omega1_size: Optional[int] = None
    omega2_size: Optional[int] = None
    omega1_minus_omega0: Optional[int] = None
    omega2_minus_omega0: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "d": self.d,
            "size": self.size,
            "method": self.method,
            "bound": self.bound,
            "bound_applicable": self.bound_applicable,
            "group_sizes": dict(sorted(self.group_sizes.items())),
            "omega0_size": self.omega0_size,
            "omega1_size": self.omega1_size,
            "omega2_size": self.omega2_size,
            "omega1_minus_omega0": self.omega1_minus_omega0,
            "omega2_minus_omega0": self.omega2_minus_omega0,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False)


def group_label(key: GroupKey) -> str:
    side, ell, case = key
    return f"{side}:{ell}" if case is None else f"{side}:{ell}.{case}"


def intersection_size_fast(x: Sequence, y: Sequence) -> IntersectionReport:
    """Exact size of the (1,1)-ball intersection of two equal-length
    words, computed structurally at every Hamming distance (x == y
    included)."""
    _require_same_shape(x, y)
    n = len(x)
    if n < 3:
        raise ValueError("(1,1)-ball intersections need length at least 3")
    profile = DiffProfile(x, y)
    q, d = x.q, profile.d
    xs, ys = x.symbols, y.symbols
    sets = structural_group_sets(profile, xs, ys, group_pairs(xs, ys, scan_candidates(profile)))
    union: Set[Word] = set()
    levels: Dict[int, Set[Word]] = {0: set(), 1: set(), 2: set()}
    group_sizes: Dict[str, int] = {}
    for key, members in sets.items():
        group_sizes[group_label(key)] = len(members)
        levels[key[1]] |= members
        union |= members
    omega0, omega1, omega2 = levels[0], levels[1], levels[2]
    return IntersectionReport(
        n=n,
        q=q,
        d=d,
        size=len(union),
        method="structural",
        bound=coverage_bound(n, q),
        bound_applicable=bound_applicable(n, q, d),
        group_sizes=group_sizes,
        omega0_size=len(omega0),
        omega1_size=len(omega1),
        omega2_size=len(omega2),
        omega1_minus_omega0=len(omega1 - omega0),
        omega2_minus_omega0=len(omega2 - omega0),
    )


# ---------------------------------------------------------------------------
# Verification of the structural facts


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the direct construction and the cardinality /
    absorption facts on one pair."""

    x: Sequence
    y: Sequence
    group_checks: Tuple[CheckResult, ...]
    fact_checks: Tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.group_checks + self.fact_checks if c.applicable)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.group_checks + self.fact_checks if c.applicable and not c.passed]

    def to_dict(self) -> dict:
        return {
            "x": str(self.x),
            "y": str(self.y),
            "all_passed": self.all_passed,
            "group_checks": [c.to_dict() for c in self.group_checks],
            "fact_checks": [c.to_dict() for c in self.fact_checks],
        }


def verify_claims(x: Sequence, y: Sequence) -> VerificationReport:
    """Compare the direct per-group construction against the exhaustive
    scan, and evaluate every applicable cardinality/absorption fact used
    by the coverage bound.  Requires Hamming distance >= 2.

    One profile serves the scan, both sides of the direct construction
    and the member expansion behind the fact checks, and the scan is
    grouped once for the group checks, the expansion and the facts.
    """
    profile = DiffProfile(x, y)
    if profile.d < 2:
        raise ValueError("verification needs Hamming distance >= 2")
    xs, ys = x.symbols, y.symbols
    scanned = group_pairs(xs, ys, scan_candidates(profile))
    direct = group_pairs(xs, ys, _claims_raw(profile, xs, ys))
    group_checks = []
    for key in ALL_GROUP_KEYS:
        expected = scanned.get(key, {}).keys()
        got = direct.get(key, {}).keys()
        group_checks.append(
            CheckResult(
                name=group_label(key),
                applicable=True,
                passed=expected == got,
                detail="" if expected == got else
                f"direct has {len(got)} pairs, scan has {len(expected)}",
            )
        )
    sets = structural_group_sets(profile, xs, ys, scanned)
    fact_checks = _fact_checks(profile, scanned, sets)
    return VerificationReport(x, y, tuple(group_checks), tuple(fact_checks))


def _fact_checks(
    profile: DiffProfile, groups: PairGroups, sets: Dict[GroupKey, Set[Word]]
) -> List[CheckResult]:
    n, q, d = profile.n, profile.q, profile.d
    i1, idd = profile.s[0], profile.s[-1]
    omega: Dict[Tuple[str, int], Set[Word]] = {
        (side, ell): set() for side in ("L", "R") for ell in (0, 1, 2)
    }
    for (side, ell, _), members in sets.items():
        omega[(side, ell)] |= members
    omega_all = {ell: omega[("L", ell)] | omega[("R", ell)] for ell in (0, 1, 2)}

    def family(side: str, ell: int, cases) -> Set[PairValue]:
        out: Set[PairValue] = set()
        for c in cases:
            out.update(groups.get((side, ell, c), ()))
        return out

    def even_members(side: str) -> Set[Word]:
        out: Set[Word] = set()
        for c in (2, 4, 6):
            out |= sets.get((side, 2, c), set())
        return out

    checks: List[CheckResult] = []
    shifted = {s: profile.t_count(s, i1 + 1, idd) != 0 for s in ("L", "R")}

    for side in ("L", "R"):
        if not shifted[side]:
            ok = omega[(side, 1)] <= omega[(side, 0)]
            checks.append(CheckResult(f"dist1-absorbed[{side}]", True, ok))
            checks.append(CheckResult(f"dist1-family[{side}]", False, True))
        else:
            limit = 3 if d == 2 else 2
            count = len(family(side, 1, (1, 2, 3)))
            checks.append(CheckResult(f"dist1-absorbed[{side}]", False, True))
            checks.append(
                CheckResult(
                    f"dist1-family[{side}]", True, count <= limit,
                    f"{count} pairs vs limit {limit}",
                )
            )

    if d == 2:
        diag = family("L", 2, (1, 3, 5)) | family("R", 2, (1, 3, 5))
        checks.append(
            CheckResult(
                "dist2-diagonal-family", True, len(diag) <= n - 2,
                f"{len(diag)} pairs vs limit {n - 2}",
            )
        )
        for side in ("L", "R"):
            if shifted[side]:
                count = len(family(side, 2, (2, 4, 6)))
                checks.append(
                    CheckResult(
                        f"dist2-offdiag-family[{side}]", True, count <= 6,
                        f"{count} pairs vs limit 6",
                    )
                )
                checks.append(CheckResult(f"dist2-offdiag-new[{side}]", False, True))
            else:
                fresh = len(even_members(side) - omega[(side, 0)])
                checks.append(CheckResult(f"dist2-offdiag-family[{side}]", False, True))
                checks.append(
                    CheckResult(
                        f"dist2-offdiag-new[{side}]", True, fresh <= 6,
                        f"{fresh} new members vs limit 6",
                    )
                )
        if not shifted["L"] and not shifted["R"]:
            expected_core = 2 * (1 + (q - 1) * (n - 1)) - q
            core = len(omega_all[0])
            checks.append(
                CheckResult(
                    "adjacent-swap-core-size", True, core == expected_core,
                    f"core {core} vs expected {expected_core}",
                )
            )
            fresh = len(omega_all[2] - omega_all[0])
            limit = 2 * n - 6 - kronecker_q2(q)
            checks.append(
                CheckResult(
                    "adjacent-swap-new", True, fresh <= limit,
                    f"{fresh} new members vs limit {limit}",
                )
            )
        else:
            checks.append(CheckResult("adjacent-swap-core-size", False, True))
            checks.append(CheckResult("adjacent-swap-new", False, True))
    else:
        for side in ("L", "R"):
            if not shifted[side]:
                fresh = len(omega[(side, 2)] - omega[(side, 0)])
                checks.append(
                    CheckResult(
                        f"dist2-new-d3[{side}]", True, fresh <= 8,
                        f"{fresh} new members vs limit 8",
                    )
                )
                checks.append(CheckResult(f"dist2-family-d3[{side}]", False, True))
            else:
                count = len(family(side, 2, range(1, 7)))
                checks.append(CheckResult(f"dist2-new-d3[{side}]", False, True))
                checks.append(
                    CheckResult(
                        f"dist2-family-d3[{side}]", True, count <= 8,
                        f"{count} pairs vs limit 8",
                    )
                )
    return checks
