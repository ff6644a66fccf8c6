"""Gathering detection: brute force, Test-and-Divide (TAD) and TAD*.

A gathering (Definition 4) is a crowd in which every snapshot cluster
contains at least ``m_p`` participators — objects that appear in at least
``k_p`` clusters of the crowd.  Because the property is *not* downward
closed, the paper detects closed gatherings within each closed crowd with the
Test-and-Divide algorithm (Algorithm 2):

1. **Test** whether the crowd is a gathering.  If yes it is closed
   (Theorem 1) and returned.
2. Otherwise **divide** the crowd at its invalid clusters (those with fewer
   than ``m_p`` participators) and recurse on each piece that is still long
   enough to be a crowd.

TAD* performs the same recursion entirely on bit-vector signatures: the BVS
of every object is built once, sub-crowds are selected with masks, and
occurrence counting uses the mask-based Hamming weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .bitvector import BitVector, build_signatures
from .config import GatheringParameters
from .crowd import Crowd

__all__ = [
    "Gathering",
    "participators",
    "invalid_clusters",
    "is_gathering",
    "detect_gatherings_brute_force",
    "detect_gatherings_tad",
    "detect_gatherings_tad_star",
    "detect_gatherings_tad_star_packed",
    "detect_gatherings",
    "dedupe_gatherings",
    "DETECTORS",
    "make_detector",
]


@dataclass(frozen=True)
class Gathering:
    """A closed gathering: the crowd plus its participator set."""

    crowd: Crowd
    participator_ids: frozenset

    @property
    def lifetime(self) -> int:
        """Number of timestamps the gathering spans (``Cr.tau``)."""
        return self.crowd.lifetime

    @property
    def start_time(self) -> float:
        """Timestamp of the first cluster."""
        return self.crowd.start_time

    @property
    def end_time(self) -> float:
        """Timestamp of the last cluster."""
        return self.crowd.end_time

    def keys(self) -> Tuple[Tuple[float, int], ...]:
        """Hashable identity of the gathering (its crowd's cluster keys)."""
        return self.crowd.keys()

    def __len__(self) -> int:
        return len(self.crowd)


# ---------------------------------------------------------------------------
# Plain (non bit-vector) primitives
# ---------------------------------------------------------------------------
def participators(crowd: Crowd, kp: int) -> Set[int]:
    """``Par(Cr)`` — objects appearing in at least ``kp`` clusters of the crowd."""
    return crowd.participators(kp)


def invalid_clusters(crowd: Crowd, kp: int, mp: int) -> List[int]:
    """Positional indices of clusters with fewer than ``mp`` participators."""
    par = participators(crowd, kp)
    bad = []
    for index, cluster in enumerate(crowd):
        count = sum(1 for oid in cluster.object_ids() if oid in par)
        if count < mp:
            bad.append(index)
    return bad


def is_gathering(crowd: Crowd, kp: int, mp: int) -> bool:
    """Definition 4: every cluster holds at least ``mp`` participators."""
    return not invalid_clusters(crowd, kp, mp)


def _split_on_invalid(length: int, bad: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal runs ``[start, end)`` of positions avoiding the bad indices."""
    bad_set = set(bad)
    pieces = []
    start = None
    for index in range(length):
        if index in bad_set:
            if start is not None:
                pieces.append((start, index))
                start = None
        elif start is None:
            start = index
    if start is not None:
        pieces.append((start, length))
    return pieces


# ---------------------------------------------------------------------------
# Brute-force baseline
# ---------------------------------------------------------------------------
def detect_gatherings_brute_force(
    crowd: Crowd, params: GatheringParameters
) -> List[Gathering]:
    """Enumerate contiguous sub-crowds from longest to shortest.

    A sub-crowd is reported when it is a gathering and is not contained in a
    gathering already reported (so the output is closed within the given
    crowd).  This is the baseline the paper measures TAD against.
    """
    n = crowd.lifetime
    found: List[Crowd] = []
    for length in range(n, params.kc - 1, -1):
        for start in range(0, n - length + 1):
            candidate = crowd.subsequence(start, start + length)
            if any(existing.contains_subsequence(candidate) for existing in found):
                continue
            if is_gathering(candidate, params.kp, params.mp):
                found.append(candidate)
    return [
        Gathering(crowd=c, participator_ids=frozenset(participators(c, params.kp)))
        for c in found
    ]


# ---------------------------------------------------------------------------
# TAD — Algorithm 2 with plain counting
# ---------------------------------------------------------------------------
def detect_gatherings_tad(crowd: Crowd, params: GatheringParameters) -> List[Gathering]:
    """Test-and-Divide with straightforward occurrence counting."""
    results: List[Gathering] = []
    stack: List[Crowd] = [crowd]
    while stack:
        current = stack.pop()
        if current.lifetime < params.kc:
            continue
        bad = invalid_clusters(current, params.kp, params.mp)
        if not bad:
            results.append(
                Gathering(
                    crowd=current,
                    participator_ids=frozenset(participators(current, params.kp)),
                )
            )
            continue
        for start, end in _split_on_invalid(current.lifetime, bad):
            if end - start >= params.kc:
                stack.append(current.subsequence(start, end))
    return results


# ---------------------------------------------------------------------------
# TAD* — Algorithm 2 on bit-vector signatures
# ---------------------------------------------------------------------------
def _mask_invalid_positions(
    signature_values: Dict[int, int],
    cluster_members: Sequence[frozenset],
    start: int,
    end: int,
    mask: int,
    kp: int,
    mp: int,
    candidates: Sequence[int],
) -> Tuple[List[int], Set[int]]:
    """Invalid positions (within the masked sub-crowd) and its participators.

    Works on raw integers so the inner loop is a single AND + popcount per
    object, exactly the operation TAD* performs on its bit-vector signatures.
    Only ``candidates`` (the parent sub-crowd's participators) are scanned —
    a non-participator of a crowd can never be a participator of one of its
    sub-crowds.
    """
    par: Set[int] = set()
    for object_id in candidates:
        if (signature_values[object_id] & mask).bit_count() >= kp:
            par.add(object_id)
    bad = []
    for position in range(start, end):
        members = cluster_members[position]
        count = sum(1 for oid in members if oid in par)
        if count < mp:
            bad.append(position)
    return bad, par


def detect_gatherings_tad_star(
    crowd: Crowd,
    params: GatheringParameters,
    signatures: Optional[Dict[int, BitVector]] = None,
) -> List[Gathering]:
    """Test-and-Divide implemented with bit-vector signatures (TAD*).

    The signatures are built once (or supplied by the caller, as the
    incremental gathering-update does) and reused by every recursion level;
    sub-crowds are represented as masks over them.
    """
    width = crowd.lifetime
    if signatures is None:
        signatures = build_signatures(crowd)
    signature_values = {oid: bv.value for oid, bv in signatures.items()}
    cluster_members = [cluster.object_ids() for cluster in crowd]

    results: List[Gathering] = []
    # Each work item is the contiguous index range [start, end) it covers,
    # plus the objects that can still be participators inside it.
    all_objects = tuple(signature_values)
    stack: List[Tuple[int, int, Tuple[int, ...]]] = [(0, width, all_objects)]
    while stack:
        start, end, candidates = stack.pop()
        if end - start < params.kc:
            continue
        mask = ((1 << end) - 1) ^ ((1 << start) - 1)
        bad, par = _mask_invalid_positions(
            signature_values,
            cluster_members,
            start,
            end,
            mask,
            params.kp,
            params.mp,
            candidates,
        )
        if not bad:
            sub = crowd.subsequence(start, end)
            results.append(Gathering(crowd=sub, participator_ids=frozenset(par)))
            continue
        # Split the current range at the invalid positions; children only need
        # to re-examine this range's participators.
        surviving = tuple(par)
        bad_set = set(bad)
        run_start = None
        for position in range(start, end):
            if position in bad_set:
                if run_start is not None:
                    stack.append((run_start, position, surviving))
                    run_start = None
            elif run_start is None:
                run_start = position
        if run_start is not None:
            stack.append((run_start, end, surviving))
    return results


#: Below this many total memberships (sum of cluster sizes) the packed TAD*
#: delegates to the scalar variant — array fixed costs dominate there.
_PACKED_MIN_MEMBERSHIPS = 2048


def detect_gatherings_tad_star_packed(
    crowd: Crowd,
    params: GatheringParameters,
    matrix=None,
) -> List[Gathering]:
    """Test-and-Divide on a packed ``uint64`` membership matrix (TAD*, numpy).

    The columnar twin of :func:`detect_gatherings_tad_star`: the bit-vector
    signatures of every object live as rows of one
    :class:`~repro.engine.bitmatrix.MembershipMatrix` (built once, or
    supplied by the caller), sub-crowds are ``[start, end)`` bit ranges over
    it, and both TAD* counting steps — per-object occurrences and
    per-cluster participator support — run as vectorized popcount / column
    reductions instead of per-object loops.  Output (gatherings *and* their
    order) is identical to the scalar TAD*.
    """
    width = crowd.lifetime
    if matrix is None:
        if sum(len(cluster) for cluster in crowd) < _PACKED_MIN_MEMBERSHIPS:
            # Tiny crowds: the scalar big-int TAD* beats the fixed cost of
            # building and masking a matrix.  Results are identical either
            # way, so this is purely a kernel choice.
            return detect_gatherings_tad_star(crowd, params)
        from ..engine.bitmatrix import MembershipMatrix

        matrix = MembershipMatrix.from_crowd(crowd)

    results: List[Gathering] = []
    # Work items mirror the scalar TAD*: a contiguous index range plus the
    # rows that can still be participators inside it (a sub-crowd can never
    # gain participators its parent lacked).
    stack = [(0, width, matrix.all_rows())]
    while stack:
        start, end, rows = stack.pop()
        if end - start < params.kc:
            continue
        par_rows = matrix.participator_rows(rows, start, end, params.kp)
        support = matrix.position_support(par_rows, start, end)
        bad = [start + offset for offset, count in enumerate(support) if count < params.mp]
        if not bad:
            results.append(
                Gathering(
                    crowd=crowd.subsequence(start, end),
                    participator_ids=matrix.object_ids_of(par_rows),
                )
            )
            continue
        bad_set = set(bad)
        run_start = None
        for position in range(start, end):
            if position in bad_set:
                if run_start is not None:
                    stack.append((run_start, position, par_rows))
                    run_start = None
            elif run_start is None:
                run_start = position
        if run_start is not None:
            stack.append((run_start, end, par_rows))
    return results


def dedupe_gatherings(gatherings: Sequence[Gathering]) -> List[Gathering]:
    """Drop duplicate gatherings, keeping first-seen order.

    Two closed crowds that branch from a shared cluster prefix (several
    clusters within ``delta`` of one candidate's last cluster) can each
    yield the *same* closed gathering inside that prefix, so collecting
    per-crowd detection output naively reports it once per crowd.  Identity
    is the gathering's cluster-key sequence plus its participator set —
    exactly the pair that makes two gatherings indistinguishable.
    """
    seen = set()
    unique: List[Gathering] = []
    for gathering in gatherings:
        key = (gathering.keys(), gathering.participator_ids)
        if key not in seen:
            seen.add(key)
            unique.append(gathering)
    return unique


def detect_gatherings(
    crowd: Crowd, params: GatheringParameters, method: str = "TAD*"
) -> List[Gathering]:
    """Dispatch helper used by the pipeline and the benchmarks."""
    normalized = method.upper()
    if normalized in ("TAD*-PACKED", "TADSTAR-PACKED", "TAD_STAR_PACKED"):
        return detect_gatherings_tad_star_packed(crowd, params)
    if normalized in ("TAD*", "TADSTAR", "TAD_STAR"):
        return detect_gatherings_tad_star(crowd, params)
    if normalized == "TAD":
        return detect_gatherings_tad(crowd, params)
    if normalized in ("BRUTE", "BRUTE-FORCE", "BRUTEFORCE"):
        return detect_gatherings_brute_force(crowd, params)
    raise ValueError(f"unknown gathering-detection method {method!r}")


#: The gathering detectors, as ``(name, backend) -> description``.  Every
#: name runs on both backends; only TAD* has a distinct numpy variant.
DETECTORS: Dict[Tuple[str, str], str] = {
    ("BRUTE", "python"): "enumerate-and-test gathering detection",
    ("TAD", "python"): "test-and-divide gathering detection",
    ("TAD*", "python"): "bit-vector accelerated test-and-divide",
    ("TAD*", "numpy"): "test-and-divide on a packed uint64 membership matrix",
}


def make_detector(
    name: str, backend: str = "python"
) -> Callable[[Crowd, GatheringParameters], List[Gathering]]:
    """The ``detector(crowd, params)`` callable for a method and backend.

    ``name`` is one of the :data:`DETECTORS` names (case-insensitive).  The
    numpy backend's TAD* runs on the packed membership matrix; every other
    combination runs :func:`detect_gatherings` with that method.
    """
    normalized = name.upper()
    if (normalized, "python") not in DETECTORS:
        names = sorted({method for method, _ in DETECTORS})
        raise ValueError(f"unknown gathering-detection method {name!r}; choose from {names}")
    if backend == "numpy" and normalized == "TAD*":
        return detect_gatherings_tad_star_packed
    return partial(detect_gatherings, method=normalized)
