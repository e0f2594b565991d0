"""Certification of exceptional collections, and the K-theory classes of
their mutations.

Per ordered pair (E_i, E_j) of a candidate collection we combine two
one-sided tools, both from data of single objects: a Teleman vanishing
certificate for the higher cohomology of dual(E_i) (x) E_j, and its
Riemann-Roch Euler characteristic chi.  On each stratum the largest weight
of dual(E_i) (x) E_j is max w(E_j) - min w(E_i), so each object gets two
comparison vectors over the strata, once: a limit min w(E_i) + eta - 1 and
a top max w(E_j).  The pair is certified when the top of E_j is at most the
limit of E_i on every stratum; only a failing pair lists its blocking
strata, with margin limit - top + 1.  A zero bundle has no weights and
bounds nothing.  A twist E(n) is weighed from the ranges of E, shifted
exactly (see ``strata``), and a row's chi values pair its object's row of
the bilinear form of ``chow`` with each ch, in one pass.  A certificate
plus chi = 1 on the diagonal certifies exceptionality; below the diagonal
(i < j) a certificate pins the morphism space to degree 0 of dimension
chi; above the diagonal a certificate plus chi = 0 certifies
orthogonality.  Anything else is reported as undetermined, never as a
disproof.  A collection is accepted when every diagonal pair is
exceptional, every forward pair strong and every backward chi 0; ``cli``
shapes the summary of the verdicts.

``mutate`` gives the class of the mutation of an object across an
exceptional block, by integer substitution on the block's Gram matrix of
chi.  Each collection of ``VARIANTS`` is one mutation spliced into a
built-in collection, each identity of ``check_ch_identities`` is one
mutation, and so are three classes of the mutation ledger.  Fullness of a
collection is out of reach of these certificates and is never claimed.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from math import inf
from operator import le, mul

from .bundles import U1, U2, BundleExpr, O, WorkBudget, dual, parse_expr, sl, tensor, twist
from .chow import ChowElement, ch_of, chi_row, scaled_pairing
from .strata import Moduli, unstable_strata, weight_ranges

#: Largest object count of a collection read from JSON: the work, memory and
#: output of ``verify_collection`` grow with its square.
MAX_OBJECTS = 128

EXCEPTIONAL = "exceptional-certified"
STRONG_EXT = "strong-ext-certified"
ORTHOGONAL = "orthogonality-certified"
UNDETERMINED = "undetermined"

FULLNESS_NOTE = (
    "certificates cover exceptionality and semiorthogonality only; "
    "fullness of a collection is not checked"
)


class CollectionSpec(namedtuple("CollectionSpec", "objects")):
    """An ordered candidate collection with display labels."""

    __slots__ = ()

    def __new__(cls, objects: tuple[tuple[str, BundleExpr], ...]):
        if not objects:
            raise ValueError("collection must be nonempty")
        return super().__new__(cls, objects)

    @classmethod
    def from_json(cls, text: str) -> "CollectionSpec":
        """Read ``{"objects": [{"expr": ..., "label": ...}, ...]}``: a list of
        at most ``MAX_OBJECTS`` objects, each with a string ``expr`` and an
        optional string ``label`` (the expression by default)."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("collection JSON nested too deeply") from None
        items = data.get("objects") if isinstance(data, dict) else None
        if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
            raise ValueError('collection JSON needs an "objects" list of objects')
        if len(items) > MAX_OBJECTS:
            raise ValueError(f"object count above {MAX_OBJECTS}")
        objects = []
        for item in items:
            text, label = item.get("expr"), item.get("label")
            if not isinstance(text, str) or not isinstance(label, (str, type(None))):
                raise ValueError('a collection object needs a string "expr", and its "label", '
                                 'if given, must be a string')
            expr = parse_expr(text)
            objects.append((str(expr) if label is None else label, expr))
        return cls(tuple(objects))

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.objects)


@lru_cache(maxsize=1)
def standard_collection() -> CollectionSpec:
    """The built-in 13-object strong exceptional collection on Y."""
    objects = [("sl(U1)", sl(U1)), ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)),
               ("U2(1)", twist(U2, 1))]
    for k in (1, 2):
        objects += [(f"O({k})", O(k)), (f"U2*({k})", twist(dual(U2), k)),
                    (f"U1*({k})", twist(dual(U1), k)), (f"U2({k + 1})", twist(U2, k + 1))]
    return CollectionSpec(tuple(objects))


#: The variant collections, each one mutation in a collection built before it:
#: ``(name, parent, moved, block, side, sign, (label, expression))``.  The object
#: at position ``moved`` of the parent crosses the positions ``block``, kept in the
#: listed order, and becomes the new object, of class ``sign * mutate(moved, block, side)``.
VARIANTS = (
    ("sl_after_block0", "standard", 0, range(1, 5), "right", 1,
     ("sl(U1*)(1)", "twist(sl(dual(U1)),1)")),
    ("sl_after_block1", "standard", 0, range(1, 9), "right", 1,
     ("sl(U1*)(2)", "twist(sl(dual(U1)),2)")),
    ("sl_after_block2", "standard", 0, range(1, 13), "right", 1,
     ("sl(U1*)(3)", "twist(sl(dual(U1)),3)")),
    ("tensor_for_u2_1", "sl_after_block1", 3, range(4, 10), "right", -1,
     ("U1*xU2(2)", "tensor(dual(U1),twist(U2,2))")),
    # the block's first two objects are orthogonal both ways, so they trade places
    ("tensor_for_u2star_2", "sl_after_block0", 10, (5, 4, 6, 7, 8, 9), "left", -1,
     ("U1*xU2*", "tensor(dual(U1),dual(U2))")),
)


def collection_variants() -> dict[str, CollectionSpec]:
    """The ``VARIANTS`` spliced in order: three positions of the twisted sl(U1*),
    and two collections trading one object for a rank-6 tensor product."""
    built = {"standard": standard_collection().objects}
    for name, parent, moved, block, side, _, (label, text) in VARIANTS:
        objects, new, span = built[parent], ((label, parse_expr(text)),), (*block, moved)
        crossed = tuple(objects[p] for p in block)
        built[name] = (objects[:min(span)] + (crossed + new if side == "right" else new + crossed)
                       + objects[max(span) + 1:])
    return {name: CollectionSpec(built[name]) for name, *_ in VARIANTS}


def mutate(moved: BundleExpr, block, side: str) -> ChowElement:
    """The K-theory class ch(E) - sum c_i ch(A_i) of the mutation of E =
    ``moved`` across an exceptional block A_1 ... A_n, up to the sign of its
    shift: to the block's right, where the class has chi(-, A_j) = 0, or to
    its left, where it has chi(A_j, -) = 0.  The Gram matrix chi(A_i, A_j) is
    upper unitriangular, so the integers c come from substitution on it,
    forward to the right and backward to the left."""
    if side not in ("right", "left"):
        raise ValueError('side must be "right" or "left"')
    objects = (*block, moved)
    rows, chs = [chi_row(e) for e in objects], [ch_of(e) for e in objects]

    def pairing(i, j):
        """chi(objects[i], objects[j]), its factors swapped to the left."""
        if side == "left":
            i, j = j, i
        return scaled_pairing(rows[i], chs[j], objects[i], objects[j])

    c = {}
    for j in range(len(block)) if side == "right" else reversed(range(len(block))):
        c[j] = pairing(-1, j) - sum(k * pairing(i, j) for i, k in c.items() if k)
    return sum((-k * chs[j] for j, k in c.items() if k), chs[-1])


#: The verdict on one ordered pair; ``blocking`` has ``(hn_type, margin)`` per failing stratum.
PairStatus = namedtuple("PairStatus", "i j chi teleman_pass verdict blocking")


class VerificationMatrix(namedtuple("VerificationMatrix", "pairs")):
    """The verdicts on all ordered pairs: pair ``(i, j)`` is ``pairs[i][j]``."""

    __slots__ = ()

    @property
    def accepted(self) -> bool:
        """Every diagonal pair exceptional, every forward pair strong and every
        backward chi 0; so only backward pairs can be undetermined."""
        return all(p.chi == 0 if p.i > p.j
                   else p.verdict == (EXCEPTIONAL if p.i == p.j else STRONG_EXT)
                   for row in self.pairs for p in row)


def _pair_verdict(i: int, j: int, chi_value: int, passed: bool) -> str:
    if i == j and passed and chi_value == 1:
        return EXCEPTIONAL
    if i < j and passed and chi_value >= 0:
        return STRONG_EXT
    if i > j and passed and chi_value == 0:
        return ORTHOGONAL
    return UNDETERMINED


def verify_collection(
    spec: CollectionSpec, moduli: Moduli | None = None
) -> VerificationMatrix:
    """Run the pairwise certification over all ordered pairs, from the
    comparison vectors, and chi from the objects' rows of the bilinear form.
    The weight ranges of all distinct objects share one WorkBudget.  Chi
    comes from the Chow ring of Y, so any moduli but Y's are refused."""
    if moduli not in (None, Moduli.kronecker23()):
        raise ValueError("collections are certified on Y only: moduli must be Moduli.kronecker23()")
    moduli = Moduli.kronecker23()
    objects = [e for _, e in spec.objects]
    budget = WorkBudget()
    distinct = {e: weight_ranges(e, moduli, budget) for e in dict.fromkeys(objects)}
    ranges = [distinct[e] for e in objects]
    strata = unstable_strata(moduli)
    types = [s.hn_type for s in strata]
    # the comparison vectors; a zero bundle has no weights and bounds nothing
    limits = [tuple(inf if r is None else r[0] + s.eta - 1 for r, s in zip(rs, strata))
              for rs in ranges]
    tops = [tuple(-inf if r is None else r[1] for r in rs) for rs in ranges]
    chs = [ch_of(e) for e in objects]
    grid = []
    for i, (ei, limit) in enumerate(zip(objects, limits)):
        left = d, r = chi_row(ei)
        # scaled_pairing's division for the whole row; it is called only to
        # raise for a chi that is not an integer
        chis = [divmod(sum(map(mul, r, y.nums)), d * y.den) for y in chs]
        row = []
        for j, (ej, top, (chi_value, rest)) in enumerate(zip(objects, tops, chis)):
            if rest:
                scaled_pairing(left, chs[j], ei, ej)
            if all(map(le, top, limit)):
                passed, blocking = True, ()
            else:
                passed = False
                blocking = tuple((tau, b - t + 1) for tau, t, b in zip(types, top, limit) if t > b)
            row.append(PairStatus(i, j, chi_value, passed,
                                  _pair_verdict(i, j, chi_value, passed), blocking))
        grid.append(tuple(row))
    return VerificationMatrix(tuple(grid))


# -- Chern character identities and the mutation ledger ------------------------

@lru_cache(maxsize=1)
def check_ch_identities() -> tuple[tuple[str, bool], ...]:
    """Exact Chern-character identities among the collection's objects, each one
    right mutation: ch(lhs) = sign * mutate(moved, block, "right"), as ``(name, holds)``
    pairs.  Computed once per process."""
    std = [e for _, e in standard_collection().objects]
    slv = sl(std[3])  # sl(U1*); std[5] and std[9] are O(1) and O(2)
    slv_1, u1_u2_1 = tensor(slv, std[5]), tensor(std[3], std[4])  # twist(slv, 1), U1* x U2(1)
    rows = (
        ("sl_twist_exchange", slv_1, 1, std[0], std[1:5]),
        ("rank6_tensor_twist1", u1_u2_1, -1, U2, std[1:5] + [slv_1, std[5]]),
        ("rank6_tensor_twist2", tensor(std[3], std[8]), -1, std[4],  # U1* x U2(2)
         std[5:9] + [tensor(slv, std[9]), std[9]]),
        ("rank6_tensor_expanded", u1_u2_1, -1, U2, std[:6]),
    )
    return tuple((name, ch_of(lhs) == sign * mutate(moved, block, "right"))
                 for name, lhs, sign, moved, block in rows)


@lru_cache(maxsize=1)
def mutation_ledger_check() -> tuple[tuple[str, bool], ...]:
    """Rank bookkeeping and the coincidence of the two mutation routes, on
    the K-theory classes l6 ... l2 of the shifted mutation bundles, as
    ``(name, holds)`` pairs.  l6 is U2(1); l5, l4 and l3 are -, - and + U2(1)
    right-mutated across the first one, two and three objects of O(1),
    U2*(1), U1*(1); l2 comes from an exact sequence.  Computed once per
    process."""
    std = [e for _, e in standard_collection().objects]
    l6 = ch_of(std[4])
    l5, l4, l3 = (sign * mutate(std[4], std[5:5 + k], "right")
                  for k, sign in ((1, -1), (2, -1), (3, 1)))
    l2 = 3 * ch_of(tensor(dual(U1), twist(U1, 2))) - ch_of(tensor(dual(U1), twist(U2, 2)))

    def has_rank(x: ChowElement, r: int) -> bool:
        return x.nums[0] == r * x.den  # the degree-0 coordinate is the rank

    return (
        ("l3_equals_l2", l3 == l2),
        ("rank_l5_is_3", has_rank(l5, 3)),
        ("rank_l4_is_12", has_rank(l4, 12)),
        ("rank_l3_is_6", has_rank(l3, 6)),
        ("rank_l2_is_6", has_rank(l2, 6)),
        ("l5_degree1_part",
         l5.degree_part(1) == 6 * ch_of(O(1)).degree_part(1) - l6.degree_part(1)),
    )
