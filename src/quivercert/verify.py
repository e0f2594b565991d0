"""Certification of exceptional collections and K-theoretic mutation
bookkeeping.

Per ordered pair (E_i, E_j) of a candidate collection we combine two
one-sided tools: a Teleman vanishing certificate for the higher
cohomology of dual(E_i) (x) E_j, and its Riemann-Roch Euler
characteristic.  Both come from data of single objects.  On each stratum
the largest weight of dual(E_i) (x) E_j is max w(E_j) - min w(E_i), so
each object gets two comparison vectors over the strata, once: a limit
min w(E_i) + eta - 1 and a top max w(E_j).  The pair is certified when
the top of E_j is at most the limit of E_i on every stratum; only a
failing pair lists its blocking strata, with margin limit - top + 1 =
eta - (max w(E_j) - min w(E_i)).  A zero bundle has no weights and
bounds nothing.  Chi is the integral of dual(ch(E_i)) * ch(E_j) *
Todd(Y), an integer dot product of the Gram row of dual(ch(E_i)) with
ch(E_j) * Todd(Y), both cleared of denominators once per object.  A
certificate plus chi = 1 on the diagonal certifies exceptionality; below
the diagonal (i < j) a certificate pins the morphism space to degree 0
of dimension chi; above the diagonal a certificate plus chi = 0
certifies orthogonality.  Anything else is reported as undetermined,
never as a disproof.

Fullness of a collection is out of reach of these certificates and is
never claimed.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from operator import le

from .bundles import U1, U2, BundleExpr, O, WorkBudget, dual, parse_expr, sl, tensor, twist
from .chow import ChowElement, ch_of, gram_row, scaled_pairing, todd_y
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
    def from_json_dict(cls, data) -> "CollectionSpec":
        """Read ``{"objects": [{"expr": ..., "label": ...}, ...]}``: a list of
        at most ``MAX_OBJECTS`` objects, each with a string ``expr`` and an
        optional string ``label`` (the expression by default)."""
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

    @classmethod
    def from_json(cls, text: str) -> "CollectionSpec":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("collection JSON nested too deeply") from None
        return cls.from_json_dict(data)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.objects)


def _block(k: int) -> list[tuple[str, BundleExpr]]:
    """The four objects O(k), U2*(k), U1*(k), U2(k+1), labelled."""
    return [
        (f"O({k})", O(k)),
        (f"U2*({k})", twist(dual(U2), k)),
        (f"U1*({k})", twist(dual(U1), k)),
        (f"U2({k + 1})", twist(U2, k + 1)),
    ]


def standard_collection() -> CollectionSpec:
    """The built-in 13-object strong exceptional collection on Y."""
    objects = [("sl(U1)", sl(U1)), ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)),
               ("U2(1)", twist(U2, 1))]
    return CollectionSpec(tuple(objects + _block(1) + _block(2)))


def collection_variants() -> dict[str, CollectionSpec]:
    """Mutated variants of the standard collection: the three positions of
    the twisted traceless-endomorphism bundle, and the two collections
    trading one object for a rank-6 tensor product."""
    slv = sl(dual(U1))
    a0, a1, a2 = _block(0), _block(1), _block(2)
    variants = {
        "sl_after_block0": a0 + [("sl(U1*)(1)", twist(slv, 1))] + a1 + a2,
        "sl_after_block1": a0 + a1 + [("sl(U1*)(2)", twist(slv, 2))] + a2,
        "sl_after_block2": a0 + a1 + a2 + [("sl(U1*)(3)", twist(slv, 3))],
        "tensor_for_u2_1": [
            ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)),
            ("O(1)", O(1)), ("U2*(1)", twist(dual(U2), 1)), ("U1*(1)", twist(dual(U1), 1)),
            ("U2(2)", twist(U2, 2)), ("sl(U1*)(2)", twist(slv, 2)), ("O(2)", O(2)),
            ("U1*xU2(2)", tensor(dual(U1), twist(U2, 2))),
            ("U2*(2)", twist(dual(U2), 2)), ("U1*(2)", twist(dual(U1), 2)),
            ("U2(3)", twist(U2, 3)),
        ],
        "tensor_for_u2star_2": [
            ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)), ("U2(1)", twist(U2, 1)),
            ("U1*xU2*", tensor(dual(U1), dual(U2))),
            ("O(1)", O(1)), ("sl(U1*)(1)", twist(slv, 1)),
            ("U2*(1)", twist(dual(U2), 1)), ("U1*(1)", twist(dual(U1), 1)),
            ("U2(2)", twist(U2, 2)), ("O(2)", O(2)),
            ("U1*(2)", twist(dual(U1), 2)), ("U2(3)", twist(U2, 3)),
        ],
    }
    return {name: CollectionSpec(tuple(objs)) for name, objs in variants.items()}


@lru_cache(maxsize=None)
def _chi_row(e: BundleExpr) -> tuple[int, tuple[int, ...]]:
    """The Gram row of dual(ch(e)): the left factor of every chi(e, -)."""
    return gram_row(ch_of(e).dual())


@lru_cache(maxsize=None)
def _chi_column(e: BundleExpr, todd: ChowElement) -> tuple[int, tuple[int, ...]]:
    """ch(e) * todd as ``(den, nums)``: the right factor of every chi(-, e).
    Keyed on the Todd class too, so that no column outlives the class it
    was made with."""
    x = ch_of(e) * todd
    return x.den, x.nums


#: The verdict on one ordered pair; ``blocking`` has ``(hn_type, margin)`` per failing stratum.
PairStatus = namedtuple("PairStatus", "i j chi teleman_pass verdict blocking")


@dataclass(frozen=True)
class VerificationMatrix:
    spec: CollectionSpec
    pairs: tuple[tuple[PairStatus, ...], ...]

    def undetermined(self) -> tuple[PairStatus, ...]:
        return tuple(
            p for row in self.pairs for p in row if p.verdict == UNDETERMINED
        )

    def summary(self) -> dict:
        n = len(self.spec.objects)
        counts = {EXCEPTIONAL: 0, STRONG_EXT: 0, ORTHOGONAL: 0, UNDETERMINED: 0}
        for row in self.pairs:
            for p in row:
                counts[p.verdict] += 1
        und = self.undetermined()
        return {
            "size": n,
            "counts": counts,
            "diagonal_all_exceptional": all(
                self.pairs[i][i].verdict == EXCEPTIONAL for i in range(n)
            ),
            "forward_all_strong": all(
                self.pairs[i][j].verdict == STRONG_EXT
                for i in range(n)
                for j in range(i + 1, n)
            ),
            "backward_all_chi_zero": all(
                self.pairs[i][j].chi == 0 for i in range(n) for j in range(i)
            ),
            "undetermined_only_backward": all(p.i > p.j for p in und),
            "undetermined_pairs": [[p.i, p.j] for p in und],
            "note": FULLNESS_NOTE,
        }

    @property
    def accepted(self) -> bool:
        return _accepted(self.summary())


def _accepted(summary: dict) -> bool:
    return all(summary[key] for key in ("diagonal_all_exceptional", "forward_all_strong",
                                        "backward_all_chi_zero", "undetermined_only_backward"))


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
    comparison vectors and the integer chi rows and columns of the objects.
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
    todd = todd_y()
    chi_rows = [_chi_row(e) for e in objects]
    columns = list(zip(objects, tops, [_chi_column(e, todd) for e in objects]))
    grid = []
    for i, (ei, limit, chi_row) in enumerate(zip(objects, limits, chi_rows)):
        row = []
        for j, (ej, top, chi_column) in enumerate(columns):
            chi_value = scaled_pairing(chi_row, chi_column, ei, ej)
            if all(map(le, top, limit)):
                passed, blocking = True, ()
            else:
                passed = False
                blocking = tuple((tau, b - t + 1) for tau, t, b in zip(types, top, limit) if t > b)
            row.append(PairStatus(i, j, chi_value, passed,
                                  _pair_verdict(i, j, chi_value, passed), blocking))
        grid.append(tuple(row))
    return VerificationMatrix(spec=spec, pairs=tuple(grid))


# -- Chern character identities and the mutation ledger ------------------------

def check_ch_identities() -> tuple[tuple[str, bool], ...]:
    """Exact Chern-character identities among the collection's objects,
    coming from the mutation exact sequences, as ``(name, holds)`` pairs."""
    slv = sl(dual(U1))
    checks = []

    lhs = ch_of(slv)
    rhs = ch_of(twist(slv, 1)) + 3 * ch_of(dual(U2)) - 3 * ch_of(twist(U2, 1))
    checks.append(("sl_twist_exchange", lhs == rhs))

    lhs = ch_of(tensor(dual(U1), twist(U2, 1)))
    rhs = (
        -ch_of(U2) + 6 * ch_of(O(0)) + 3 * ch_of(dual(U2)) - 9 * ch_of(dual(U1))
        + 3 * ch_of(twist(slv, 1)) + 3 * ch_of(O(1))
    )
    checks.append(("rank6_tensor_twist1", lhs == rhs))

    lhs = ch_of(tensor(dual(U1), twist(U2, 2)))
    rhs = (
        -ch_of(twist(U2, 1)) + 6 * ch_of(O(1)) + 3 * ch_of(twist(dual(U2), 1))
        - 9 * ch_of(twist(dual(U1), 1)) + 3 * ch_of(twist(slv, 2)) + 3 * ch_of(O(2))
    )
    checks.append(("rank6_tensor_twist2", lhs == rhs))

    lhs = ch_of(tensor(dual(U1), twist(U2, 1)))
    rhs = (
        -ch_of(U2) + 3 * ch_of(slv) + 6 * ch_of(O(0)) - 6 * ch_of(dual(U2))
        - 9 * ch_of(dual(U1)) + 9 * ch_of(twist(U2, 1)) + 3 * ch_of(O(1))
    )
    checks.append(("rank6_tensor_expanded", lhs == rhs))

    return tuple(checks)


def mutation_ledger_check() -> tuple[tuple[str, bool], ...]:
    """Rank bookkeeping and the coincidence of the two mutation routes, on
    the K-theory classes l6 ... l2 of the shifted mutation bundles, defined
    by the exact-sequence recursion, as ``(name, holds)`` pairs."""
    l6 = ch_of(twist(U2, 1))
    l5 = 6 * ch_of(O(1)) - l6
    l4 = l5 + 3 * ch_of(twist(dual(U2), 1))
    l3 = 9 * ch_of(twist(dual(U1), 1)) - l4
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
