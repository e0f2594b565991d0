"""Expression language for tensor constructions on the universal bundles.

Expressions are trees over the leaves U1, U2 (the rank-2 and rank-3
universal bundles) and O(n) (powers of the ample generator of the
Picard group, normalized so that O(-1) = det U1 = det U2), closed under
dual, tensor, direct sum, det, traceless endomorphisms sl, Sym^2 and
Wedge^2, and twisting by O(n).

Every semantics of an expression is a lambda-ring homomorphism, and
``evaluate`` is the one recursion over the operators: ranks (integers
under the augmentation to Z, a field that each node computes from its
arguments' ranks as it is built), the characters of the strata's
one-parameter subgroups as weight -> multiplicity maps, one per stratum
and all from one walk of the tree (here, used by the strata module), and
Chern characters (chow module).  The module also holds the trees and
their parser.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from ._linalg import MAX_CACHED_SETUPS, _int_entries

#: Largest rank of an expression and of each of its subexpressions.
MAX_RANK = 2 ** 64

#: Largest number of weight pairs that one product of characters combines.
MAX_TERMS = 2 ** 16

#: Largest number of weight pairs that the character products of one request
#: combine, over all strata of one moduli space: of one expression, or of all
#: distinct objects of a collection.
MAX_WORK_TERMS = 2 ** 20

_LEAF_RANKS = {"U1": 2, "U2": 3, "O": 1}

#: Entries kept by each cache keyed by an expression: ``chow.ch_of``,
#: ``chow.chi_row`` and ``strata._weigh``.  A benchmark pass never evicts:
#: requests at ``--seconds 20`` fills 1155.
MAX_CACHED_EXPRS = 1 << 13


class BundleExpr(namedtuple("BundleExpr", "op args rank")):
    """An operator, its arguments and the rank that it computes from them."""

    __slots__ = ()

    def __new__(cls, op: str, args: tuple = ()):
        # Each node's rank comes from its arguments' ranks, so an expression
        # is refused at the first node above MAX_RANK, before its rank (which
        # grows doubly exponentially with nesting) or anything else is large.
        rank = _LEAF_RANKS.get(op)
        if rank is None:
            rank = int(evaluate((op, args), _rank, _rank))
            if rank > MAX_RANK:
                raise ValueError(f"expression {op}(...) has rank above {MAX_RANK}")
        # the named tuple's own __new__ would only add a call frame per node
        return tuple.__new__(cls, (op, args, rank))

    def __getnewargs__(self):
        # copy and pickle rebuild a node from what __new__ takes
        return self.op, self.args

    def __str__(self) -> str:
        if self.op in ("U1", "U2"):
            return self.op
        if self.op == "O":
            return f"O({self.args[0]})"
        return f"{self.op}({','.join(str(a) for a in self.args)})"


U1 = BundleExpr("U1")
U2 = BundleExpr("U2")

#: The leaves that the parser returns for their names, shared by every tree.
_LEAVES = {"U1": U1, "U2": U2}


def O(n: int) -> BundleExpr:  # noqa: E743  (mathematical name)
    return BundleExpr("O", _int_entries((n,), "O(n)"))


def _fold(op: str, factors):
    if len(factors) < 2:
        raise ValueError(f"{op} needs at least two operands")
    out = factors[0]
    for f in factors[1:]:
        out = BundleExpr(op, (out, f))
    return out


def tensor(*factors: BundleExpr) -> BundleExpr:
    return _fold("tensor", factors)


def direct_sum(*summands: BundleExpr) -> BundleExpr:
    return _fold("sum", summands)


def dual(e: BundleExpr) -> BundleExpr:
    return BundleExpr("dual", (e,))


def det(e: BundleExpr) -> BundleExpr:
    return BundleExpr("det", (e,))


def sl(e: BundleExpr) -> BundleExpr:
    return BundleExpr("sl", (e,))


def sym2(e: BundleExpr) -> BundleExpr:
    return BundleExpr("sym2", (e,))


def wedge2(e: BundleExpr) -> BundleExpr:
    return BundleExpr("wedge2", (e,))


def twist(e: BundleExpr, n: int) -> BundleExpr:
    """Sugar: twist(e, n) = tensor(e, O(n))."""
    return tensor(e, O(n))


def evaluate(e, leaf, value):
    """Evaluate ``e``, a BundleExpr or an operator's ``(op, args)``, under a
    lambda-ring homomorphism, given the values ``leaf`` of U1, U2 and O(n)
    and a function ``value`` for the arguments.  Values have ``+ - *`` and
    ``dual``, ``det``, ``psi2`` (the second Adams operation) and ``half``."""
    op, args = e[0], e[1]
    if op in ("U1", "U2", "O"):
        return leaf(e)
    x = value(args[0])
    if op == "dual":
        return x.dual()
    if op == "tensor":
        return x * value(args[1])
    if op == "sum":
        return x + value(args[1])
    if op == "det":
        return x.det()
    if op == "sl":
        if not x:  # a zero character: the argument has rank 0 on these leaves
            raise ValueError("sl needs an argument of rank at least 1")
        return x * x.dual() - value(O(0))
    if op == "sym2":
        return (x * x + x.psi2()).half()
    if op == "wedge2":
        return (x * x - x.psi2()).half()
    raise ValueError(f"unknown operator {op!r}")


class WorkBudget:
    """The weight pairs that the character products of one request may
    still combine: of one expression, or of all distinct objects of a
    collection, over all strata of one moduli space."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = MAX_WORK_TERMS

    def charge(self, terms: int):
        self.left -= terms
        if self.left < 0:
            raise ValueError(f"character products exceed {MAX_WORK_TERMS} terms in one request")


def charge_product(budget: WorkBudget, m: int, n: int):
    """Check the product of two maps of one stratum, with ``m`` and ``n``
    weights, against ``MAX_TERMS``, then charge its m * n weight pairs to
    ``budget``.  A character can carry about as many weights as its rank,
    and MAX_RANK alone allows products far too large to compute."""
    terms = m * n
    if terms > MAX_TERMS:
        raise ValueError(f"product of characters with {m} and {n} weights"
                         f" exceeds {MAX_TERMS} terms")
    budget.charge(terms)


def _added(x: dict, y: dict, sign: int) -> dict:
    """A copy of the map ``x`` with ``sign`` times ``y`` added in place,
    without the weights whose multiplicity reaches 0."""
    z = x.copy()
    get = z.get
    for w, m in y.items():
        m = get(w, 0) + sign * m
        if m:
            z[w] = m
        else:
            del z[w]
    return z


class Character:
    """Characters of one-parameter subgroups, one per stratum: ``maps`` holds
    a weight -> multiplicity map for each.  The ring operations act on all
    the maps at once, so a weight multiset is never expanded, and never
    change an operand's maps, which walks share: a sum or difference is
    made in place on a copy of the left map.  Each product of one stratum's
    maps charges ``budget``, a WorkBudget that results inherit.

    A sum or difference drops every weight whose multiplicity reaches 0, so
    of operands with no 0 it makes none.  A product keeps every weight it
    reaches: of maps with multiplicities of both signs it can keep a 0
    (``{0: -1, 2: 1}`` times ``{1: -1, 3: -1}`` is ``{1: 1, 3: 0, 5: -1}``),
    while of maps with positive multiplicities, as every character of an
    expression has, it makes positive ones only."""

    __slots__ = ("maps", "budget")

    def __init__(self, maps, budget: WorkBudget):
        self.maps = maps
        self.budget = budget

    def __bool__(self):
        # False if zero on any stratum; with no strata, nothing is refused
        return all(self.maps)

    def __add__(self, other):
        return Character([_added(x, y, 1) for x, y in zip(self.maps, other.maps)], self.budget)

    def __sub__(self, other):
        return Character([_added(x, y, -1) for x, y in zip(self.maps, other.maps)], self.budget)

    def __mul__(self, other):
        budget = self.budget
        out = []
        for x, y in zip(self.maps, other.maps):
            charge_product(budget, len(x), len(y))
            z = {}
            get = z.get
            for a, m in x.items():
                for b, n in y.items():
                    w = a + b
                    z[w] = get(w, 0) + m * n
            out.append(z)
        return Character(out, budget)

    def dual(self):
        return Character([{-w: m for w, m in x.items()} for x in self.maps], self.budget)

    def det(self):
        return Character([{sum(w * m for w, m in x.items()): 1} for x in self.maps], self.budget)

    def psi2(self):
        return Character([{2 * w: m for w, m in x.items()} for x in self.maps], self.budget)

    def half(self):
        return Character([{w: m // 2 for w, m in x.items() if m // 2} for x in self.maps],
                         self.budget)


class StratumWeights(namedtuple("StratumWeights", "u1 u2")):
    """Base weights of the universal bundles on one stratum's fixed locus.

    The weight of O(1) is minus the total U1 weight (O(-1) = det U1).
    """

    __slots__ = ()

    def o1(self) -> int:
        """The one weight of O(1), so O(n) has the one weight n * o1."""
        return -sum(self.u1)


@lru_cache(maxsize=MAX_CACHED_SETUPS)
def _leaf_maps(weights: tuple[StratumWeights, ...]) -> tuple[list, list, list]:
    """The weight -> multiplicity maps of U1 and U2 on each stratum of
    ``weights``, and the one weight of O(1) on each: built once per tuple of
    strata, and shared by every walk over it."""
    return ([{w: s.u1.count(w) for w in s.u1} for s in weights],
            [{w: s.u2.count(w) for w in s.u2} for s in weights], [s.o1() for s in weights])


def characters(weights, e: BundleExpr, budget: WorkBudget) -> Character:
    """The weights of ``e`` with multiplicities on each stratum of
    ``weights``, a sequence of StratumWeights, from one walk of the tree.
    The maps may be shared with other results and with later walks over
    the same strata, so do not mutate them.  Each stratum's products
    charge ``budget``."""
    u1, u2, o1 = _leaf_maps(tuple(weights))
    leaves = {"U1": Character(u1, budget), "U2": Character(u2, budget)}

    def leaf(x):
        if x.op == "O":
            return Character([{x.args[0] * w: 1} for w in o1], budget)
        return leaves[x.op]

    def value(x):
        return evaluate(x, leaf, value)

    return value(e)


class _Rank(int):
    """A rank as a value of ``evaluate``: the augmentation of the lambda ring
    to Z, where ``dual`` and ``psi2`` are the identity and ``det`` is 1."""

    __slots__ = ()

    def __add__(self, other):
        return _Rank(int.__add__(self, other))

    def __sub__(self, other):
        return _Rank(int.__sub__(self, other))

    def __mul__(self, other):
        return _Rank(int.__mul__(self, other))

    def dual(self):
        return self

    psi2 = dual

    def det(self):
        return _Rank(1)

    def half(self):
        return _Rank(self // 2)


def _rank(e: BundleExpr) -> _Rank:
    return _Rank(e.rank)


# -- parser -------------------------------------------------------------------

#: Largest tree depth (leaves count 1) and call nesting that the parsers accept.
MAX_DEPTH = 100

#: Whitespace, a word and whitespace; group 2 is the word's sign and leading
#: digits.  For str patterns \s is exactly str.isspace, \w exactly
#: str.isalnum or "_", and \d exactly str.isdecimal, the digits int reads.
_TOKEN = re.compile(r"\s*(([+-]?\d*)\w*)\s*")

_UNARY = {"dual", "det", "sl", "sym2", "wedge2"}
_FUNCTIONS = _UNARY | {"tensor", "sum", "twist"}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _close(text: str, i: int) -> int:
    """The position past the ')' that must be at ``i`` and past whitespace."""
    if not text.startswith(")", i):
        raise ExprSyntaxError("expected ')'", i)
    return _TOKEN.match(text, i + 1).start(1)


def _integer(text: str, pos: int) -> tuple[int, int]:
    """The signed decimal integer after whitespace, and the position past it
    and any whitespace."""
    match = _TOKEN.match(text, pos)
    try:
        n = int(match[2])
    except ValueError:  # no digits, or more than int reads
        raise ExprSyntaxError("expected integer", match.start(1)) from None
    end = match.end(2)
    return n, match.end() if end == match.end(1) else end


def _expr(text: str, pos: int, level: int) -> tuple[BundleExpr, int, int]:
    """The expression after ``pos``, nested ``level`` calls deep, its tree
    depth and the position past it and whitespace; depth and nesting are
    bounded so evaluation stays within the recursion limit."""
    if level > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", pos)
    match = _TOKEN.match(text, pos)
    ident, i = match[1], match.end()
    leaf = _LEAVES.get(ident)
    if leaf is not None:
        return leaf, 1, i
    if ident != "O" and ident not in _FUNCTIONS:
        if not ident or ident[0] in "+-":
            raise ExprSyntaxError("expected identifier", match.start(1))
        raise ExprSyntaxError(f"unknown identifier {ident!r}", pos)
    if not text.startswith("(", i):
        raise ExprSyntaxError("expected '('", i)
    if ident == "O":
        n, i = _integer(text, i + 1)
        return O(n), 1, _close(text, i)
    first, depth, i = _expr(text, i + 1, level + 1)
    args = [first]
    while text.startswith(",", i):
        if ident == "twist" and len(args) == 1:
            (arg, i), arg_depth = _integer(text, i + 1), 1
        else:
            arg, arg_depth, i = _expr(text, i + 1, level + 1)
        args.append(arg)
        depth = max(depth, arg_depth) + 1  # the left fold adds a level per argument
    i = _close(text, i)
    if len(args) == 1:
        depth += 1
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", pos)
    if ident in _UNARY:
        if len(args) != 1:
            raise ExprSyntaxError(f"{ident} takes one argument", pos)
        return BundleExpr(ident, tuple(args)), depth, i
    if ident == "twist":
        if len(args) != 2 or not isinstance(args[1], int):
            raise ExprSyntaxError("twist takes an expression and an integer", pos)
        return twist(args[0], args[1]), depth, i
    if len(args) < 2:
        raise ExprSyntaxError(f"{ident} takes at least two arguments", pos)
    return _fold(ident, args), depth, i


def parse_expr(text: str) -> BundleExpr:
    """Parse the function-style grammar, e.g. ``tensor(dual(U1),U2)``.

    An error about a token (``expected identifier``, ``expected '('``,
    ``expected integer``, ``trailing input``) points at its first character
    after whitespace.  An error about a whole call (an unknown identifier,
    nesting too deep, the wrong arguments) points where the whitespace
    before the call starts, at the end of the previous token."""
    e, _, i = _expr(text, 0, 1)
    if i != len(text):
        raise ExprSyntaxError("trailing input", i)
    return e
