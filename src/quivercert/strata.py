"""Destabilizing one-parameter subgroups, stratum weight data, and
Teleman-quantization vanishing certificates.

Each unstable Harder-Narasimhan stratum carries a canonical (virtual)
one-parameter subgroup whose weights at a vertex are a common rescaling
of the part slopes, repeated according to the part dimensions.  The
threshold eta is the weight of the determinant of the conormal bundle
of the stratum.  A descended bundle whose weights on every stratum stay
strictly below eta has vanishing higher cohomology on the quotient.

All weights are integers; strictness is the integer condition
margin = eta - max_weight >= 1.

The record of each Harder-Narasimhan type (its parts, slopes and
codimension, and the one-parameter subgroup and eta of its stratum) is
built once per (quiver, d, theta) by ``hn_records``, which the strata of
a ``Moduli`` and the ``hn-types`` command both read.

The weight ranges of an expression are weighed once per (expression,
moduli) under a budget of their own, and cached with what they cost; a
request's budget is charged that cost.  So a cached entry gives the
verdict a fresh one does, and an expression that breaks MAX_TERMS on its
own is refused for that even after earlier objects of its request have
spent their shared budget.  A twist tensor(e, O(n)), O(n) on either side,
is weighed from the cached ranges of e.  O(n) has one weight on each
stratum, so it shifts every weight of e and keeps their number: the
ranges shift, and the product's check and charge are replayed from e's
counts, exactly as a walk does.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm

from ._linalg import MAX_CACHED_SETUPS, _int_entries
from .bundles import (MAX_CACHED_EXPRS, BundleExpr, StratumWeights, WorkBudget, characters,
                      charge_product)
from .quiver import HNType, Quiver, _check_hn_input, enumerate_hn_types, reduced_slope


class OnePS(namedtuple("OnePS", "blocks")):
    """Per-vertex weight blocks ((weight, multiplicity), ...), weights
    strictly decreasing within a vertex."""

    __slots__ = ()

    def __new__(cls, blocks):
        for vertex in blocks:
            ws = [w for w, _ in vertex]
            if any(a <= b for a, b in zip(ws, ws[1:])):
                raise ValueError("block weights must strictly decrease")
            if any(m <= 0 for _, m in vertex):
                raise ValueError("block multiplicities must be positive")
        return super().__new__(cls, blocks)

    def trace(self, i: int) -> int:
        return sum(w * m for w, m in self.blocks[i])


def one_ps_from_hn(tau: HNType, theta) -> OnePS:
    """The stratum's one-parameter subgroup: weights N * slope(part), with
    N the least positive integer clearing all slope denominators (no
    further gcd reduction); multiplicities are the part dimensions."""
    slopes = [reduced_slope(theta, part) for part in tau]
    scale = lcm(*(b for _, b in slopes))
    weights = [a * (scale // b) for a, b in slopes]
    return OnePS(tuple(tuple((w, part[i]) for w, part in zip(weights, tau) if part[i] > 0)
                       for i in range(len(tau[0]))))


def codim_and_eta(quiver: Quiver, s: OnePS) -> tuple[int, int]:
    """The codimension and the threshold eta of the stratum of ``s``, from
    one walk over the strictly negative weight directions of the
    representation space, one entry per group of parallel arrows, and of
    the gauge Lie algebra, entered as groups (i, i, -1).  A direction of
    multiplicity n and weight w < 0 adds n to the codimension and n * |w|
    to eta in the representation space, and subtracts both in the gauge
    algebra: the codimension is dim Rep(d)_{<0} - dim gl(d)_{<0} (Reineke
    2003), and eta, the weight of det of the conormal bundle, is the
    negative weight total of the gauge algebra less that of the
    representation space."""
    codim = eta = 0
    for i, j, m in quiver.groups + tuple((i, i, -1) for i in range(len(s.blocks))):
        for ws, ms in s.blocks[i]:
            for wt, mt in s.blocks[j]:
                if wt < ws:
                    codim += m * ms * mt
                    eta += m * ms * mt * (ws - wt)
    return codim, eta


def descent_shift(s: OnePS, twist) -> int:
    """Additive weight twist making the universal bundles descend:
    sum_j a_j * trace(lambda_j) for the twist vector a."""
    if len(twist) != len(s.blocks):
        raise ValueError("twist vector has wrong length")
    return sum(a * s.trace(i) for i, a in enumerate(twist))


def universal_weights(s: OnePS, shift: int) -> StratumWeights:
    """Weight multisets of the descended universal bundles U1 and U2, one
    per vertex: raw block weights plus the descent shift of the twist.

    The twist must be unimodular against the dimension vector; with the
    additive shift convention used here the descended bundles have
    central weight zero exactly when twist . d = -1, the normalization
    that ``Moduli`` enforces, and which the working twist (1, -1)
    satisfies against (2, 3).
    """
    out = []
    for vertex in s.blocks:
        ws: list[int] = []
        for w, m in vertex:
            ws.extend([w + shift] * m)
        out.append(tuple(ws))
    return StratumWeights(*out)


class Moduli(namedtuple("Moduli", "quiver dim theta twist")):
    """A quiver moduli setup: quiver, dimension vector, stability
    parameter theta with theta . d = 0, and a unimodular
    universal-bundle twist a (normalized so a . d = -1, the sign that
    makes the additive-shift descent convention central-weight free)."""

    __slots__ = ()

    def __new__(cls, quiver: Quiver, dim, theta, twist):
        dim = quiver.check_dim(dim)
        theta, twist = _int_entries(theta, "theta"), _int_entries(twist, "twist")
        if len(theta) != len(dim) or len(twist) != len(dim):
            raise ValueError("parameter length mismatch")
        if sum(t * x for t, x in zip(theta, dim)) != 0:
            raise ValueError("theta . d must be 0")
        if sum(a * x for a, x in zip(twist, dim)) != -1:
            raise ValueError("twist . d must be -1 for descent")
        return super().__new__(cls, quiver, dim, theta, twist)

    @classmethod
    @lru_cache(maxsize=None)
    def kronecker23(cls) -> "Moduli":
        """Y: the 3-Kronecker quiver at (2, 3), theta = (3, -2), twist
        (1, -1).  One shared instance, built and validated once."""
        return cls(Quiver.kronecker(3), (2, 3), (3, -2), (1, -1))


def hn_records(quiver: Quiver, d, theta) -> tuple[tuple, ...]:
    """One record ``(parts, slopes, codim, one_ps, eta)`` per
    Harder-Narasimhan type of (quiver, d, theta), in the enumeration order
    of the types: the parts, their reduced slopes ``(a, b)``, the
    codimension of the stratum, and its ``OnePS`` and threshold eta, both
    None for the trivial type.  Built once per (quiver, d, theta).  The
    input passes the gate of ``enumerate_hn_types`` before the cache is
    read, so that no entry answers for input the gate refuses: (2.0, 3) ==
    (2, 3) as a key."""
    d, theta = _check_hn_input(quiver, d, theta)
    return _hn_records(quiver, d, theta)


@lru_cache(maxsize=MAX_CACHED_SETUPS)
def _hn_records(quiver: Quiver, d, theta) -> tuple[tuple, ...]:
    records = []
    for tau in enumerate_hn_types(quiver, d, theta):
        s = one_ps_from_hn(tau, theta) if len(tau) > 1 else None
        codim, threshold = (0, None) if s is None else codim_and_eta(quiver, s)
        records.append((tau, tuple(reduced_slope(theta, part) for part in tau), codim, s, threshold))
    return tuple(records)


#: One unstable stratum: its type, its threshold and the ``StratumWeights`` of U1 and U2.
StratumData = namedtuple("StratumData", "hn_type eta weights")


@lru_cache(maxsize=MAX_CACHED_SETUPS)
def unstable_strata(moduli: Moduli) -> tuple[StratumData, ...]:
    """Stratum data for every unstable Harder-Narasimhan type, in the
    enumeration order of the types, from the ``hn_records`` of the moduli's
    quiver, d and theta.  The stratum weights are those of the universal
    bundles U1 and U2, so the quiver must have two vertices."""
    if moduli.quiver.vertex_count != 2:
        raise ValueError("bundle expressions assume a two-vertex quiver")
    return tuple(StratumData(tau, threshold, universal_weights(s, descent_shift(s, moduli.twist)))
                 for tau, _, _, s, threshold in hn_records(moduli.quiver, moduli.dim, moduli.theta)
                 if s is not None)


def weight_ranges(expr: BundleExpr, moduli: Moduli,
                  budget: WorkBudget) -> tuple[tuple[int, int] | None, ...]:
    """The (min, max) weight of ``expr`` on each unstable stratum, or None
    for the zero bundle, which has no weights, from ``_weigh``, which checks
    ``expr`` on its own; then ``budget`` is charged the weight pairs that
    they cost, cached or not."""
    ranges, cost, _ = _weigh(expr, moduli)
    budget.charge(cost)
    return ranges


@lru_cache(maxsize=MAX_CACHED_EXPRS)
def _weigh(expr: BundleExpr, moduli: Moduli) -> tuple:
    """``(ranges, cost, counts)`` for ``expr``: its weight ranges, the weight
    pairs that its character products combine under a ``WorkBudget`` of its
    own, and each stratum's number of distinct weights.  One walk of the
    tree weighs ``expr`` on all strata at once.  A twist by O(n), on either
    side, shifts the ranges of its base's entry by n * o1, and replays the
    base's cost and then the product's check and charges, stratum by
    stratum in the order of the walk, from the base's counts.  Exceptions
    are not cached."""
    budget = WorkBudget()
    left = budget.left
    if expr.op == "tensor" and "O" in (expr.args[0].op, expr.args[1].op):
        right = expr.args[1].op == "O"
        e, o = expr.args if right else reversed(expr.args)
        ranges, cost, counts = _weigh(e, moduli)
        budget.charge(cost)
        for count in counts:
            charge_product(budget, *((count, 1) if right else (1, count)))
        shifts = [o.args[0] * s.weights.o1() for s in unstable_strata(moduli)]
        ranges = tuple(None if r is None else (r[0] + t, r[1] + t) for r, t in zip(ranges, shifts))
    else:
        maps = characters([s.weights for s in unstable_strata(moduli)], expr, budget).maps
        ranges = tuple((min(c), max(c)) if c else None for c in maps)
        counts = tuple(map(len, maps))
    return ranges, left - budget.left, counts


#: One row of a certificate: ``max_weight`` and ``margin`` are None for the zero bundle.
StratumCheck = namedtuple("StratumCheck", "hn_type eta max_weight margin passed")


def teleman_certify(expr: BundleExpr, moduli: Moduli | None = None) -> tuple[StratumCheck, ...]:
    """Vanishing certificate for the higher cohomology of a descended
    bundle, one row per unstable stratum: it passes when every row does,
    that is when every stratum weight is strictly below eta.

    A failed certificate is only "not certified"; the criterion is
    one-sided and says nothing about nonvanishing.
    """
    if moduli is None:
        moduli = Moduli.kronecker23()
    rows = []
    for s, r in zip(unstable_strata(moduli), weight_ranges(expr, moduli, WorkBudget())):
        # the zero bundle (no range) has no weights to bound: vacuously certified
        highest, margin = (None, None) if r is None else (r[1], s.eta - r[1])
        rows.append(StratumCheck(s.hn_type, s.eta, highest, margin, margin is None or margin >= 1))
    return tuple(rows)
