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
built by ``hn_records``, which the strata of a ``Moduli`` and the
``hn-types`` command both read, and each keeps what it reads.

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
from .quiver import HNType, Quiver, enumerate_hn_types, reduced_slope


def one_ps_from_hn(tau: HNType, slopes) -> tuple:
    """The one-parameter subgroup of the stratum of tau, from the reduced
    slopes of its parts: per vertex, the blocks ((weight, multiplicity), ...)
    of the parts with a nonzero entry there, with weights N * slope(part),
    N the least positive integer clearing all slope denominators (no
    further gcd reduction), and multiplicities those entries.  The slopes
    of a type strictly decrease, so the weights of each vertex do too."""
    scale = lcm(*(b for _, b in slopes))
    weights = [a * (scale // b) for a, b in slopes]
    return tuple(tuple((w, m) for w, m in zip(weights, column) if m > 0) for column in zip(*tau))


def codim_and_eta(quiver: Quiver, blocks) -> tuple[int, int]:
    """The codimension and the threshold eta of the stratum of the
    one-parameter subgroup ``blocks``, from one walk over the strictly
    negative weight directions of the representation space, one entry per
    group of parallel arrows, and of the gauge Lie algebra, entered as
    groups (i, i, -1).  A direction of multiplicity n and weight w < 0 adds
    n to the codimension and n * |w| to eta in the representation space,
    and subtracts both in the gauge algebra: the codimension is
    dim Rep(d)_{<0} - dim gl(d)_{<0} (Reineke 2003), and eta, the weight of
    det of the conormal bundle, is the negative weight total of the gauge
    algebra less that of the representation space."""
    codim = eta = 0
    for i, j, m in quiver.groups + tuple((i, i, -1) for i in range(len(blocks))):
        for ws, ms in blocks[i]:
            for wt, mt in blocks[j]:
                if wt < ws:
                    codim += m * ms * mt
                    eta += m * ms * mt * (ws - wt)
    return codim, eta


def universal_weights(blocks, twist) -> StratumWeights:
    """Weight multisets of the descended universal bundles U1 and U2, one
    per vertex: raw block weights plus the descent shift
    sum_j a_j * trace(lambda_j) of the twist vector a, which has one entry
    per vertex, as ``Moduli`` checks.

    The twist must be unimodular against the dimension vector; with the
    additive shift convention used here the descended bundles have
    central weight zero exactly when twist . d = -1, the normalization
    that ``Moduli`` enforces, and which the working twist (1, -1)
    satisfies against (2, 3).
    """
    shift = sum(a * w * m for a, vertex in zip(twist, blocks) for w, m in vertex)
    return StratumWeights(*(tuple(w + shift for w, m in vertex for _ in range(m))
                            for vertex in blocks))


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
    codimension of the stratum, and the blocks of its one-parameter
    subgroup and its threshold eta, both None for the trivial type.
    ``enumerate_hn_types`` checks the input, the one check on this path."""
    records = []
    for tau in enumerate_hn_types(quiver, d, theta):
        slopes = tuple(reduced_slope(theta, part) for part in tau)
        blocks = one_ps_from_hn(tau, slopes) if len(tau) > 1 else None
        codim, threshold = (0, None) if blocks is None else codim_and_eta(quiver, blocks)
        records.append((tau, slopes, codim, blocks, threshold))
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
    records = hn_records(moduli.quiver, moduli.dim, moduli.theta)
    return tuple(StratumData(tau, threshold, universal_weights(blocks, moduli.twist))
                 for tau, _, _, blocks, threshold in records if blocks is not None)


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


def teleman_certify(expr: BundleExpr, moduli: Moduli) -> tuple[StratumCheck, ...]:
    """Vanishing certificate for the higher cohomology of a descended
    bundle, one row per unstable stratum: it passes when every row does,
    that is when every stratum weight is strictly below eta.

    A failed certificate is only "not certified"; the criterion is
    one-sided and says nothing about nonvanishing.
    """
    rows = []
    for s, r in zip(unstable_strata(moduli), weight_ranges(expr, moduli, WorkBudget())):
        # the zero bundle (no range) has no weights to bound: vacuously certified
        highest, margin = (None, None) if r is None else (r[1], s.eta - r[1])
        rows.append(StratumCheck(s.hn_type, s.eta, highest, margin, margin is None or margin >= 1))
    return tuple(rows)
