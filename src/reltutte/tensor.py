"""Colored tensor products and the substitution formula for their polynomials.

Replacing every edge of a chosen regular color in a base graph by a copy of a
pointed patch graph (glued along the pointed edge, which is then removed)
multiplies out, at the polynomial level, to a three-stage substitution:

* the regular substitution swaps the four weight variables of the replaced
  color for the four pointed polynomials of the patch,
* the splicing map collapses the resulting products of z-symbols into single
  symbols, and
* the zero substitution expands every demoted (``lambda0``-colored) edge of a
  terminal class into the symmetric sum over the terms of the patch's
  type-zero polynomial, glued in by 2-sums.

Summing over all subsets of the replaced color's edges (each subset demoted
to zero edges beforehand) reproduces the universal relative Tutte polynomial
of the product. The three maps are linear, so the sum is taken first: one
state sum of the base, in which each replaced edge may also be demoted,
gives the sum over all subsets, and each map is applied to it once. When the
type-zero polynomial is zero, only the empty subset contributes: the zero
substitution expands each demoted edge into a sum over its terms, an empty
sum, so every class with a demoted edge vanishes and the formula is the
colored one, the regular substitution and the splicing map alone. The state
sum then demotes nothing.
``verify_tensor_formula`` checks that equality by randomized evaluation
modulo the labeling ideal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Mapping

from .errors import InstanceInvalid, InvalidContractingSet, InvalidPartition, InvariantBreach, NotLinearInZ, TypeMismatch
from .graph import (
    POINTED_COLOR,
    RECOLOR_ZERO,
    ColoredMultigraph,
    PivotClassKey,
    _glue_along_edge,
    is_connected,
    pivot_class_key,
    recolor_subset,
    splice_all,
)
from .poly import RelPolynomial, equal_mod_ideal, z_symbol
from .pointed import (
    TYPE_C,
    TYPE_D,
    TYPE_ZERO,
    PointedGraph,
    PointedPolynomials,
    _classify,
    classify_pair,
    pointed_polys,
)
from .tutte import (
    ContractingSet,
    ProperLabeling,
    universal_tutte_statesum,
    validate_contracting_set,
)


@dataclass(frozen=True)
class TensorInstance:
    """A base graph, a pointed patch graph, and the color being replaced."""

    g1: ColoredMultigraph
    g2: PointedGraph
    lam: str

    def __post_init__(self):
        g1, g2, lam = self.g1, self.g2, self.lam
        if not is_connected(g1):
            raise InstanceInvalid("base graph must be connected")
        if lam in (POINTED_COLOR, RECOLOR_ZERO):
            raise InstanceInvalid(f"{lam!r} is a reserved color")
        if lam in g1.zero_colors():
            raise InstanceInvalid(f"{lam!r} colors zero edges of the base graph")
        if not self.lambda_edge_ids():
            raise InstanceInvalid(f"{lam!r} colors no regular edge of the base graph")
        g2_colors = set(g2.graph.regular_colors()) | set(g2.graph.zero_colors())
        if lam in g2_colors:
            raise InstanceInvalid(f"{lam!r} must not appear in the patch graph")
        reserved = {RECOLOR_ZERO}
        used = set(g1.regular_colors()) | set(g1.zero_colors()) | g2_colors
        if used & reserved:
            raise InstanceInvalid(f"reserved colors in use: {sorted(used & reserved)}")
        if g1.pointed_edge() is not None:
            raise InstanceInvalid("base graph cannot contain a pointed edge")
        # copy ids live in the namespace "<lambda-edge id>/..."; it must be free
        names = set(g1.edge_ids()) | set(g1.vertex_set)
        for f in self.lambda_edge_ids():
            taken = [n for n in names if n.startswith(f"{f}/")]
            if taken:
                raise InstanceInvalid(f"base ids {taken[:3]} collide with the copy namespace of {f!r}")
        clash = set(g1.zero_colors()) & set(g2.graph.regular_colors())
        clash |= set(g1.regular_colors()) & set(g2.graph.zero_colors())
        if clash:  # the product would hold each of them on zero and on regular edges
            raise InstanceInvalid(f"colors used both as zero and regular: {sorted(clash)}")

    def lambda_edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.g1.edges if e.color == self.lam and not e.is_zero)

    def copy_edge_ids(self, f: str) -> frozenset:
        return frozenset(f"{f}/{e.id}" for e in self.g2.graph.edges if e.id != self.g2.pointed_id)


def tensor_product(ti: TensorInstance, flip: bool = False) -> ColoredMultigraph:
    """Replace every lambda-edge f of the base by a copy of the patch minus its
    pointed edge, glued at the pointed edge's endpoints, with ids ``f/...``."""
    return _product(ti, flip)


@lru_cache(maxsize=1)
def _product(ti: TensorInstance, flip: bool) -> ColoredMultigraph:
    """``tensor_product``, cached on positional arguments so every call form shares one entry.
    A product is reused only by calls back to back on one instance, so one entry serves."""
    g = ti.g1
    for f in ti.lambda_edge_ids():
        g = _glue_along_edge(g, f, ti.g2.graph, ti.g2.pointed_id, f"{f}/", flip=flip)
    return g


def product_labeling(ti: TensorInstance, prod: ColoredMultigraph) -> ProperLabeling:
    """Labeling of the product that keeps each copy's edges consecutive.

    Regular base edges get multiples of the patch's edge count; the regular
    edges of the copy replacing a base edge fill the block of labels just
    below that edge's multiple.
    """
    m = len(ti.g2.graph.edges)
    lam_ids = set(ti.lambda_edge_ids())
    labels = {eid: 0 for eid in prod.zero_ids()}
    for k, f in enumerate(sorted(ti.g1.regular_ids()), start=1):
        if f in lam_ids:
            base = (k - 1) * m
            copy_regular = sorted(eid for eid in ti.copy_edge_ids(f) if not prod.edge(eid).is_zero)
            for offset, eid in enumerate(copy_regular, start=1):
                labels[eid] = base + offset
        else:
            labels[f] = k * m
    return ProperLabeling(labels)


def _in_patch(f: str, cs: ContractingSet) -> ContractingSet:
    """The pair chosen in f's copy, over the patch's own ids: ``f/<id>`` becomes ``<id>``."""
    for eid in cs.contracting | cs.deleting:
        if not eid.startswith(f"{f}/"):
            raise InvalidContractingSet(f"edge {eid!r} lies outside the copy of {f!r}")
    cut = len(f) + 1
    return ContractingSet(frozenset(e[cut:] for e in cs.contracting), frozenset(e[cut:] for e in cs.deleting))


@dataclass(frozen=True)
class InducedPartition:
    """Partition of the base edge set induced by a product contracting set."""

    c1: frozenset
    d1: frozenset
    demoted: frozenset  # the lambda-edges sent to the zero side


def induced_partition(ti: TensorInstance, cs: ContractingSet, flip: bool = False) -> InducedPartition:
    """Classify each copy's restriction and pull the contracting set back to the base."""
    validate_contracting_set(tensor_product(ti, flip=flip), cs)
    lam_ids = ti.lambda_edge_ids()
    sides = {TYPE_C: set(), TYPE_D: set(), TYPE_ZERO: set()}
    for f in lam_ids:
        ids = ti.copy_edge_ids(f)
        # a cut inside a copy that keeps the pointed edge's ends together cuts
        # the product too, so a product set restricts to a contracting set of the patch
        sides[_classify(ti.g2, _in_patch(f, ContractingSet(cs.contracting & ids, cs.deleting & ids)))].add(f)
    for eid in ti.g1.regular_ids():
        if eid not in lam_ids:
            sides[TYPE_C if eid in cs.contracting else TYPE_D].add(eid)
    part = InducedPartition(*(frozenset(sides[t]) for t in (TYPE_C, TYPE_D, TYPE_ZERO)))
    base = recolor_subset(ti.g1, part.demoted, RECOLOR_ZERO)
    try:  # the bijection's claim: the pulled-back pair is a contracting set of the demoted base
        validate_contracting_set(base, ContractingSet(part.c1, part.d1))
    except InvalidContractingSet as exc:
        raise InvariantBreach(f"the pulled-back base pair is not a contracting set: {exc}") from None
    return part


def compose_contracting_set(
    ti: TensorInstance,
    c1_partition: tuple[frozenset, frozenset, frozenset],
    per_copy: Mapping[str, ContractingSet],
    flip: bool = False,
) -> ContractingSet:
    """Inverse of induced_partition: assemble a product contracting set."""
    c1, d1, s = (frozenset(x) for x in c1_partition)
    lam_ids = set(ti.lambda_edge_ids())
    if (c1 | d1 | s) - set(ti.g1.regular_ids()) or (s - lam_ids):
        raise InvalidPartition("partition must cover regular base edges with demotions among lambda-edges")
    base = recolor_subset(ti.g1, s, RECOLOR_ZERO)
    validate_contracting_set(base, ContractingSet(c1, d1))
    want = {f: (TYPE_C if f in c1 else TYPE_D if f in d1 else TYPE_ZERO) for f in lam_ids}
    c, d = set(c1 - lam_ids), set(d1 - lam_ids)
    for f in sorted(lam_ids):
        if f not in per_copy:
            raise InvalidPartition(f"missing per-copy choice for {f!r}")
        cs_f = per_copy[f]
        got = classify_pair(ti.g2, _in_patch(f, cs_f))
        if got != want[f]:
            raise TypeMismatch(f"copy {f!r} has type {got}, required {want[f]}")
        c |= set(cs_f.contracting)
        d |= set(cs_f.deleting)
    cs = ContractingSet(frozenset(c), frozenset(d))
    try:  # the bijection's claim: validated base and copy choices assemble a contracting set of the product
        validate_contracting_set(tensor_product(ti, flip=flip), cs)
    except InvalidContractingSet as exc:
        raise InvariantBreach(f"the assembled product pair is not a contracting set: {exc}") from None
    return cs


# -- the three substitution maps --------------------------------------------------------


def beta_lambda(p: RelPolynomial, lam: str, pp: PointedPolynomials) -> RelPolynomial:
    """Swap the four weight variables of the replaced color for the pointed
    polynomials: x -> T_L, X -> T_-, y -> T_C, Y -> T_/."""
    images = {"x": pp.tl, "X": pp.tminus, "y": pp.tc, "Y": pp.tslash}
    powers: dict[tuple[str, int], RelPolynomial] = {}

    def power(kind, exp):
        if (kind, exp) not in powers:
            powers[(kind, exp)] = images[kind] ** exp
        return powers[(kind, exp)]

    parts = []
    for (vars_, zs), coeff in p._terms.items():
        rest = [(vc, e) for vc, e in vars_ if vc[1] != lam]
        factor = RelPolynomial.monomial(coeff, rest, zs)
        for (kind, color), exp in vars_:
            if color == lam:
                factor = factor * power(kind, exp)
        parts.append(factor)
    return RelPolynomial.sum(parts)


def sigma(p: RelPolynomial) -> RelPolynomial:
    """Collapse each monomial's z-multiset into a single spliced class.

    The blocks of a splice are its factors' blocks, so the class's codes are
    the factors' codes together and its representative is their splice."""
    terms: dict = {}
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) > 1:
            codes = tuple(sorted(c for k in zs for c in k.codes))
            m = (vars_, (PivotClassKey(codes, splice_all([k.representative for k in zs])),))
        else:
            m = (vars_, zs)
        terms[m] = terms.get(m, 0) + coeff
    return RelPolynomial(terms)


def decompose_z_linear(p: RelPolynomial) -> list[tuple[RelPolynomial, "object"]]:
    """Write a z-linear polynomial as a list of (coefficient polynomial, key), its terms read unsorted, by key codes."""
    buckets: dict = {}
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) != 1:
            raise NotLinearInZ("expected exactly one z-symbol per monomial")
        key = zs[0]
        buckets.setdefault(key, {})[(vars_, ())] = coeff
    return [(RelPolynomial(t), k) for k, t in sorted(buckets.items(), key=lambda it: it[0].codes)]


def beta_zero(p: RelPolynomial, t0: RelPolynomial, flip: bool = False) -> RelPolynomial:
    """Expand every demoted edge of each class via the type-zero polynomial.

    Each ``lambda0``-colored edge of a class representative is glued, by a
    2-sum along the patch's pointed edge, to one term of t0; the results are
    summed over all assignments of t0 terms to demoted edges. Classes without
    demoted edges pass through under their own monomial. A zero t0 has no
    term to glue, so every class with a demoted edge vanishes and nothing is
    built for it.
    """
    parts = decompose_z_linear(t0)
    out = []
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) != 1:
            raise NotLinearInZ("expected exactly one z-symbol per monomial")
        key = zs[0]
        rep = key.representative
        demoted = sorted(e.id for e in rep.edges if e.color == RECOLOR_ZERO)
        if not demoted:
            out.append(RelPolynomial({(vars_, zs): coeff}))
            continue
        if not parts:
            continue
        base_poly = RelPolynomial.monomial(coeff, vars_, ())
        for assignment in iter_product(range(len(parts)), repeat=len(demoted)):
            glued = rep
            weight = base_poly
            for eid, j in zip(demoted, assignment):
                pj, key_j = parts[j]
                patch = key_j.representative
                glued = _glue_along_edge(glued, eid, patch, patch.pointed_edge().id, f"{eid}.", flip=flip)
                weight = weight * pj
            out.append(weight * z_symbol(pivot_class_key(glued)))
    return RelPolynomial.sum(out)


@lru_cache(maxsize=1)
def _orientation_free_stage(ti: TensorInstance) -> tuple[PointedPolynomials, RelPolynomial]:
    """The patch's pointed polynomials, and ``sigma(beta_lambda(sum_S U(g1
    with S demoted)))`` over the subsets S of the replaced color's edges.

    The three maps are linear, so one state sum takes every demoted subset
    and each map runs once. A zero T_0 annihilates every class with a
    demoted edge in beta_zero, so then only S = {} contributes and the state
    sum demotes nothing. Its terms, their order and their key objects are the
    S = {} terms of the full sum, whose other terms carry ``lambda0`` codes
    and come after them in leaf order. Only beta_zero reads the gluing
    orientation, so both orientations share this stage. Callers run the two
    orientations of an instance back to back, so one entry catches every
    reuse.
    """
    pp = pointed_polys(ti.g2)
    demotable = () if pp.t0.is_zero else ti.lambda_edge_ids()
    u = universal_tutte_statesum(ti.g1, demotable=demotable)
    return pp, sigma(beta_lambda(u, ti.lam, pp))


def substitution_rhs(ti: TensorInstance, flip: bool = False) -> RelPolynomial:
    """The substitution pipeline side, summed over demoted subsets of the replaced color.

    Under a zero T_0 the stage demotes nothing, so beta_zero would pass every
    class through unchanged: the stage itself is the right side."""
    pp, stage = _orientation_free_stage(ti)
    if not pp.t0.is_zero:
        return beta_zero(stage, pp.t0, flip=flip)
    if any(len(zs) != 1 for _, zs in stage._terms):
        raise NotLinearInZ("expected exactly one z-symbol per monomial")
    return stage


@dataclass(frozen=True)
class VerifyReport:
    equal: bool
    structural_equal: bool
    lhs: RelPolynomial
    rhs: RelPolynomial
    elapsed: float


def verify_tensor_formula(
    ti: TensorInstance,
    trials: int = 32,
    seed: int = 0,
    flip: bool = False,
    corrupt_rhs: bool = False,
) -> VerifyReport:
    """Compare the product's polynomial against the substitution formula.

    The left side is computed directly on the product graph under the
    copy-block labeling; the right side through the substitution pipeline.
    ``corrupt_rhs`` injects a fault (negative control for the test suite).
    """
    t_start = time.perf_counter()
    prod = tensor_product(ti, flip=flip)
    lhs = universal_tutte_statesum(prod, product_labeling(ti, prod))
    rhs = substitution_rhs(ti, flip=flip)
    if corrupt_rhs:
        rhs = rhs + RelPolynomial.const(1)
    structural = lhs == rhs
    equal = structural or equal_mod_ideal(lhs, rhs, trials=trials, seed=seed)
    return VerifyReport(
        equal=equal,
        structural_equal=structural,
        lhs=lhs,
        rhs=rhs,
        elapsed=time.perf_counter() - t_start,
    )
