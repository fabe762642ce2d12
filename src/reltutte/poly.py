"""Exact sparse polynomials over the colored Tutte variables and z-symbols.

A monomial is an exponent vector over variables ``x/X/y/Y`` per regular color
together with a multiset of pivot-class keys (the z-symbols); coefficients
are exact Python integers. Equality modulo the labeling-independence ideal is
decided by randomized evaluation at points that annihilate the ideal by
construction: sampling integers x, y per color plus two global scalars a, b
and setting X = x + b*y, Y = y + a*x makes every generator of the ideal
vanish identically. All trials of one check draw their points from one
generator seeded with the check's seed.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Union

from .graph import EMPTY_KEY, PivotClassKey

VAR_KINDS = ("x", "X", "y", "Y")
_KIND_RANK = {"x": 0, "X": 1, "y": 2, "Y": 3}

# monomial: (vars, zkeys) with vars a sorted tuple of ((kind, color), exp)
# and zkeys a sorted tuple of PivotClassKey
Monomial = tuple[tuple, tuple]


def _merge_zkeys(keys: Iterable[PivotClassKey]) -> tuple:
    """Canonical z-multiset: the empty key is absorbed by any other key."""
    ks = list(keys)
    nonempty = [k for k in ks if k.codes]
    if nonempty:
        return tuple(sorted(nonempty, key=lambda k: k.codes))
    return (EMPTY_KEY,) if ks else ()


def _var_rank(item: tuple) -> tuple:
    (kind, color), _ = item
    return (color, _KIND_RANK[kind])


def monomial_key(vars_: Iterable[tuple], zkeys: Iterable[PivotClassKey]) -> Monomial:
    """Canonical monomial key from raw ((kind, color), exp) items and z keys."""
    acc: dict = {}
    for (kind, color), exp in vars_:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {kind}[{color}]")
        acc[(kind, color)] = acc.get((kind, color), 0) + exp
    vt = tuple(sorted(((k, v) for k, v in acc.items() if v), key=_var_rank))
    return (vt, _merge_zkeys(zkeys))


def _mul_vars(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items(), key=_var_rank))


def _vars_text(vars_: tuple) -> str:
    parts = []
    for (kind, color), exp in vars_:
        parts.append(f"{kind}[{color}]" if exp == 1 else f"{kind}[{color}]^{exp}")
    return "·".join(parts)


def _zkeys_text(zkeys: tuple) -> str:
    return "·".join(k.render() for k in zkeys)


class RelPolynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero() -> "RelPolynomial":
        return _ZERO

    @staticmethod
    def const(c: int) -> "RelPolynomial":
        return RelPolynomial({((), ()): int(c)})

    @staticmethod
    def monomial(coeff: int, vars_: Iterable[tuple] = (), zkeys: Iterable[PivotClassKey] = ()) -> "RelPolynomial":
        """Build c * prod (kind,color)^exp * prod z_key from raw parts."""
        return RelPolynomial({monomial_key(vars_, zkeys): int(coeff)})

    @staticmethod
    def sum(polys: Iterable["RelPolynomial"]) -> "RelPolynomial":
        """The sum of polys in one pass, equal to folding them with ``+``.

        As with ``+``, a monomial keeps the key object of its first addend, and
        one whose coefficient cancels is dropped, so a later addend brings its
        own key object back.
        """
        acc: dict = {}
        for p in polys:
            for m, c in p._terms.items():
                c += acc.get(m, 0)
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return RelPolynomial(acc)

    # -- inspection -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order: by z-key string, then variable string."""
        return [(m, coeff) for _, _, m, coeff in self._texts()]

    def _texts(self) -> list[tuple[str, str, Monomial, int]]:
        """(z-key text, variable text, monomial, coefficient) per term, in ``terms`` order."""
        rows = [(_zkeys_text(zs), _vars_text(vars_), (vars_, zs), c) for (vars_, zs), c in self._terms.items()]
        rows.sort(key=lambda row: row[:2])
        return rows

    def colors(self) -> set[str]:
        return {color for vars_, _ in self._terms for (kind, color), _e in vars_}

    def zkeys(self) -> set[PivotClassKey]:
        return {k for _, zs in self._terms for k in zs}

    def max_total_degree(self) -> int:
        deg = 0
        for vars_, zs in self._terms:
            deg = max(deg, sum(e for _, e in vars_) + len(zs))
        return deg

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RelPolynomial.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return RelPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict = {}
        for (v1, z1), c1 in self._terms.items():
            for (v2, z2), c2 in other._terms.items():
                m = (_mul_vars(v1, v2), _merge_zkeys(z1 + z2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return RelPolynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RelPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------------------

    def render(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for zt, vt, _, coeff in self._texts():
            factors = [text for text in (vt, zt) if text]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "·".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def term_records(self) -> list[dict]:
        """Stable JSON-friendly term list."""
        return [{"coeff": coeff, "vars": vt, "zkey": zt} for zt, vt, _, coeff in self._texts()]

    def __repr__(self):
        return f"RelPolynomial({self.render()})"


_ZERO = RelPolynomial({})


def _coerce(x) -> Union[RelPolynomial, type(NotImplemented)]:
    if isinstance(x, RelPolynomial):
        return x
    if isinstance(x, int):
        return RelPolynomial.const(x)
    return NotImplemented


def variable(kind: str, color: str) -> RelPolynomial:
    if kind not in VAR_KINDS:
        raise ValueError(f"unknown variable kind {kind!r}")
    return RelPolynomial({((((kind, color), 1),), ()): 1})


def z_symbol(key: PivotClassKey) -> RelPolynomial:
    return RelPolynomial({((), (key,)): 1})


# -- equality modulo the labeling ideal -------------------------------------------------


def equal_mod_ideal(
    p: RelPolynomial,
    q: RelPolynomial,
    trials: int = 32,
    seed: int = 0,
) -> bool:
    """Randomized equality test in the quotient by the labeling ideal.

    Sound per trial (ideal members vanish at every sampled point); a nonzero
    difference is detected with high probability since coordinates range over
    an interval wider than the total degree.

    The difference is compiled once into rows ``(coeff, slots)`` over a flat
    value list, x, X, y, Y for each sorted color and then one value per sorted
    z-key; a slot appears in ``slots`` once per unit of its exponent. All
    trials draw from one generator seeded with ``seed``: per trial the scalars
    a and b, then x and y per color, then the z values.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diff = p - q
    if diff.is_zero:
        return True
    bound = 10 * (1 + max(p.max_total_degree(), q.max_total_degree()))
    colors = sorted(diff.colors())
    keys = sorted(diff.zkeys(), key=lambda k: k.codes)
    slot = {(kind, c): 4 * i + _KIND_RANK[kind] for i, c in enumerate(colors) for kind in VAR_KINDS}
    zslot = {k: 4 * len(colors) + j for j, k in enumerate(keys)}
    rows = [
        (coeff, [slot[var] for var, exp in vars_ for _ in range(exp)] + [zslot[k] for k in zs])
        for (vars_, zs), coeff in diff._terms.items()
    ]
    randint = random.Random(seed).randint
    for _ in range(trials):
        a = randint(-bound, bound)
        b = randint(-bound, bound)
        vals = []
        for _ in colors:
            x = randint(-bound, bound)
            y = randint(-bound, bound)
            vals += (x, x + b * y, y, y + a * x)
        vals += [randint(2, bound) for _ in keys]
        total = 0
        for val, slots in rows:
            for s in slots:
                val *= vals[s]
            total += val
        if total:
            return False
    return True
