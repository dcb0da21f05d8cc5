"""Dense tensor values with explicit slot variance and the index-replacement map.

A ``TensorValue`` is a concrete tensor at a point (or a broadcastable batch of
points): an ordered list of slots, each contravariant ('u') or covariant
('d'), over components stored as a :class:`~emtkit.jets.Jet` whose value
axes are the slots (a constant is an order-0 jet).  Tensors are contracted
through one primitive, :func:`einsum`, a jet einsum of the components (batch
axes and derivative tables ride along) whose result variance is derived from
the subscripts and checked: every summed index joins an up slot with a down
slot.  A slot permutation is an ``ndarray.transpose`` view of each table,
which copies nothing and shares memory with its input (safe because no table
is written after construction; see :mod:`emtkit.jets`).

The central algebraic operation here is :func:`tilde`: it maps a tensor of
type (p, q) to type (p+1, q+1) by summing, over every slot, the copy of the
tensor with that slot's index replaced by the new one, weighted with a
Kronecker delta (plus sign for contravariant slots, minus for covariant).
A scalar maps to the zero (1,1) tensor.  The two new slots are appended at
the end of the slot list, contravariant first.

Most of tilde T is zeros, and derivative formulas only ever contract it with
a second tensor on both new slots.  :func:`tilde_contract` forms that
contraction directly, one product per slot of T, without building tilde T.
"""

from __future__ import annotations

import functools
import operator
from itertools import permutations

import numpy as np

from .jets import (Jet, constant_jet, jet_einsum, zeros_jet, _LETTERS, _free_letters,
                   _parse_subs)

__all__ = [
    "TensorValue",
    "einsum",
    "tilde",
    "tilde_contract",
    "tensor_product",
    "contract",
    "transpose_slots",
    "raise_slot",
    "antisymmetrize_pair",
    "levi_civita",
    "max_abs",
    "value_array",
]


class TensorValue:
    """Components plus slot bookkeeping for one tensor at (a batch of) point(s)."""

    __slots__ = ("variance", "n", "components")

    def __init__(self, variance, n: int, components):
        variance = tuple(variance)
        r = len(variance)
        if variance.count("u") + variance.count("d") != r:
            raise ValueError(f"variance entries must be 'u' or 'd', got {variance}")
        if not isinstance(components, Jet):
            raise TypeError(f"tensor components must be a Jet, got {type(components).__name__}")
        if components.vdim != r:
            raise ValueError(f"component jet has vdim {components.vdim}, slots {r}")
        shape = components.data[0].shape
        if shape[len(shape) - r:] != (n,) * r:
            raise ValueError(f"component jet value shape {components.vshape} != {(n,)*r}")
        self.variance = variance
        self.n = n
        self.components = components

    @property
    def rank(self) -> int:
        return len(self.variance)

    def __repr__(self):
        return f"TensorValue(variance={self.variance}, n={self.n})"

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        if not isinstance(other, TensorValue):
            return NotImplemented
        if other.variance != self.variance or other.n != self.n:
            raise ValueError("tensor addition needs identical slot structure")
        return TensorValue(self.variance, self.n, op(self.components, other.components))

    def __neg__(self):
        return TensorValue(self.variance, self.n, -self.components)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, np.floating)):
            return TensorValue(self.variance, self.n, self.components * float(scalar))
        return NotImplemented

    __rmul__ = __mul__


def value_array(x) -> np.ndarray:
    """The value part of a tensor, jet, array or number (derivatives dropped
    for jets)."""
    if isinstance(x, TensorValue):
        x = x.components
    return np.asarray(x.data[0] if isinstance(x, Jet) else x)


def max_abs(x) -> float:
    """Largest |value| of a tensor, jet, array or number: 0.0 if it has no
    component, NaN if any component is NaN."""
    a = value_array(x)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _slot_letters(r: int) -> str:
    """The einsum letters "ij..." of ``r`` tensor slots."""
    return "".join(chr(ord("i") + k) for k in range(r))


@functools.lru_cache(maxsize=4096)
def _einsum_variance(subs: str, vx: tuple, vy: tuple) -> tuple:
    """The variance of ``einsum(subs, x, y)`` for operands of variance ``vx``
    and ``vy``."""
    (sx, sy), out = _parse_subs(subs)
    if (len(sx), len(sy)) != (len(vx), len(vy)):
        raise ValueError(f"einsum '{subs}' does not fit operands of rank {len(vx)} and {len(vy)}")
    slots = {}
    for c, v in zip(sx + sy, vx + vy):
        slots[c] = slots.get(c, "") + v
    for c in dict.fromkeys(sx + sy + out):
        vs = slots.get(c, "")
        if c in out and (len(vs) != 1 or out.count(c) > 1):
            raise ValueError(f"einsum '{subs}': output letter '{c}' is in slots '{vs}', not one")
        if c not in out and sorted(vs) != ["d", "u"]:
            raise ValueError(f"einsum '{subs}': summed letter '{c}' joins slots '{vs}', "
                             "not one up and one down")
    return tuple(slots[c] for c in out)


def einsum(subs: str, x, y) -> TensorValue:
    """``jet_einsum(subs, ...)`` of two tensors, one of which may be a scalar
    Jet (rank 0), with the result's variance read off ``subs``: an output letter
    keeps the variance of its one slot, and a summed letter must join one up
    slot with one down slot.  Any other pairing, or a subscript that does not
    fit its operand's rank, raises ValueError."""
    if isinstance(x, Jet):
        x = TensorValue((), y.n, x)
    elif isinstance(y, Jet):
        y = TensorValue((), x.n, y)
    variance = _einsum_variance(subs, x.variance, y.variance)
    return TensorValue(variance, x.n, jet_einsum(subs, x.components, y.components))


def _zeros_like(t: TensorValue, variance) -> TensorValue:
    r, c = len(variance), t.components
    return TensorValue(variance, t.n, zeros_jet(c.nvars, c.order, r, c.batch_shape + (t.n,) * r))


def tilde(t: TensorValue) -> TensorValue:
    """Index-replacement map: type (p,q) -> (p+1,q+1), appending slots (up, down).

    For each contravariant slot the summand is the tensor with that slot
    holding the new up index, times delta(old slot, new down index); for each
    covariant slot the summand is minus the tensor with that slot holding the
    new down index, times delta(new up index, old slot).  Scalars map to zero.

    The deltas are never multiplied out: each summand is added, in slot
    order, into the diagonal of one zero table where its delta is 1.
    """
    r = t.rank
    variance = t.variance + ("u", "d")
    if r == 0:
        return _zeros_like(t, variance)
    c = t.components
    S = _LETTERS[:r]
    A, B, *dl = _free_letters(set(S), 2 + c.order)
    tables = []
    for m, src in enumerate(c.data):
        dm = "".join(dl[:m])
        nb = src.ndim - r - m
        # a writable accumulator of its own: zeros_jet's tables are read-only
        res = np.zeros(src.shape[:nb] + (t.n,) * (r + 2) + src.shape[nb + r:])
        tables.append(res)
        for k, v in enumerate(t.variance):
            # slot k's axis moves to the new slot; slot k itself broadcasts
            moved = np.expand_dims(np.moveaxis(src, nb + k, nb + r - 1), nb + k)
            if v == "u":
                diag = np.einsum(f"...{S}{A}{S[k]}{dm}->...{S}{A}{dm}", res)
                diag += moved
            else:
                diag = np.einsum(f"...{S}{S[k]}{B}{dm}->...{S}{B}{dm}", res)
                diag -= moved
    return TensorValue(variance, t.n, Jet(c.nvars, c.order, r + 2, tables))


def tilde_contract(t: TensorValue, m: TensorValue) -> TensorValue:
    """(tilde T)^{S x}_y m^y_x{}^E, without building tilde T.

    ``m``'s first two slots are [y, x], up and down; its other slots E
    follow the slots S of ``t`` in the result.  Each contravariant slot s
    adds T[s -> x] m[s, x, E] and each covariant slot subtracts
    T[s -> y] m[y, s, E]: r products of T with m in place of the
    rank-(r+2) tilde T and its contraction with m.
    """
    if m.variance[:2] != ("u", "d"):
        raise ValueError(f"tilde_contract needs m's first slots up, down; got {m.variance[:2]}")
    r = t.rank
    S = _LETTERS[:r]
    x, y, *E = _free_letters(set(S), m.rank)
    E = "".join(E)
    if r == 0:
        # tilde T is zero; contracting its table keeps the jet order and
        # batch shape that the general case would give
        return einsum(f"{x}{y},{y}{x}{E}->{E}", _zeros_like(t, ("u", "d")), m)
    acc = None
    for k, v in enumerate(t.variance):
        if v == "u":
            term = einsum(f"{S[:k]}{x}{S[k + 1:]},{S[k]}{x}{E}->{S}{E}", t, m)
            acc = term if acc is None else acc + term
        else:
            term = einsum(f"{S[:k]}{y}{S[k + 1:]},{y}{S[k]}{E}->{S}{E}", t, m)
            acc = -term if acc is None else acc - term
    return acc


def tensor_product(a: TensorValue, b: TensorValue) -> TensorValue:
    la = _LETTERS[:a.rank]
    lb = "".join(_free_letters(set(la), b.rank))
    return einsum(f"{la},{lb}->{la}{lb}", a, b)


def _check_slots(t: TensorValue, *slots: int) -> None:
    for i in slots:
        if not 0 <= i < t.rank:
            raise ValueError(f"slot index {i} is out of range for a rank-{t.rank} tensor")


def contract(t: TensorValue, i: int, j: int) -> TensorValue:
    """Contract slot i (up) with slot j (down), or vice versa."""
    _check_slots(t, i, j)
    S = _LETTERS[: t.rank]
    subs = "".join(S[i] if k == j else c for k, c in enumerate(S)) + ",->" + \
        "".join(c for k, c in enumerate(S) if k not in (i, j))
    return TensorValue(_einsum_variance(subs, t.variance, ()), t.n,
                       jet_einsum(subs, t.components, np.float64(1.0)))


def _permuted(comps: Jet, rank: int, perm) -> Jet:
    """``comps`` of a rank-``rank`` tensor with new slot k taken from old
    slot ``perm[k]``: a transposed view of every table, with the batch and
    derivative axes in place."""
    perm = tuple(perm)
    if sorted(perm) != list(range(rank)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{rank - 1}")
    nb = comps.data[0].ndim - rank
    views = [t.transpose((*range(nb), *(nb + p for p in perm), *range(nb + rank, t.ndim)))
             for t in comps.data]
    return Jet(comps.nvars, comps.order, rank, views)


def transpose_slots(t: TensorValue, perm) -> TensorValue:
    """Reorder slots so that new slot k is old slot perm[k]; the components
    are views of those of ``t``."""
    comps = _permuted(t.components, t.rank, perm)
    return TensorValue(tuple(t.variance[p] for p in perm), t.n, comps)


def raise_slot(t: TensorValue, i: int, inverse_metric: TensorValue) -> TensorValue:
    _check_slots(t, i)
    if inverse_metric.variance != ("u", "u"):
        raise ValueError("inverse metric must be type (2,0)")
    slots = _LETTERS[: t.rank]
    A = _free_letters(set(slots), 1)[0]
    return einsum(f"{slots},{A}{slots[i]}->{slots[:i]}{A}{slots[i + 1:]}", t, inverse_metric)


def antisymmetrize_pair(t: TensorValue, i: int, j: int) -> TensorValue:
    if t.variance[i] != t.variance[j]:
        raise ValueError("can only antisymmetrize slots of equal variance")
    perm = list(range(t.rank))
    perm[i], perm[j] = perm[j], perm[i]
    return (t - transpose_slots(t, perm)) * 0.5


def levi_civita(n: int) -> TensorValue:
    """Totally antisymmetric symbol with eps[0,1,...,n-1] = +1, type (0,n),
    as an order-0 jet."""
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        inv = sum(1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y])
        eps[perm] = -1.0 if inv % 2 else 1.0
    return TensorValue(("d",) * n, n, constant_jet(eps, n, 0))
