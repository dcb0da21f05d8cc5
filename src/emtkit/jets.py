"""Truncated multivariate Taylor (jet) arithmetic on dense numpy tables.

A jet stores the value of a quantity together with all of its partial
derivatives up to a fixed order with respect to ``nvars`` independent
variables.  Arithmetic on jets propagates derivatives exactly (truncated
Taylor/Leibniz rules), so identities between smooth expressions hold to
floating-point roundoff rather than to a finite-difference error.  There
is one product rule, :func:`jet_einsum`; a smooth function of a jet
(:func:`jet_compose`) is a Horner sum of products of its derivative part.

Layout: ``data[m]`` is the order-m derivative table with shape

    batch_shape + value_shape + (nvars,)*m

The tables are symmetric in the derivative axes.  ``vdim`` counts the
value axes (0 for scalar jets); leading axes are broadcastable batch
axes, which lets a whole grid of sample points flow through one einsum.

One shape rule: table m is exactly ``data[0].shape + (nvars,)*m``, one
comparison per table at construction, and any other shape is a ValueError.
Jets of different batches broadcast table by table in sums and products;
a constant added to a jet may not widen its batch.

Structural zeros: a table known to vanish before any arithmetic runs (the
derivative tables of a constant or of a coordinate above order 1, the
value table of a jet's derivative part) is a view of one immutable 8-byte
zero buffer with every stride 0, read-only and costing neither memory nor
time.  :func:`jet_einsum` skips each Leibniz split that reads one, and
addition, negation and scaling pass one through untouched.  A skipped
split drops only the 0 * x terms of a structural zero, so for finite
operands the result equals the dense computation; a NaN or inf in a live
table still reaches every result table that a split of two live tables
forms.  Tables are shared between jets and may be read-only views, so a
jet's tables are never written after construction: code that accumulates
in place allocates its own array.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

__all__ = [
    "Jet",
    "JetOrderError",
    "jet_einsum",
    "jet_compose",
    "jexp",
    "jlog",
    "jsin",
    "jcos",
    "jsqrt",
    "jreciprocal",
    "jpow",
    "jet_truncate",
    "differentiate",
    "partial_in_var",
    "lift",
    "constant_jet",
    "zeros_jet",
    "jet_stack",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FLOAT = np.dtype(float)
# the one 8-byte buffer every structural zero reads: immutable, so each
# view of it is read-only
_ZERO_BYTES = bytes(8)


class JetOrderError(RuntimeError):
    """An operation needed more derivative orders than its operand carries."""


class Jet:
    """Dense truncated Taylor expansion of an array-valued quantity."""

    __slots__ = ("nvars", "order", "vdim", "data")

    # keep numpy from absorbing Jet operands into object arrays; binary ops
    # with ndarrays then fall back to the Jet dunders below
    __array_ufunc__ = None

    def __init__(self, nvars: int, order: int, vdim: int, data):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        data = [t if type(t) is np.ndarray and t.dtype is _FLOAT
                else np.asarray(t, dtype=float) for t in data]
        if len(data) != order + 1:
            raise ValueError(f"expected {order + 1} derivative tables, got {len(data)}")
        lead = data[0].shape
        if len(lead) < vdim:
            raise ValueError("value table has fewer axes than vdim")
        for m, t in enumerate(data):
            if t.shape != lead + (nvars,) * m:
                raise ValueError(f"order-{m} table has shape {t.shape}, "
                                 f"expected {lead + (nvars,) * m}")
        self.nvars = nvars
        self.order = order
        self.vdim = vdim
        self.data = tuple(data)

    # -- introspection -------------------------------------------------

    @property
    def batch_shape(self) -> tuple:
        return self.data[0].shape[: self.data[0].ndim - self.vdim]

    @property
    def vshape(self) -> tuple:
        nd = self.data[0].ndim
        return self.data[0].shape[nd - self.vdim:] if self.vdim else ()

    def __repr__(self):
        return (
            f"Jet(nvars={self.nvars}, order={self.order}, vdim={self.vdim}, "
            f"batch={self.batch_shape}, vshape={self.vshape})"
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, other, np.subtract)

    def __rsub__(self, other):
        return _add(other, self, np.subtract)

    def __neg__(self):
        return Jet(self.nvars, self.order, self.vdim, [_neg(t) for t in self.data])

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _mul(self, jreciprocal(other))
        return _mul(self, 1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return _mul(jreciprocal(self), other)

    def __pow__(self, p):
        return jpow(self, p)


def _is_const(x) -> bool:
    return not isinstance(x, Jet)


def _zero_table(shape) -> np.ndarray:
    """A structural zero: a read-only all-zero view with every stride 0."""
    return np.ndarray(shape, _FLOAT, buffer=_ZERO_BYTES, strides=(0,) * len(shape))


def _is_zero(t: np.ndarray) -> bool:
    """Whether ``t`` is a structural zero: with every stride 0 all its
    entries are its first one, so one read tells."""
    return t.size > 0 and not any(t.strides) and t.item(0) == 0.0


def _neg(t: np.ndarray) -> np.ndarray:
    return t if _is_zero(t) else -t


def _sum_table(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """op(a, b) for two derivative tables of one jet sum.

    Two structural zeros give one.  With one and equal shapes, ``a + 0``
    and ``a - 0`` are ``a``, ``0 + b`` is ``b`` and ``0 - b`` is ``-b``,
    whatever their memory layout; a sum that broadcasts goes through ``op``.
    """
    za, zb = _is_zero(a), _is_zero(b)
    if za and zb:
        return _zero_table(np.broadcast_shapes(a.shape, b.shape))
    if (za or zb) and a.shape == b.shape:
        return a if zb else b if op is np.add else -b
    return op(a, b)


def _derivative_part(f: "Jet") -> "Jet":
    """``f`` with its value table replaced by a structural zero: the
    nilpotent N of the series in :func:`jet_compose` and in the matrix
    inverse and log-det series of :mod:`emtkit.geometry`."""
    return Jet(f.nvars, f.order, f.vdim, [_zero_table(f.data[0].shape), *f.data[1:]])


def _add(x, y, op=np.add):
    """x + y, or x - y with ``op=np.subtract``, one pass per derivative table."""
    if _is_const(y):
        return Jet(x.nvars, x.order, x.vdim, [op(x.data[0], y), *x.data[1:]])
    if _is_const(x):
        tail = y.data[1:] if op is np.add else [_neg(t) for t in y.data[1:]]
        return Jet(y.nvars, y.order, y.vdim, [op(x, y.data[0]), *tail])
    if x.nvars != y.nvars:
        raise ValueError("jet addition needs matching nvars")
    if x.vdim != y.vdim:
        raise ValueError("jet addition needs matching vdim")
    order = min(x.order, y.order)
    return Jet(x.nvars, order, x.vdim,
               [_sum_table(x.data[m], y.data[m], op) for m in range(order + 1)])


def _mul(x, y):
    """Elementwise product of two jets of equal vdim, or a jet scaled by a
    constant broadcast against its batch and value axes."""
    if _is_const(y):
        x, y = y, x
    if _is_const(x):
        c = np.asarray(x, dtype=float)
        if c.ndim == 0:
            return Jet(y.nvars, y.order, y.vdim, [t if _is_zero(t) else c * t for t in y.data])
        return _const_mul(c, y)
    if x.vdim != y.vdim:
        raise ValueError("elementwise product needs equal vdim or a constant operand")
    v = _LETTERS[: x.vdim]
    return jet_einsum(f"{v},{v}->{v}", x, y)


def _const_mul(c: np.ndarray, y: "Jet") -> "Jet":
    # constant array broadcast against batch+value axes; derivative axes ride along
    out = []
    for m, t in enumerate(y.data):
        cm = c[(...,) + (None,) * m]
        out.append(_zero_table(np.broadcast_shapes(cm.shape, t.shape)) if _is_zero(t)
                   else cm * t)
    return Jet(y.nvars, y.order, y.vdim, out)


def _parse_subs(subs: str):
    lhs, out = subs.split("->")
    parts = lhs.split(",")
    return parts, out


def _free_letters(used, k):
    pool = [c for c in _LETTERS if c not in used]
    if len(pool) < k:
        raise ValueError("ran out of einsum letters")
    return pool[:k]


# Leading batch points from which a plain-matmul contraction goes through
# one batched ``@`` instead of np.einsum.  Timed on the contractions of the
# 4-D variational quadrature, ``@`` wins in sum from 16 points on, and from
# 128 points on it loses only where it would at any batch (matrix-vector
# shapes, and operands that need a transposing copy).  The 16-point suites
# stay on np.einsum, bit for bit.
_MATMUL_MIN_POINTS = 128


@functools.lru_cache(maxsize=4096)
def _contraction(sx: str, sy: str, so: str):
    """The plan of the contraction ``...sx,...sy->...so``: its einsum
    subscripts and, when it is a plain matmul, the layout that ``_contract``
    turns into one batched ``@``.

    The layout sorts the letters into batch (in both operands and the
    output), x-only, contracted and y-only, as axis permutations of x, y and
    of the ``@`` result.  Subscripts with a letter repeated within a term, a
    letter summed in one operand only, or no contracted letter at all (an
    outer or elementwise product, which ``@`` only slows down) get None.
    """
    subs = f"...{sx},...{sy}->...{so}"
    batch = [c for c in so if c in sx and c in sy]
    xo = [c for c in so if c in sx and c not in sy]
    yo = [c for c in so if c in sy and c not in sx]
    con = [c for c in sx if c in sy and c not in so]
    plain = (all(len(set(s)) == len(s) for s in (sx, sy, so))
             and len(batch) + len(xo) + len(yo) == len(so)
             and len(batch) + len(xo) + len(con) == len(sx)
             and len(batch) + len(con) + len(yo) == len(sy))
    if not (plain and con):
        return subs, None
    mo = batch + xo + yo
    return subs, (tuple(sx.index(c) for c in batch + xo + con),
                  tuple(sy.index(c) for c in batch + con + yo),
                  len(batch), len(xo), tuple(mo.index(c) for c in so))


def _contract(step, points: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One two-operand contraction from its ``_contraction`` plan.

    With at least ``_MATMUL_MIN_POINTS`` leading batch points, a plain
    matmul with equal batch shapes becomes one ``@`` on transposed and
    reshaped operands; the result is a writable view of that product, in
    output order.  Everything else goes to np.einsum.
    """
    subs, layout = step
    if layout is None or points < _MATMUL_MIN_POINTS:
        return np.einsum(subs, a, b)
    xperm, yperm, nb, nx, operm = layout
    lead = a.ndim - len(xperm)
    if lead < 0 or b.ndim - len(yperm) != lead:
        return np.einsum(subs, a, b)
    keep = tuple(range(lead))
    # at: lead, batch, x-only, contracted; bt: lead, batch, contracted, y-only
    at = a.transpose(keep + tuple(lead + p for p in xperm))
    bt = b.transpose(keep + tuple(lead + p for p in yperm))
    nb += lead
    cut = nb + nx
    bshape, xshape, csize = at.shape[:nb], at.shape[nb:cut], at.shape[cut:]
    if bt.shape[:nb + len(csize)] != bshape + csize:
        return np.einsum(subs, a, b)
    yshape = bt.shape[nb + len(csize):]
    n, k = math.prod(bshape), math.prod(csize)
    prod = at.reshape(n, math.prod(xshape), k) @ bt.reshape(n, k, math.prod(yshape))
    return prod.reshape(bshape + xshape + yshape).transpose(
        keep + tuple(lead + p for p in operm))


@functools.lru_cache(maxsize=1024)
def _leibniz_plan(subs: str, order: int, x_jet: bool, y_jet: bool):
    """The value-axis count of x, the value rank of the output, and per
    output order m the splits (i, step, perms) of the Leibniz sum: one
    ``_contraction`` step puts x's i derivative slots first, and each
    i-subset of the m output slots, in ``combinations`` order, is that
    product with its derivative axes permuted by ``perm`` (negative axis
    numbers; None for the identity).  A constant operand has no derivative
    slots, so it keeps only the split where the jet takes all m of them.
    """
    (sx, sy), so = _parse_subs(subs)
    dl = _free_letters(set(sx + sy + so), order)
    plan = []
    for m in range(order + 1):
        dm = "".join(dl[:m])
        splits = []
        for i in range(0 if y_jet else m, (m if x_jet else 0) + 1):
            perms = []
            for pos in combinations(range(m), i):
                src = pos + tuple(p for p in range(m) if p not in pos)
                perms.append(None if src == tuple(range(m))
                             else tuple(src.index(p) - m for p in range(m)))
            splits.append((i, _contraction(sx + dm[:i], sy + dm[i:], so + dm), tuple(perms)))
        plan.append(tuple(splits))
    return len(sx), len(so), tuple(plan)


def jet_einsum(subs: str, x, y):
    """Bilinear einsum over value axes with the Leibniz rule on derivative axes.

    ``subs`` uses plain letters for the value axes, e.g. ``'ij,jk->ik'``.
    Batch axes broadcast implicitly.  Either operand may be a plain
    ndarray, treated as a derivative-free constant.  A Leibniz split that
    reads a structural zero is skipped, and an output order all of whose
    splits are skipped is itself a structural zero.  Every other split
    goes through ``_contract``: from ``_MATMUL_MIN_POINTS`` batch points on,
    a plain matmul runs as one batched ``@``, which sums in another order
    than np.einsum and so agrees with it to roundoff, not bit for bit.
    """
    xj, yj = isinstance(x, Jet), isinstance(y, Jet)
    if xj and yj:
        if x.nvars != y.nvars:
            raise ValueError("jet_einsum operands differ in nvars")
        order = min(x.order, y.order)
    else:
        order = x.order if xj else y.order if yj else 0
    nvars = x.nvars if xj else y.nvars if yj else 0
    xs = x.data if xj else (np.asarray(x, float),)
    ys = y.data if yj else (np.asarray(y, float),)
    nx, vdim, plan = _leibniz_plan(subs, order, xj, yj)
    zx, zy = [_is_zero(t) for t in xs], [_is_zero(t) for t in ys]
    points = math.prod(xs[0].shape[:xs[0].ndim - nx])
    data = []
    for m, splits in enumerate(plan):
        acc = None
        for i, step, perms in splits:
            if zx[i] or zy[m - i]:
                continue
            base = _contract(step, points, xs[i], ys[m - i])
            lead = tuple(range(base.ndim - m))
            for perm in perms:
                term = base if perm is None else base.transpose(lead + perm)
                if acc is None:
                    # later perms of this split read base: accumulate in a copy
                    acc = term.copy() if len(perms) > 1 else term
                else:
                    acc += term
        data.append(acc if acc is not None
                    else _zero_table(_output_shape(subs, xs[0].shape, ys[0].shape) + (nvars,) * m))
    if not (xj or yj):
        return data[0]
    return Jet(nvars, order, vdim, data)


@functools.lru_cache(maxsize=4096)
def _output_shape(subs: str, xshape: tuple, yshape: tuple) -> tuple:
    """Batch and value shape of ``jet_einsum(subs, x, y)`` from the shapes
    of its operands' value tables."""
    (sx, sy), so = _parse_subs(subs)
    nx, ny = len(xshape) - len(sx), len(yshape) - len(sy)
    size = dict(zip(sx, xshape[nx:]))
    size.update(zip(sy, yshape[ny:]))
    batch = np.broadcast_shapes(xshape[:nx], yshape[:ny])
    return batch + tuple(size[c] for c in so)


def jet_compose(coeffs, f: Jet) -> Jet:
    """Apply a smooth scalar function to a jet via its derivative ladder.

    ``coeffs[k]`` is the k-th derivative of the outer function evaluated at
    ``f.data[0]`` (an array broadcastable to batch+value shape).  With N the
    derivative-only part of ``f``, the result is the Taylor sum
    sum_k coeffs[k] / k! N^k, summed by Horner's rule through the jet
    product; it is exact because N^(order+1) vanishes.
    """
    K = f.order
    if len(coeffs) < K + 1:
        raise ValueError("need one coefficient per derivative order")
    N = _derivative_part(f)
    acc = coeffs[K] / math.factorial(K)
    for k in range(K - 1, -1, -1):
        acc = _add(_mul(N, acc), coeffs[k] / math.factorial(k))
    if K == 0:
        return Jet(f.nvars, 0, f.vdim, [np.broadcast_to(acc, f.data[0].shape)])
    return acc


def jexp(f: Jet) -> Jet:
    v = np.exp(f.data[0])
    return jet_compose([v] * (f.order + 1), f)


def jlog(f: Jet) -> Jet:
    v0 = f.data[0]
    if np.any(v0 <= 0):
        raise ValueError("jlog needs a strictly positive value part")
    coeffs = [np.log(v0)]
    for k in range(1, f.order + 1):
        coeffs.append(((-1.0) ** (k - 1)) * math.factorial(k - 1) * v0 ** (-k))
    return jet_compose(coeffs, f)


def jsin(f: Jet) -> Jet:
    v0 = f.data[0]
    cycle = [np.sin(v0), np.cos(v0), -np.sin(v0), -np.cos(v0)]
    return jet_compose([cycle[k % 4] for k in range(f.order + 1)], f)


def jcos(f: Jet) -> Jet:
    v0 = f.data[0]
    cycle = [np.cos(v0), -np.sin(v0), -np.cos(v0), np.sin(v0)]
    return jet_compose([cycle[k % 4] for k in range(f.order + 1)], f)


def jreciprocal(f: Jet) -> Jet:
    v0 = f.data[0]
    if np.any(v0 == 0):
        raise ZeroDivisionError("jet reciprocal of a zero value part")
    coeffs = [((-1.0) ** k) * math.factorial(k) * v0 ** (-(k + 1)) for k in range(f.order + 1)]
    return jet_compose(coeffs, f)


def _jpow_float(f: Jet, p: float) -> Jet:
    v0 = f.data[0]
    if np.any(v0 <= 0):
        raise ValueError("fractional powers need a strictly positive value part")
    coeffs = []
    fac = 1.0
    for k in range(f.order + 1):
        coeffs.append(fac * v0 ** (p - k))
        fac *= p - k
    return jet_compose(coeffs, f)


def jsqrt(f: Jet) -> Jet:
    return _jpow_float(f, 0.5)


def jpow(f: Jet, p) -> Jet:
    """Integer powers by repeated multiplication (any sign of the base),
    fractional powers through the derivative ladder (positive base only)."""
    if isinstance(p, (int, np.integer)):
        if p < 0:
            return jpow(jreciprocal(f), -p)
        acc = None
        base = f
        k = int(p)
        if k == 0:
            return constant_jet(np.ones(f.batch_shape + f.vshape), f.nvars, f.order, vdim=f.vdim)
        while k:
            if k & 1:
                acc = base if acc is None else _mul(acc, base)
            k >>= 1
            if k:
                base = _mul(base, base)
        return acc
    return _jpow_float(f, float(p))


def jet_truncate(f: Jet, order: int) -> Jet:
    if not 0 <= order <= f.order:
        raise JetOrderError(f"cannot truncate a jet of order {f.order} to {order}")
    return Jet(f.nvars, order, f.vdim, f.data[: order + 1])


def differentiate(f: Jet, keep: int | None = None) -> Jet:
    """Turn one derivative axis into a new trailing value axis.

    Returns the jet of partial derivatives: value shape grows by one axis of
    size ``keep`` (default ``nvars``), order drops by one.  With ``keep < nvars``
    only the first ``keep`` directions become components (used when auxiliary
    parameters ride along as extra differentiation variables).
    """
    if f.order == 0:
        raise JetOrderError("jet order exhausted: cannot differentiate an order-0 jet")
    keep = f.nvars if keep is None else keep
    p = f.data[0].ndim   # batch and value axes
    out = []
    for m in range(f.order):
        # the last derivative axis of the order-(m+1) table moves to axis p
        t = f.data[m + 1].transpose((*range(p), p + m, *range(p, p + m)))
        if keep != f.nvars:
            idx = (slice(None),) * p + (slice(0, keep),)
            t = t[idx]
        out.append(t)
    return Jet(f.nvars, f.order - 1, f.vdim + 1, out)


def partial_in_var(f: Jet, var: int) -> Jet:
    """Partial derivative with respect to a single variable (order drops by one)."""
    if f.order == 0:
        raise JetOrderError("jet order exhausted: cannot differentiate an order-0 jet")
    return Jet(f.nvars, f.order - 1, f.vdim, [t[..., var] for t in f.data[1:]])


def lift(points: np.ndarray, nvars: int, order: int) -> list[Jet]:
    """Coordinate jets at sample points: one scalar jet per coordinate.

    ``points`` has shape batch + (k,) with k <= nvars; coordinate i carries
    first derivative e_i and structurally zero higher derivatives.
    """
    points = np.asarray(points, dtype=float)
    k = points.shape[-1]
    if k > nvars:
        raise ValueError("more coordinates than jet variables")
    batch = points.shape[:-1]
    out = []
    for i in range(k):
        data = [points[..., i]]
        if order >= 1:
            e = np.zeros(batch + (nvars,))
            e[..., i] = 1.0
            data.append(e)
        for m in range(2, order + 1):
            data.append(_zero_table(batch + (nvars,) * m))
        out.append(Jet(nvars, order, 0, data))
    return out


def constant_jet(value, nvars: int, order: int, vdim: int | None = None) -> Jet:
    """A jet with the given value part and structurally zero derivatives."""
    value = np.asarray(value, dtype=float)
    vdim = value.ndim if vdim is None else vdim
    data = [value]
    for m in range(1, order + 1):
        data.append(_zero_table(value.shape + (nvars,) * m))
    return Jet(nvars, order, vdim, data)


def zeros_jet(nvars: int, order: int, vdim: int, shape: tuple) -> Jet:
    """Structurally zero jet with batch+value shape ``shape`` (value axes
    are the last vdim)."""
    data = [_zero_table(shape + (nvars,) * m) for m in range(order + 1)]
    return Jet(nvars, order, vdim, data)


def jet_stack(nested) -> Jet:
    """Stack a nested list of scalar jets (or numbers) into an array-valued jet.

    The nesting depth becomes the number of value axes, in row-major order.
    An order above 0 at which no leaf is live stays one structural zero.
    """
    leaves, vshape = [nested], ()
    while any(isinstance(x, (list, tuple)) for x in leaves):
        if not all(isinstance(x, (list, tuple)) and len(x) == len(leaves[0]) for x in leaves):
            raise ValueError("jet_stack needs a rectangular nesting")
        vshape += (len(leaves[0]),)
        leaves = [el for x in leaves for el in x]
    jets = [x for x in leaves if isinstance(x, Jet)]
    if not jets:
        raise ValueError("jet_stack needs at least one Jet leaf")
    nvars = jets[0].nvars
    order = min(j.order for j in jets)
    if any(j.nvars != nvars for j in jets):
        raise ValueError("jet_stack leaves differ in nvars")
    if any(j.vdim != 0 for j in jets):
        raise ValueError("jet_stack expects scalar leaves")
    batch = np.broadcast_shapes(*[j.batch_shape for j in jets])
    data = []
    for m in range(order + 1):
        if m and all(not isinstance(x, Jet) or _is_zero(x.data[m]) for x in leaves):
            data.append(_zero_table(batch + vshape + (nvars,) * m))
            continue
        shape = batch + (nvars,) * m
        # a number or array leaf is a constant: its value, then zero tables
        tables = [x.data[m] if isinstance(x, Jet) else np.asarray(x if m == 0 else 0.0, dtype=float)
                  for x in leaves]
        # broadcast only the tables that need it: at 16 points a call of
        # np.broadcast_to costs more than its share of the stack
        stacked = np.stack([t if t.shape == shape else np.broadcast_to(t, shape) for t in tables],
                           axis=len(batch))
        data.append(stacked.reshape(batch + vshape + (nvars,) * m))
    return Jet(nvars, order, len(vshape), data)
