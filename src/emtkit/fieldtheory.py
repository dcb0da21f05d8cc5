"""Lagrangian field theory on a frame: functional derivatives, energy-momentum
tensors, and the conservation identities connecting them.

A theory is a Lagrangian density L(grad psi, psi, g) written against the small
algebra below (:class:`ArgTensor`).  Evaluating it records a tape: each
operation keeps its operands and the adjoint map back onto them.  One reverse
sweep from bar_L = 1 then gives the derivative of L with respect to every
component of every argument.  Each tensor component of (grad psi, psi, g) is
treated as an independent real; the values are spacetime jets, which form a
commutative ring, and the Lagrangians use only ring operations on their
components, so the extracted partials dL/d(grad psi), dL/dpsi and dL/dg come
out as jet-valued tensors, ready for further covariant differentiation.
dL/dg is symmetrized after extraction.

From these the module builds the source tensor of Belinfante's construction
and the canonical flux

    W^cab = dL/d(grad_c psi) (tilde psi)^ab,
    P^ab  = dL/d(grad_a psi) grad^b psi,

and from them

* the canonical tensor      T_C^ab = g^ab L - P^ab
* the metric tensor         T_M^ab = 2 dL/dg_ab - D_c(W^cab + Theta^cab) + g^ab L
* the improved tensor       T_B^ab = T_C^ab - D_c Theta^cab

with the superpotential

    Theta^abc = Y^acb + Y^bac + Y^cab,   Y^cab = 1/2 (W^cab - W^cba)

(antisymmetric under a<->b), and checks the exact identities relating them,
chief among them, for any vector field xi and any solution of the field
equations:

    D_a(T_B^ab xi_b) - 1/2 T_M^ab (Lie_xi g)_ab = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .jets import (
    Jet,
    _derivative_part,
    constant_jet,
    differentiate,
    jet_einsum,
    lift,
    partial_in_var,
    zeros_jet,
)
from .tensors import (
    TensorValue,
    _permuted,
    _slot_letters,
    antisymmetrize_pair,
    einsum,
    raise_slot,
    tilde,
    transpose_slots,
)
from .geometry import (
    Frame,
    MetricField,
    TensorField,
    covariant_derivative,
    divergence,
    evaluate,
    geometry_at,
    lie_derivative,
    partial_tensor,
    _at_order,
    _drop_orders,
    _truncated_view,
)

__all__ = [
    "LagrangianTheory",
    "scalar_theory",
    "maxwell_theory",
    "broken_scalar_theory",
    "TheoryFrame",
    "evaluate_theory",
    "a_einsum",
    "variational_pair",
    "gauge_shifted",
]


# --------------------------------------------------------------------------
# reverse-derivative layer over the Lagrangian arguments
# --------------------------------------------------------------------------


class ArgTensor:
    """A node of the tape built while a Lagrangian is evaluated.

    ``comps`` is the node's value, a tensor-valued Jet whose value axes are
    its slots.  ``parents`` lists ``(node, adjoint)`` pairs, one for each
    operand the node was computed from: ``adjoint(bar)`` maps the adjoint of
    this node (d L / d node, same shape as ``comps``) to its contribution to
    the adjoint of ``node``.  The arguments of the Lagrangian are the leaves,
    which have no parents.
    """

    __slots__ = ("comps", "parents")

    def __init__(self, comps, parents=()):
        self.comps = comps
        self.parents = tuple(parents)

    @property
    def rank(self):
        return self.comps.vdim

    def __add__(self, other):
        if isinstance(other, ArgTensor):
            return ArgTensor(self.comps + other.comps,
                             ((self, lambda bar: bar), (other, lambda bar: bar)))
        return ArgTensor(self.comps + other, ((self, lambda bar: bar),))

    __radd__ = __add__

    def __neg__(self):
        return ArgTensor(-self.comps, ((self, lambda bar: -bar),))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, c):
        """Multiplication by an argument-independent scalar (number or Jet)."""
        if isinstance(c, ArgTensor):
            if self.rank == 0 and c.rank == 0:
                return a_einsum(",->", self, c)
            raise ValueError("use a_einsum for general ArgTensor products")
        return ArgTensor(self.comps * c, ((self, lambda bar: bar * c),))

    __rmul__ = __mul__


def a_einsum(subs: str, x: ArgTensor, y: ArgTensor) -> ArgTensor:
    """Bilinear einsum on ArgTensors, recorded with the adjoint of each operand.

    The adjoint of an operand is the einsum of the output adjoint with the
    other operand, back onto the operand's letters.  That needs every letter
    of an operand to be distinct and to appear in the other operand or in the
    output; other subscripts are rejected.
    """
    lhs, out = subs.split("->")
    sx, sy = lhs.split(",")
    for s in (sx, sy):
        if len(set(s)) != len(s):
            raise ValueError(f"a_einsum '{subs}': a letter repeated within "
                             f"operand '{s}' has no adjoint")
    lonely = (set(sx) ^ set(sy)) - set(out)
    if lonely:
        raise ValueError(f"a_einsum '{subs}': letter(s) {''.join(sorted(lonely))} "
                         "in one operand only and not in the output have no adjoint")
    xc, yc = x.comps, y.comps
    return ArgTensor(jet_einsum(subs, xc, yc), (
        (x, lambda bar: jet_einsum(f"{out},{sy}->{sx}", bar, yc)),
        (y, lambda bar: jet_einsum(f"{sx},{out}->{sy}", xc, bar)),
    ))


def a_transpose(x: ArgTensor, perm) -> ArgTensor:
    """Slot permutation: slot k of the result is slot ``perm[k]`` of ``x``.
    Its value is a view of ``x``'s tables, and its adjoint applies the
    inverse permutation to ``bar``, again as a view."""
    comps = _permuted(x.comps, x.rank, perm)
    inverse = tuple(np.argsort(perm))
    return ArgTensor(comps, ((x, lambda bar: _permuted(bar, x.rank, inverse)),))


def _inverse_metric_arg(g_arg: ArgTensor, inv: Jet) -> ArgTensor:
    """g^-1 as a tape node with value ``inv``; from d(g^-1)^ij/dg_pq =
    -g^ip g^qj its adjoint is bar_g_pq = -g^ip bar_ij g^qj."""

    def adjoint(bar):
        return -jet_einsum("pj,qj->pq", jet_einsum("ip,ij->pj", inv, bar), inv)

    return ArgTensor(inv, ((g_arg, adjoint),))


def _adjoints(out: ArgTensor) -> dict:
    """One reverse sweep from ``out`` with bar_out = 1: maps every node that
    ``out`` depends on to d out / d node."""
    order, seen, stack = [], set(), [(out, False)]
    while stack:                      # iterative depth-first post-order
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((parent, False) for parent, _ in node.parents)
    bars = {out: np.float64(1.0)}
    for node in reversed(order):      # every consumer comes before its operands
        bar = bars[node]
        for parent, adjoint in node.parents:
            term = adjoint(bar)
            bars[parent] = term if parent not in bars else bars[parent] + term
    return bars


@dataclass
class LagrangianContext:
    """What a Lagrangian callable sees: the arguments as tape leaves, plus chart
    constants."""

    n: int
    psi: ArgTensor
    dpsi: ArgTensor
    g: ArgTensor
    ginv: ArgTensor
    coords: list

    def einsum(self, subs: str, x: ArgTensor, y: ArgTensor) -> ArgTensor:
        return a_einsum(subs, x, y)

    def transpose(self, x: ArgTensor, perm) -> ArgTensor:
        return a_transpose(x, perm)


# --------------------------------------------------------------------------
# theories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianTheory:
    name: str
    variance: tuple           # of the theory's one field psi
    lagrangian: Callable[[LagrangianContext], ArgTensor]


def scalar_theory(mass: float = 0.0) -> LagrangianTheory:
    """L = -1/2 (g^ab grad_a phi grad_b phi + m^2 phi^2)."""

    def lag(ctx: LagrangianContext) -> ArgTensor:
        dphi = ctx.dpsi
        up = ctx.einsum("ab,b->a", ctx.ginv, dphi)
        kin = ctx.einsum("a,a->", dphi, up)
        out = -0.5 * kin
        if mass != 0.0:
            phi = ctx.psi
            out = out + (-0.5 * mass * mass) * ctx.einsum(",->", phi, phi)
        return out

    return LagrangianTheory(
        name=f"scalar(m={mass:g})",
        variance=(),
        lagrangian=lag,
    )


def maxwell_theory() -> LagrangianTheory:
    """L = -1/4 F_ab F^ab with F_ab = grad_a A_b - grad_b A_a."""

    def lag(ctx: LagrangianContext) -> ArgTensor:
        dA = ctx.dpsi                             # [b, a] = grad_a A_b
        F = ctx.transpose(dA, (1, 0)) - dA        # [a, b] = grad_a A_b - grad_b A_a
        Fmixed = ctx.einsum("ca,ab->cb", ctx.ginv, F)
        Fup = ctx.einsum("cb,db->cd", Fmixed, ctx.ginv)
        S = ctx.einsum("ab,ab->", F, Fup)
        return -0.25 * S

    return LagrangianTheory(
        name="maxwell",
        variance=("d",),
        lagrangian=lag,
    )


def broken_scalar_theory(mass: float = 0.0) -> LagrangianTheory:
    """Scalar theory plus the bare-coordinate term 0.1 x^0 phi^2; deliberately
    not generally covariant, used as a negative control for the kinematic
    identity."""

    base = scalar_theory(mass)

    def lag(ctx: LagrangianContext) -> ArgTensor:
        phi = ctx.psi
        extra = ctx.einsum(",->", phi, phi) * (0.1 * ctx.coords[0])
        return base.lagrangian(ctx) + extra

    return LagrangianTheory(
        name=f"broken-scalar(m={mass:g})",
        variance=base.variance,
        lagrangian=lag,
    )


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


class TheoryFrame:
    """A theory, a field configuration, and a frame, with every derived
    quantity computed lazily and cached; the xi-independent parts of the
    currents (such as D_c Theta^cab) are shared by all vector fields."""

    def __init__(self, theory: LagrangianTheory, frame: Frame,
                 psi: TensorValue, dpsi: TensorValue, L: Jet,
                 dL_dpsi: TensorValue, dL_ddpsi: TensorValue, dL_dg: TensorValue):
        self.theory = theory
        self.frame = frame
        self.psi = psi
        self.dpsi = dpsi
        self.L = L
        self.dL_dpsi = dL_dpsi
        self.dL_ddpsi = dL_ddpsi
        self.dL_dg = dL_dg

    @property
    def n(self):
        return self.frame.n

    def truncate(self, order: int) -> TheoryFrame:
        """This theory frame at jet ``order``, on ``frame.truncate(order)``;
        see :func:`~emtkit.geometry._truncated_view`."""
        return _truncated_view(self, self.frame.order, order,
                               ("psi", "dpsi", "L", "dL_dpsi", "dL_ddpsi", "dL_dg"),
                               {"theory": self.theory, "frame": self.frame.truncate(order)})

    # -- field equations ------------------------------------------------

    @cached_property
    def eom_residual(self) -> TensorValue:
        """D_a dL/d(grad_a psi) - dL/dpsi."""
        G = self.dL_ddpsi
        return divergence(G, self.frame, slot=G.rank - 1) - self.dL_dpsi

    # -- superpotential and energy-momentum tensors ----------------------

    @cached_property
    def W(self) -> TensorValue:
        """W^cab = dL/d(grad_c psi) (tilde psi)^ab, slots [c, a, b]: the new
        up slot of tilde psi, then its raised new down slot."""
        t = tilde(_drop_orders(self.psi, 1))     # at dL/d(grad psi)'s order
        ttr = raise_slot(t, t.rank - 1, self.frame.ginv)                # [S, a, b]
        S = _slot_letters(ttr.rank - 2)
        return einsum(f"{S}c,{S}ab->cab", self.dL_ddpsi, ttr)

    @cached_property
    def P(self) -> TensorValue:
        """P^ab = dL/d(grad_a psi) grad^b psi."""
        d = self.dpsi
        dup = raise_slot(d, d.rank - 1, self.frame.ginv)
        S = _slot_letters(d.rank - 1)
        return einsum(f"{S}a,{S}b->ab", self.dL_ddpsi, dup)

    @cached_property
    def theta(self) -> TensorValue:
        """Theta^abc = Y^acb + Y^bac + Y^cab with Y^cab = W^c[ab];
        antisymmetric in its first two slots."""
        Y = antisymmetrize_pair(self.W, 1, 2)
        return (transpose_slots(Y, (0, 2, 1))      # [a,b,c] = Y[a,c,b]
                + transpose_slots(Y, (1, 0, 2))    # [a,b,c] = Y[b,a,c]
                + transpose_slots(Y, (1, 2, 0)))   # [a,b,c] = Y[c,a,b]

    @cached_property
    def _g_up_L(self) -> TensorValue:
        return einsum("ab,->ab", self.frame.ginv, self.L)

    @cached_property
    def emt_canonical(self) -> TensorValue:
        """T_C^ab = -dL/d(grad_a psi) grad^b psi + g^ab L."""
        return self._g_up_L - self.P

    @cached_property
    def _bracket(self) -> TensorValue:
        """Theta^cab + W^cab, slots [c, a, b]; symmetric in (a, b) by
        construction."""
        return self.theta + self.W

    @cached_property
    def emt_metric(self) -> TensorValue:
        """T_M^ab = 2 dL/dg_ab - D_c(bracket^cab) + g^ab L."""
        return 2.0 * self.dL_dg - divergence(self._bracket, self.frame) + self._g_up_L

    @cached_property
    def div_theta(self) -> TensorValue:
        """D_c Theta^cab, slots [a, b]; shared by the improved tensor and
        every difference current."""
        return divergence(self.theta, self.frame)

    @cached_property
    def emt_belinfante(self) -> TensorValue:
        """T_B^ab = T_C^ab - D_c Theta^cab."""
        return self.emt_canonical - self.div_theta


def evaluate_theory(theory: LagrangianTheory, field: TensorField, frame: Frame) -> TheoryFrame:
    """Evaluate the Lagrangian and its component-argument derivatives on a frame.

    ``field`` is a TensorField of the theory's declared variance.
    """
    variance = tuple(theory.variance)
    if tuple(field.variance) != variance:
        raise ValueError(f"field '{field.name}' has variance {field.variance}, "
                         f"theory expects {variance}")
    psi = evaluate(field, frame)
    dpsi = covariant_derivative(psi, frame)

    psi_arg = ArgTensor(psi.components)
    dpsi_arg = ArgTensor(dpsi.components)
    g_arg = ArgTensor(frame.g.components)
    ginv_arg = _inverse_metric_arg(g_arg, frame.ginv.components)
    ctx = LagrangianContext(frame.n, psi_arg, dpsi_arg, g_arg, ginv_arg,
                            frame.coords[: frame.n])
    Larg = theory.lagrangian(ctx)
    if Larg.rank != 0:
        raise ValueError("Lagrangian must evaluate to a scalar")

    L = Larg.comps
    bars = _adjoints(Larg)

    def grad_tensor(arg, arg_variance):
        r = len(arg_variance)
        shape = L.batch_shape + (frame.n,) * r
        g = bars.get(arg)
        if g is None:
            g = zeros_jet(L.nvars, L.order, r, shape)
        elif not isinstance(g, Jet):
            g = constant_jet(np.broadcast_to(g, shape), L.nvars, L.order, vdim=r)
        return TensorValue(tuple("u" if v == "d" else "d" for v in arg_variance), frame.n, g)

    dL_dpsi = grad_tensor(psi_arg, variance)
    dL_ddpsi = grad_tensor(dpsi_arg, variance + ("d",))
    raw = grad_tensor(g_arg, ("d", "d"))
    dL_dg = 0.5 * (raw + transpose_slots(raw, (1, 0)))
    return TheoryFrame(theory, frame, psi, dpsi, L, dL_dpsi, dL_ddpsi, dL_dg)


# --------------------------------------------------------------------------
# identity residuals
# --------------------------------------------------------------------------


def master_identity_terms(tf: TheoryFrame, xi: TensorValue):
    """(D_a(T_B^ab xi_b), 1/2 T_M^ab (Lie_xi g)_ab) as scalars, both at the
    left side's order k, one below T_B's: xi is read at order k + 1 and T_M
    at k."""
    lhs = divergence(noether_current(tf, xi), tf.frame)
    k = lhs.components.order
    h = lie_derivative(tf.frame.g, _at_order(xi, k + 1), tf.frame)
    return lhs, 0.5 * einsum("ab,ab->", _at_order(tf.emt_metric, k), h)


def current_gradient_pairing_residual(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """D_a(T_B^ab xi_b) - T_M^ab D_a xi_b, both terms at the left side's
    order k, one below T_B's: xi is read at order k + 1 and T_M at k."""
    lhs = divergence(noether_current(tf, xi), tf.frame)
    k = lhs.components.order
    xil = einsum("ab,b->a", tf.frame.g, _at_order(xi, k + 1))
    dxil = covariant_derivative(xil, tf.frame)   # [b, a] = D_a xi_b
    return lhs - einsum("ab,ba->", _at_order(tf.emt_metric, k), dxil)


def noether_current(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """j^a = T_B^ab xi_b, at T_B's order: xi is read at that order."""
    T = tf.emt_belinfante
    xi = _at_order(xi, T.components.order)
    return einsum("ab,b->a", T, einsum("ab,b->a", tf.frame.g, xi))


def _theta_current(tf: TheoryFrame, T: TensorValue, xi: TensorValue) -> TensorValue:
    """T^ab xi_b + Theta^cab D_c xi_b at order k, the lowest of T's,
    Theta's and D xi's: xi is read at order k + 1, and T and Theta at k."""
    k = min(T.components.order, tf.theta.components.order, xi.components.order - 1)
    xil = einsum("ab,b->a", tf.frame.g, _at_order(xi, k + 1))
    dxil = covariant_derivative(xil, tf.frame)   # [b, c] = D_c xi_b
    return (einsum("ab,b->a", _at_order(T, k), xil)
            + einsum("cab,bc->a", _at_order(tf.theta, k), dxil))


def alternative_current(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """j^a = T_C^ab xi_b + Theta^cab D_c xi_b."""
    return _theta_current(tf, tf.emt_canonical, xi)


def difference_current(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """V^a = (D_c Theta^cab) xi_b + Theta^cab D_c xi_b; its divergence vanishes
    because Theta is antisymmetric in (c, a) and the Ricci tensor is symmetric."""
    return _theta_current(tf, tf.div_theta, xi)


def lie_matter_current(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """j^a = dL/d(grad_a psi) Lie_xi psi - L xi^a; xi is read at order
    max(G + 1, L), G being dL/d(grad psi)'s order: Lie_xi psi at G's order
    reads xi one order above, and L xi reads it at L's."""
    G = tf.dL_ddpsi
    xi = _at_order(xi, max(G.components.order + 1, tf.L.order))
    lpsi = lie_derivative(tf.psi, xi, tf.frame)
    S = _slot_letters(G.rank - 1)
    return einsum(f"{S}a,{S}->a", G, lpsi) - einsum("a,->a", xi, tf.L)


def canonical_divergence_terms(tf: TheoryFrame):
    """On-shell: (D_a T_C^ab, W^acd R^b_adc).

    The right side vanishes identically for scalar fields and in flat space;
    in general the canonical tensor fails to be conserved by exactly this
    curvature term.
    """
    lhs = divergence(tf.emt_canonical, tf.frame)        # [b]
    return lhs, einsum("acd,badc->b", tf.W, tf.frame.riemann)


def metric_derivative_identity_terms(tf: TheoryFrame):
    """On-shell: (2 dL/dg_ab, D_c W^cab - P^ab), both (2,0)."""
    return 2.0 * tf.dL_dg, divergence(tf.W, tf.frame) - tf.P


def kinematic_lie_residual(tf: TheoryFrame, xi: TensorValue) -> TensorValue:
    """Chain-rule expansion of Lie_xi L minus grad_a L xi^a; identically zero
    for any generally covariant Lagrangian, on or off shell.  Computed at
    order top, the lowest of dL/d(grad psi), dL/dpsi, dL/dg and grad L:
    xi is read at order top + 1."""
    top = min(tf.dL_ddpsi.components.order, tf.dL_dpsi.components.order,
              tf.dL_dg.components.order, tf.L.order - 1)
    xi = _at_order(xi, top + 1)
    S = _slot_letters(tf.dL_ddpsi.rank)
    acc = einsum(f"{S},{S}->", tf.dL_ddpsi, lie_derivative(tf.dpsi, xi, tf.frame))
    S = S[:-1]                                   # the slots of psi
    acc = acc + einsum(f"{S},{S}->", tf.dL_dpsi, lie_derivative(tf.psi, xi, tf.frame))
    acc = acc + einsum("ab,ab->", tf.dL_dg, lie_derivative(tf.frame.g, xi, tf.frame))
    dL = partial_tensor(TensorValue((), tf.n, tf.L))
    return acc - einsum("a,a->", dL, xi)


# --------------------------------------------------------------------------
# variational comparison
# --------------------------------------------------------------------------

# grid points per evaluate_theory call of the quadrature
_CHUNK = 1024


def _midpoint_grid(box, shape):
    """Cell-center tensor grid over the box; returns (points, cell volume)."""
    axes = []
    vol = 1.0
    for (lo, hi), m in zip(box, shape):
        step = (hi - lo) / m
        axes.append(lo + step * (np.arange(m) + 0.5))
        vol *= step
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([x.ravel() for x in mesh], axis=-1)
    return pts, vol


def _boundary_mask(shape):
    idx = np.indices(shape)
    mask = np.zeros(shape, dtype=bool)
    for k, m in enumerate(shape):
        mask |= (idx[k] == 0) | (idx[k] == m - 1)
    return mask.ravel()


def variational_pair(theory, field, metric: MetricField, h: TensorField,
                     box, shape):
    """Compare the metric variation of the action against the T_M pairing.

    Returns (dS/d eps, 1/2 integral of T_M^ab h_ab sqrt|g|), both evaluated by
    the same midpoint rule on the given tensor grid, with the field held
    fixed and g -> g + eps h.  h must be compactly supported inside the box.
    Both sides read one frame of g + eps h per chunk, eps a jet variable at
    0, and one theory on it.

    Each chunk builds its tables only to the order that something reads.
    g is at order 2, because Gamma's order-1 table reads d^2 g.  g^-1 and
    sqrt|g| are at order 1: Gamma, the tape, W, P, g^ab L, L sqrt|g| and
    T_M h sqrt|g| read them no higher.  L and dL/dg come out at order 1,
    which d_eps(L sqrt|g|) reads, and T_M at order 0.  eps h has no value
    table, since eps is 0 at every point, and T_M pairs with h's values from
    the support guard.
    """
    n = metric.n
    pts, vol = _midpoint_grid(box, shape)
    npts = pts.shape[0]

    # compact-support guard: h must be negligible on the boundary cells
    hvals = h.fn(lift(pts, n, 0)).data[0]
    hmax = np.max(np.abs(hvals.reshape(npts, -1)), axis=1)
    interior = float(np.max(hmax))
    edge = float(np.max(hmax[_boundary_mask(shape)]))
    if interior > 0.0 and edge > 1e-10 * interior:
        raise ValueError(
            "perturbation support touches the quadrature boundary "
            f"(edge/interior = {edge / interior:.2e})"
        )

    def eps_metric_fn(coords):
        base = metric.fn(coords[:n])
        hj = h.fn(coords[:n])
        return base + jet_einsum("ab,->ab", hj, _derivative_part(coords[n]))

    eps_metric = MetricField(metric.name + "+eps*h", n, eps_metric_fn)
    pts_ext = np.concatenate([pts, np.zeros((npts, 1))], axis=1)

    lhs_vals = np.empty(npts)
    rhs_vals = np.empty(npts)
    for lo in range(0, npts, _CHUNK):
        hi = min(lo + _CHUNK, npts)
        fr = geometry_at(eps_metric, pts_ext[lo:hi], 2, ginv_order=1)
        tf = evaluate_theory(theory, field, fr)
        lhs_vals[lo:hi] = partial_in_var(tf.L * fr.sqrt_g, n).data[0]
        dens = 0.5 * jet_einsum("ab,ab->", tf.emt_metric.components, hvals[lo:hi])
        rhs_vals[lo:hi] = (dens * fr.sqrt_g).data[0]

    return vol * float(np.sum(lhs_vals)), vol * float(np.sum(rhs_vals))


# --------------------------------------------------------------------------
# gauge transformation helper
# --------------------------------------------------------------------------


def gauge_shifted(A: TensorField, chi: TensorField) -> TensorField:
    """The one-form field A + grad(chi) for a scalar field chi."""
    if tuple(A.variance) != ("d",):
        raise ValueError("gauge shift applies to a one-form field")

    def fn(coords):
        nv = coords[0].nvars
        order = coords[0].order
        pts = np.stack([np.broadcast_to(c.data[0], coords[0].batch_shape)
                        for c in coords], axis=-1)
        fine = lift(pts, nv, order + 1)
        chij = chi.fn(fine)
        dchi = differentiate(chij, keep=len(coords))
        base = A.fn(coords)
        return base + dchi

    return TensorField(("d",), fn, name=A.name + "+grad chi")
