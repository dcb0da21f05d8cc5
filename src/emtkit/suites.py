"""Verification suites: named numerical checks of the tensor-calculus and
energy-momentum identities, grouped for the command line runner.

Each check measures a residual (or a required signal) over deterministic
sample points and compares it against a tolerance.  Its one ``targets``
declaration (a :class:`TargetSpec`) names what it measures: spacetimes or
field scenarios that a selection narrows, or fixed names.  A body measures
one target: ``body(ctx, name)`` is a generator of ``(points, residual,
scale)`` tuples, one per measurement; residual and scale are tensors, jets,
arrays or numbers.  A family of vector fields stacked on a leading batch
axis is one measurement, whose points count every member.  ``_register`` wraps the body into ``Check.fn``, which
folds each target's yields into its one :class:`Target`: their points are
summed, ``value_abs`` is the largest |residual| and ``value_rel`` is that
divided by the largest |scale|, the normwise relative error of the target.
Both maxima propagate NaN and a scale that is not finite makes
``value_rel`` NaN, so a NaN or inf residual or scale is never dropped.
``run_checks`` reads every declaration before any check runs, so a
selection that a check refuses or leaves without a target is rejected from
the configuration alone.
All randomness is seeded from the run configuration, so a report is a pure
function of its configuration.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import __version__
from .jets import Jet, _is_zero, constant_jet, jet_einsum, stack_members
from .tensors import (
    TensorValue,
    _slot_letters,
    contract,
    einsum,
    levi_civita,
    max_abs,
    tensor_product,
    tilde,
    tilde_contract,
    transpose_slots,
    value_array,
)
from .geometry import (
    covariant_derivative,
    curvature_commutator_residual,
    divergence,
    evaluate,
    geometry_at,
    lie_connection_tensor,
    lie_derivative,
    lie_nabla_commutator,
    tilde_gradient_commutator_residual,
    volume_lie_residual,
)
from .fieldtheory import (
    alternative_current,
    broken_scalar_theory,
    canonical_divergence_terms,
    difference_current,
    evaluate_theory,
    gauge_shifted,
    current_gradient_pairing_residual,
    kinematic_lie_residual,
    lie_matter_current,
    master_identity_terms,
    metric_derivative_identity_terms,
    noether_current,
    variational_pair,
)
from .catalog import (
    SCENARIOS,
    SPACETIMES,
    bump_perturbation,
    coefficient_sum,
    monomial_basis,
    random_coefficients,
    random_tensor_field,
    sample_points,
    scenario,
    scenario_box,
    spacetime,
    verify_frame_claims,
    verify_scenario_claims,
)

SCHEMA_VERSION = 2

SUITE_ORDER = (
    "tilde-algebra",
    "lie-calculus",
    "commutator",
    "kinematic-lagrangian",
    "emt-onshell",
    "gauge",
    "variational",
)

_TENSOR_RANKS = ((), ("u",), ("d",), ("u", "d"), ("d", "d"))

# The most sample points (members times points) of one evaluated stack of
# vector fields; a larger family runs as consecutive stacks.  One 16-point
# stack of all 16 xis of ``master-identity`` makes 2 MB order-3 tables of
# rank-2 tensors, a fresh allocation per operation: there, stacks of 4 take
# the same time with about 2,400 page faults where one stack of 16 takes
# over 6,000 (one xi at a time: 2,100).  A stack of two or more members
# thus holds at most 64 points, fewer than ``jets._MATMUL_MIN_POINTS``
# (128), so every stack contracts through np.einsum; a stack of one is its
# member, with no stack axis.
_STACK_POINTS = 64


class OffShellError(RuntimeError):
    """An on-shell identity was requested for a scenario claimed off shell."""


def _every(entry) -> bool:
    return True


def _claimed_on_shell(sc) -> bool:
    return sc.on_shell


@dataclass(frozen=True)
class TargetSpec:
    """The targets of a check, each measured by one call of its body.

    ``narrows`` names the catalog list ("spacetimes" or "scenarios") whose
    selection replaces the defaults, or is None for fixed names that no
    selection changes.  ``default`` is a tuple of names, or a test on
    catalog entries: then the defaults are the entries that pass it, in
    catalog order, read when the run asks.  A default or selected entry is
    a target only if it passes ``keep``.  ``on_shell_only`` refuses a
    scenario claimed off shell."""

    narrows: str | None
    default: tuple | Callable = _every
    keep: Callable = _every
    on_shell_only: bool = False

    def names(self, cfg: RunConfig) -> list:
        """The target names under ``cfg``, in the order they are measured."""
        if self.narrows is None:
            return list(self.default)
        catalog = SPACETIMES if self.narrows == "spacetimes" else SCENARIOS
        names = getattr(cfg, self.narrows) or (
            self.default if isinstance(self.default, tuple)
            else [name for name, entry in catalog.items() if self.default(entry)])
        return [name for name in names if self.keep(catalog[name])]


@dataclass(frozen=True)
class Check:
    id: str
    suite: str
    identity: str
    formula: str
    tolerance: float
    measure: str            # "abs" or "rel"
    mode: str               # "below" or "exceeds"
    description: str
    targets: TargetSpec
    # a check runs at its declared jet order: it reads the run's frames,
    # fields and theories truncated to this order, the lowest at which the
    # body runs and its targets equal those of every higher order
    jet_order: int = 2
    fn: object = None


@dataclass
class RunConfig:
    suites: tuple = SUITE_ORDER
    scenarios: tuple | None = None      # None: per-check defaults
    spacetimes: tuple | None = None
    points: int = 16
    seed: int = 7
    jet_order: int = 3
    xi_count: int = 16
    tolerances: dict = dc_field(default_factory=dict)
    grid_2d: tuple = (64, 64)
    grid_4d: tuple = (16, 16, 16, 16)

    def echo(self):
        return asdict(self)


@dataclass
class Target:
    name: str
    points: int
    value_abs: float
    value_rel: float


@dataclass
class CheckOutcome:
    check: Check
    targets: list
    elapsed: float

    @property
    def points(self):
        return int(sum(t.points for t in self.targets))

    @property
    def max_abs(self):
        return _max_residual([t.value_abs for t in self.targets])

    @property
    def max_rel(self):
        return _max_residual([t.value_rel for t in self.targets])

    @property
    def value(self):
        """The figure the check is judged on: ``max_abs`` or ``max_rel``,
        as its ``measure`` says."""
        return self.max_abs if self.check.measure == "abs" else self.max_rel

    def passed(self, tolerance):
        """A non-finite residual fails in either mode, and so does a check
        with a target that measured no point, or with no target."""
        if (min((t.points for t in self.targets), default=0) == 0
                or not (math.isfinite(self.max_abs) and math.isfinite(self.max_rel))):
            return False
        if self.check.mode == "below":
            return self.value <= tolerance
        return self.value >= tolerance


def _max_residual(values) -> float:
    """Largest value, NaN if any value is NaN wherever it sits (the builtin
    max keeps or drops a NaN depending on its position)."""
    return float(np.max(values)) if values else 0.0


class RunContext:
    """Caches what the checks of one run share, each computed on first use.

    Frames and theory frames are built once, at ``build_order``: ``order``
    or 2 if that is higher, since order 2 is the lowest at which a theory's
    field equations have a value.  A context reads them at ``order``
    through their memoised ``truncate(order)`` views.  ``run_checks`` builds
    one context at the highest order its checks declare and hands each
    check ``at(check.jet_order)``, a view of it that shares every cache.
    The caches:

    - ``_frames``: one metric frame per (spacetime, box).  The spacetime's
      Killing and parallel claims are verified on it when it is built.
    - ``_theories``: one :class:`TheoryFrame` per scenario.  The scenario's
      claim is verified on it when it is built, on the run's own sample
      points, before any check reads it.
    - ``_gauge``: the T_M, T_B and T_C of a Maxwell scenario with its
      potential shifted by the gradient of a seeded chi, per (scenario,
      order).  The shifted theory is evaluated on the scenario's frame view
      at the order its checks read, and only those three tensors are kept.
    - ``_bases``: one :class:`~emtkit.catalog.MonomialBasis` per (box,
      frame), the monomials every seeded random field on that box sums.
    - ``_fields``: one evaluation of each field per frame.  A seeded random
      field of ``random_field`` is keyed by (variance, seeds, frame) and
      evaluated as one coefficient sum over its basis: one seed is one
      field, a tuple of seeds one stack of fields.  ``random_tensors`` and
      the stacks of ``xi_stacks`` are such fields.  A catalog field (a
      Killing vector) is keyed by (field, frame), and the stacks of
      ``vector_stacks`` by (fields, frame); a stack holds the vectors that
      share one pattern of structurally zero tables, so a zero of the
      whole stack stays structural.

    The context alone lays out vector families: a stack carries its
    members on a leading batch axis and holds at most ``_STACK_POINTS``
    sample points, so the jet kernel needs no rule for stacks, and a stack
    of one member is that member, with no stack axis.

    Every frame a check evaluates on is a frame of ``_frames`` or one of its
    memoised views, alive for the whole run, so frame identity names one
    set of sample points and one order.  Scenario fields are evaluated by
    their theory frames.  Every table of a cached basis or evaluation is
    read-only, so an in-place write raises instead of changing the input of
    every later check.
    """

    def __init__(self, cfg: RunConfig, order: int):
        self.cfg = cfg
        self.order = order
        self.build_order = max(2, order)
        self._frames = {}
        self._theories = {}
        self._bases = {}
        self._fields = {}
        self._gauge = {}

    def at(self, order) -> RunContext:
        """This context read at jet ``order``, sharing every cache."""
        view = copy.copy(self)
        view.order = order
        return view

    def frame(self, st_name, box=None):
        st = spacetime(st_name)
        box = st.box if box is None else tuple(tuple(b) for b in box)
        key = (st_name, box)
        if key not in self._frames:
            pts = sample_points(box, self.cfg.points, self.cfg.seed)
            self._frames[key] = geometry_at(st.metric, pts, self.build_order)
            # the claims read first derivatives only
            verify_frame_claims(st, self._frames[key].truncate(1))
        return self._frames[key].truncate(self.order)

    def theory_frame(self, scen_name):
        if scen_name not in self._theories:
            sc = scenario(scen_name)
            fr = self.at(self.build_order).frame(sc.spacetime, box=scenario_box(sc))
            tf = evaluate_theory(sc.theory, sc.field, fr)
            # the field equations read second derivatives
            verify_scenario_claims(sc, tf.truncate(2))
            self._theories[scen_name] = tf
        return self._theories[scen_name].truncate(self.order)

    def field(self, fld, fr) -> TensorValue:
        """Catalog field ``fld`` evaluated on frame ``fr``, on first use only."""
        key = (fld, fr)
        if key not in self._fields:
            self._fields[key] = _frozen(evaluate(fld, fr))
        return self._fields[key]

    def _stack_size(self) -> int:
        """Members per evaluated stack: ``_STACK_POINTS`` sample points'
        worth, and at least one."""
        return max(1, _STACK_POINTS // self.cfg.points)

    def vector_stacks(self, vectors, fr) -> list:
        """The catalog vector fields ``vectors`` evaluated on frame ``fr``,
        each on first use only, as stacks on a leading batch axis: per
        pattern of structurally zero tables, in order of first appearance,
        consecutive stacks of ``_stack_size()`` members; a stack of one is
        that vector's field."""
        key = (tuple(vectors), fr)
        if key not in self._fields:
            groups = {}
            for v in vectors:
                f = self.field(v, fr)
                groups.setdefault(tuple(map(_is_zero, f.components.data)), []).append(f)
            size = self._stack_size()
            chunks = [g[k:k + size] for g in groups.values() for k in range(0, len(g), size)]
            self._fields[key] = [
                c[0] if len(c) == 1 else
                _frozen(TensorValue(("u",), fr.n, stack_members([f.components for f in c])))
                for c in chunks]
        return self._fields[key]

    def _basis(self, box, fr):
        if (box, fr) not in self._bases:
            self._bases[box, fr] = monomial_basis(box, fr.coords[: fr.n])
        return self._bases[box, fr]

    def random_field(self, variance, seeds, fr) -> TensorValue:
        """The seeded random field of ``variance`` on the box of the
        spacetime of frame ``fr``, evaluated on it as one coefficient sum
        over the frame's monomial basis, on first use only.  ``seeds`` is
        one seed, or a tuple of seeds whose fields are summed as one stack
        on a leading batch axis."""
        key = (variance, seeds, fr)
        if key not in self._fields:
            box = spacetime(fr.metric.name).box
            coef = (np.stack([random_coefficients(variance, box, s) for s in seeds])
                    if isinstance(seeds, tuple) else random_coefficients(variance, box, seeds))
            comps = coefficient_sum(coef, self._basis(box, fr), vdim=len(variance))
            self._fields[key] = _frozen(TensorValue(variance, fr.n, comps))
        return self._fields[key]

    def xi_stacks(self, fr, count=None) -> list:
        """The first ``count`` (default ``xi_count``) seeded random vector
        fields on frame ``fr``, the field of seed ``seed + 1000 + k`` being
        member k, as consecutive stacks of ``_stack_size()`` members.  Each
        stack is a leading slice of a full one, so every count shares its
        sums, and a stack of one is that member."""
        count = self.cfg.xi_count if count is None else count
        size, first = self._stack_size(), self.cfg.seed + 1000
        return [_head(self.random_field(("u",), tuple(range(first + k, first + k + size)), fr),
                      min(size, count - k))
                for k in range(0, count, size)]

    def random_tensors(self, fr, ranks=_TENSOR_RANKS, base_seed=0) -> list:
        """Seeded random tensors of the given ranks on the box of the
        spacetime of frame ``fr``, evaluated on it."""
        return [self.random_field(var, self.cfg.seed + base_seed + k, fr)
                for k, var in enumerate(ranks)]

    def gauge_shifted_emts(self, scen_name) -> tuple:
        """``(T_M, T_B, T_C)`` of a Maxwell scenario with its potential
        shifted by the gradient of a seeded random scalar chi, evaluated on
        the scenario's frame at this order."""
        key = (scen_name, self.order)
        if key not in self._gauge:
            sc = scenario(scen_name)
            self.theory_frame(scen_name)   # verifies the scenario's claim
            fr = self.frame(sc.spacetime, box=scenario_box(sc))
            chi = random_tensor_field((), spacetime(sc.spacetime).box,
                                      self.cfg.seed + 5000)
            tf = evaluate_theory(sc.theory, gauge_shifted(sc.field, chi), fr)
            self._gauge[key] = tuple(_frozen(t) for t in (
                tf.emt_metric, tf.emt_belinfante, tf.emt_canonical))
        return self._gauge[key]


def _frozen(t: TensorValue) -> TensorValue:
    """``t`` with every table of its components marked read-only."""
    for table in t.components.data:
        table.flags.writeable = False
    return t


def _head(stack: TensorValue, count: int) -> TensorValue:
    """The first ``count`` members of a stack: the stack itself if it has
    two or more and no others, else views of its tables, one member
    without the stack axis."""
    c = stack.components
    if 1 < count == c.batch_shape[0]:
        return stack
    cut = 0 if count == 1 else slice(count)
    return TensorValue(stack.variance, stack.n,
                       Jet(c.nvars, c.order, c.vdim, [t[cut] for t in c.data]))


def _members(stack: TensorValue) -> list:
    """The tensors of a stack, the slices of its leading batch axis; a
    member is itself."""
    c = stack.components
    if len(c.batch_shape) == 1:
        return [stack]
    return [TensorValue(stack.variance, stack.n,
                        Jet(c.nvars, c.order, c.vdim, [t[k] for t in c.data]))
            for k in range(c.batch_shape[0])]


def _view(tf, t: TensorValue, above: int = 0):
    """The frame of theory frame ``tf`` at the jet order of ``t`` plus
    ``above``: the order at which a check's vector family is read."""
    return tf.frame.truncate(t.components.order + above)


def _points(stack: TensorValue) -> int:
    """The sample points of a tensor or a stack of them: the product of its
    batch axes."""
    return math.prod(stack.components.batch_shape)


CHECKS: dict[str, Check] = {}


def _register(**kw):
    def deco(body):
        spec = kw["targets"]
        check = Check(fn=lambda ctx: [_fold(name, body(ctx, name))
                                      for name in spec.names(ctx.cfg)], **kw)
        CHECKS[check.id] = check
        return body
    return deco


def _fold(name, yields) -> Target:
    """Target ``name`` from its body's ``(points, residual, scale)`` yields:
    points summed, ``value_abs`` the largest |residual| and ``value_rel``
    that over the largest |scale| (at least 1e-300).  Both maxima propagate
    NaN, and a scale that is not finite makes ``value_rel`` NaN, so a
    non-finite residual or scale in any yield reaches the target.  A target
    of one yield reads ``r / max(max_abs(scale), 1e-300)``, r being
    ``max_abs(residual)``; one of no yield measures no point."""
    target, top_scale = Target(name, 0, 0.0, 0.0), 0.0
    for points, residual, scale in yields:
        r, s = max_abs(residual), max_abs(scale)
        del residual, scale   # not kept alive while the body computes its next yield
        target.points += points
        target.value_abs = float(np.maximum(target.value_abs, r))
        top_scale = float(np.maximum(top_scale, s))
    target.value_rel = (target.value_abs / max(top_scale, 1e-300) if math.isfinite(top_scale)
                        else math.nan)
    return target


# --------------------------------------------------------------------------
# suite: tilde-algebra
# --------------------------------------------------------------------------


@_register(
    id="tilde-identity-map", suite="tilde-algebra",
    identity="index-replacement of the identity map vanishes",
    formula="til(delta)^a_b{}^c_d = 0",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("minkowski4", "schwarzschild")), jet_order=0,
    description="The mixed identity tensor is inert under the index-replacement "
                "operator: its up-slot and down-slot contributions cancel exactly.")
def _chk_tilde_identity(ctx, st_name):
    n = spacetime(st_name).n
    yield 1, tilde(TensorValue(("u", "d"), n, constant_jet(np.eye(n), n, 0))), 1.0


@_register(
    id="tilde-metric-closed-form", suite="tilde-algebra",
    identity="index-replacement of the metric",
    formula="til(g)_ab{}^c_d = -g_db delta^c_a - g_ad delta^c_b",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("minkowski4", "schwarzschild", "bump2")), jet_order=1,
    description="Applying the index-replacement operator to the metric gives "
                "minus two delta-weighted copies of the metric.")
def _chk_tilde_metric(ctx, st_name):
    fr = ctx.frame(st_name)
    n = fr.n
    got = tilde(fr.g)
    eye = np.eye(n)
    t1 = jet_einsum("db,ca->abcd", fr.g.components, eye)
    t2 = jet_einsum("ad,cb->abcd", fr.g.components, eye)
    want = -(t1 + t2)
    yield ctx.cfg.points, got.components - want, fr.g.components


@_register(
    id="tilde-alternating-closed-form", suite="tilde-algebra",
    identity="index-replacement of the alternating symbol",
    formula="til(eps)_{a1..an}{}^c_d = -eps_{a1..an} delta^c_d",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("minkowski2", "minkowski4")), jet_order=0,
    description="The totally antisymmetric symbol reproduces itself (times "
                "-delta) under index replacement; a determinant-style identity.")
def _chk_tilde_eps(ctx, st_name):
    n = spacetime(st_name).n
    eps = levi_civita(n)
    got = tilde(eps)
    S = _slot_letters(n)
    want = -np.einsum(f"{S},cd->{S}cd", value_array(eps), np.eye(n))
    yield 1, value_array(got) - want, 1.0


@_register(
    id="tilde-trace-collapse", suite="tilde-algebra",
    identity="trace of the replacement slots",
    formula="til(T)^.._a{}^a_.. = (p - q) T",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild",)), jet_order=1,
    description="Contracting the two new slots of the replaced tensor counts "
                "up-slots minus down-slots times the original tensor.")
def _chk_tilde_trace(ctx, st_name):
    fr = ctx.frame(st_name)
    for t in ctx.random_tensors(fr):
        tr = contract(tilde(t), t.rank, t.rank + 1)
        p = t.variance.count("u")
        q = t.rank - p
        yield ctx.cfg.points, tr - float(p - q) * t, t


@_register(
    id="tilde-product-rule", suite="tilde-algebra",
    identity="replacement operator is a derivation over tensor products",
    formula="til(T ox S) = til(T) ox S + T ox til(S)  (new slots gathered last)",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("minkowski4",)), jet_order=1,
    description="The index-replacement operator satisfies the Leibniz rule on "
                "outer products, once the new slots are moved to the end.")
def _chk_tilde_leibniz(ctx, st_name):
    fr = ctx.frame(st_name)
    ts = ctx.random_tensors(fr, ranks=(("u",), ("d",), ("u", "d")))
    for t in ts:
        for s in ts:
            lhs = tilde(tensor_product(t, s))
            term1 = tensor_product(tilde(t), s)
            rt = t.rank
            rs = s.rank
            # move the replacement slots of til(T) to the end
            perm1 = (tuple(range(rt)) + tuple(range(rt + 2, rt + 2 + rs))
                     + (rt, rt + 1))
            term2 = tensor_product(t, tilde(s))
            res = lhs - transpose_slots(term1, perm1) - term2
            yield ctx.cfg.points, res, lhs


# --------------------------------------------------------------------------
# suite: lie-calculus
# --------------------------------------------------------------------------


@_register(
    id="lie-dual-forms", suite="lie-calculus",
    identity="derivative-agnostic form of the Lie derivative",
    formula="dT xi - til(T) dxi  ==  DT xi - til(T) Dxi",
    tolerance=1e-12, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("minkowski4", "schwarzschild", "bump2")), jet_order=1,
    description="The Lie derivative written through the index-replacement "
                "operator gives the same values with coordinate partials as "
                "with covariant derivatives: the connection terms cancel.")
def _chk_lie_dual(ctx, st_name):
    fr = ctx.frame(st_name)
    (xi,) = ctx.xi_stacks(fr, 1)
    for t in ctx.random_tensors(fr, base_seed=40):
        a = lie_derivative(t, xi, None)
        yield ctx.cfg.points, a - lie_derivative(t, xi, fr), a


@_register(
    id="killing-metric-flow", suite="lie-calculus",
    identity="metric is invariant along its symmetry vectors",
    formula="(Lie_xi g)_ab = D_a xi_b + D_b xi_a = 0",
    tolerance=1e-10, measure="abs", mode="below",
    targets=TargetSpec("spacetimes"), jet_order=1,
    description="Every vector the catalog claims as a symmetry annihilates "
                "the metric under the Lie derivative.")
def _chk_killing(ctx, st_name):
    fr = ctx.frame(st_name)
    for xi in ctx.vector_stacks(spacetime(st_name).killing, fr):
        yield _points(xi), lie_derivative(fr.g, xi, fr), fr.g


@_register(
    id="parallel-claims", suite="lie-calculus",
    identity="claimed parallel vectors have vanishing covariant derivative",
    formula="D_a xi^b = 0",
    tolerance=1e-10, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", keep=lambda st: bool(st.parallel)), jet_order=1,
    description="Translation generators on flat charts are claimed to be "
                "covariantly constant; the claim is re-derived numerically.")
def _chk_parallel(ctx, st_name):
    fr = ctx.frame(st_name)
    for xi in ctx.vector_stacks(spacetime(st_name).parallel, fr):
        yield _points(xi), covariant_derivative(xi, fr), xi


@_register(
    id="volume-weight-flow", suite="lie-calculus",
    identity="Lie derivative of the metric volume factor",
    formula="1/2 sqrt|g| g^ab (Lie_xi g)_ab = d_a(sqrt|g| xi^a)",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild", "bump2")), jet_order=1,
    description="The trace of the metric flow reproduces the Lie derivative "
                "of the density sqrt|g|, d_a(sqrt|g| xi^a), which reads the "
                "first derivatives of sqrt|g|.")
def _chk_volume(ctx, st_name):
    fr = ctx.frame(st_name)
    for xis in ctx.xi_stacks(fr, 3):
        yield _points(xis), volume_lie_residual(xis, fr), fr.sqrt_g


# --------------------------------------------------------------------------
# suite: commutator
# --------------------------------------------------------------------------


@_register(
    id="curvature-commutator", suite="commutator",
    identity="second-derivative commutator equals the curvature action",
    formula="(D_a D_b - D_b D_a) T = R^d_{cab} til(T)^c_d",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild", "bump2")),
    description="For every tensor rank, the antisymmetrized double covariant "
                "derivative matches the curvature contracted with the "
                "index-replaced tensor.  This check fixes the curvature sign "
                "and slot conventions.")
def _chk_curv_comm(ctx, st_name):
    fr = ctx.frame(st_name)
    for t in ctx.random_tensors(fr, base_seed=60):
        yield ctx.cfg.points, curvature_commutator_residual(t, fr), fr.riemann


@_register(
    id="tilde-gradient-commutator", suite="commutator",
    identity="index replacement past a covariant gradient",
    formula="til(D_e T)^a_b = D_e til(T)^a_b - delta^a_e D_b T",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild",)), jet_order=1,
    description="Replacing indices after differentiation differs from "
                "differentiating the replaced tensor only by the gradient "
                "slot's own replacement term.")
def _chk_tilde_grad(ctx, st_name):
    fr = ctx.frame(st_name)
    for t in ctx.random_tensors(fr, base_seed=80):
        res = tilde_gradient_commutator_residual(t, fr)
        yield ctx.cfg.points, res, covariant_derivative(t, fr)


@_register(
    id="connection-tensor-dual-form", suite="commutator",
    identity="flow-connection tensor from curvature or from the metric flow",
    formula="R^c_{bda} xi^d + D_a D_b xi^c  ==  "
            "1/2 g^cd (D_b (Lg)_da + D_a (Lg)_db - D_d (Lg)_ba)",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild", "bump2")),
    description="The connection-deformation tensor of a flow can be built "
                "from second derivatives of xi plus curvature or from first "
                "derivatives of the metric flow; both constructions agree.")
def _chk_conn_dual(ctx, st_name):
    fr = ctx.frame(st_name)
    for xis in ctx.xi_stacks(fr, 3):
        a = lie_connection_tensor(xis, fr, form="direct")
        b = lie_connection_tensor(xis, fr, form="metric")
        yield _points(xis), a - b, a


@_register(
    id="lie-gradient-commutator", suite="commutator",
    identity="commutator of flow and covariant gradient",
    formula="(Lie_xi D - D Lie_xi) T = C^c_{ba} til(T)^b_c",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild", "bump2")),
    description="The failure of the Lie derivative to commute with the "
                "covariant gradient is exactly the connection-deformation "
                "tensor acting through index replacement.")
def _chk_lie_grad(ctx, st_name):
    fr = ctx.frame(st_name)
    (xi,) = ctx.xi_stacks(fr, 1)
    C = lie_connection_tensor(xi, fr, form="direct")
    for t in ctx.random_tensors(fr, base_seed=90):
        got = lie_nabla_commutator(t, xi, fr)
        yield ctx.cfg.points, got - tilde_contract(t, C), got


@_register(
    id="killing-gradient-commute", suite="commutator",
    identity="symmetry flows commute with the covariant gradient",
    formula="Lie_xi (D T) = D (Lie_xi T)   for Killing xi",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("spacetimes", ("schwarzschild", "minkowski4")),
    description="Along a metric symmetry the connection deformation vanishes, "
                "so differentiation and flow commute on arbitrary tensors.")
def _chk_killing_commute(ctx, st_name):
    fr = ctx.frame(st_name)
    ts = ctx.random_tensors(fr, ranks=((), ("u",), ("d", "d")), base_seed=110)
    for xi in ctx.vector_stacks(spacetime(st_name).killing[:4], fr):
        for t in ts:
            res = lie_nabla_commutator(t, xi, fr)
            yield _points(xi), res, covariant_derivative(t, fr)


# --------------------------------------------------------------------------
# suite: kinematic-lagrangian
# --------------------------------------------------------------------------


def _is_maxwell(sc) -> bool:
    return sc.theory.name == "maxwell"


def _is_first_order(sc) -> bool:
    """A scalar or Maxwell theory, whose superpotential bracket cancels."""
    return sc.theory.name.startswith(("scalar", "maxwell"))


# every catalog scenario; the on-shell ones, which a selection may widen
# unless the check holds only on shell; the on-shell Maxwell ones
_ANY_SCENARIO = TargetSpec("scenarios")
_ON_SHELL = TargetSpec("scenarios", _claimed_on_shell)
_ON_SHELL_ONLY = TargetSpec("scenarios", _claimed_on_shell, on_shell_only=True)
_MAXWELL = TargetSpec("scenarios", _claimed_on_shell, keep=_is_maxwell)


@_register(
    id="lagrangian-flow-chain-rule", suite="kinematic-lagrangian",
    identity="scalar Lagrangians flow by the chain rule",
    formula="dL/d(Dpsi) Lie(Dpsi) + dL/dpsi Lie(psi) + dL/dg Lie(g) = dL xi",
    tolerance=1e-9, measure="abs", mode="below", targets=_ANY_SCENARIO,
    description="For a generally covariant scalar Lagrangian the Lie "
                "derivative distributes over its arguments; holds for any "
                "field configuration, on or off shell.")
def _chk_chain(ctx, name):
    tf = ctx.theory_frame(name)
    for xis in ctx.xi_stacks(tf.frame, 3):
        yield _points(xis), kinematic_lie_residual(tf, xis), tf.L


@_register(
    id="flow-chain-rule-negative-control", suite="kinematic-lagrangian",
    identity="explicit coordinate dependence breaks the chain rule",
    formula="residual of the flow chain rule for a non-covariant Lagrangian",
    tolerance=1e-3, measure="abs", mode="exceeds",
    targets=TargetSpec(None, ("broken-scalar",)),
    description="A Lagrangian with bare coordinate dependence must fail the "
                "chain-rule identity; this guards the main check against "
                "silently measuring zero.")
def _chk_chain_negative(ctx, _name):
    # the target is a label: the broken theory is built here, not a catalog scenario
    sc = scenario("scalar-wave-2d")
    fr = ctx.frame(sc.spacetime)
    tf = evaluate_theory(broken_scalar_theory(0.5), sc.field, fr)
    for xis in ctx.xi_stacks(fr, 3):
        yield _points(xis), kinematic_lie_residual(tf, xis), tf.L


# --------------------------------------------------------------------------
# suite: emt-onshell
# --------------------------------------------------------------------------


@_register(
    id="metric-emt-symmetry", suite="emt-onshell",
    identity="metric energy-momentum tensor is symmetric by construction",
    formula="T_M^ab = T_M^ba   (on or off shell)",
    tolerance=1e-9, measure="abs", mode="below", targets=_ANY_SCENARIO,
    description="Symmetry of T_M needs no field equations: the derivative "
                "bracket it subtracts is built symmetric in its free slots.")
def _chk_tm_sym(ctx, name):
    tm = ctx.theory_frame(name).emt_metric
    yield ctx.cfg.points, tm - transpose_slots(tm, (1, 0)), tm


@_register(
    id="superpotential-antisymmetry", suite="emt-onshell",
    identity="superpotential antisymmetry in its first two slots",
    formula="Theta^abc = -Theta^bac",
    tolerance=1e-12, measure="abs", mode="below", targets=_ANY_SCENARIO, jet_order=1,
    description="The three-term superpotential is antisymmetric under "
                "swapping its first slot pair, which is what makes its "
                "double divergence vanish.")
def _chk_theta_antisym(ctx, name):
    th = ctx.theory_frame(name).theta
    yield ctx.cfg.points, th + transpose_slots(th, (1, 0, 2)), max(max_abs(th), 1.0)


@_register(
    id="improved-equals-metric", suite="emt-onshell",
    identity="improved and metric tensors coincide on shell",
    formula="T_B^ab = T_M^ab   when the field equations hold",
    tolerance=1e-9, measure="abs", mode="below", targets=_ON_SHELL_ONLY,
    description="Adding the superpotential divergence to the canonical "
                "tensor lands exactly on the metric tensor for solutions.")
def _chk_tb_tm(ctx, name):
    tf = ctx.theory_frame(name)
    yield ctx.cfg.points, tf.emt_belinfante - tf.emt_metric, tf.emt_metric


@_register(
    id="master-identity", suite="emt-onshell",
    identity="current divergence pairs with the metric flow",
    formula="D_a(T_B^ab xi_b) = 1/2 T_M^ab (Lie_xi g)_ab   for any xi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY, jet_order=3,
    description="The central exchange identity: for an arbitrary vector "
                "field, not only symmetries, the divergence of the improved "
                "current equals the metric tensor paired with the metric "
                "flow.  Checked with a family of seeded random vectors.")
def _chk_master(ctx, name):
    tf = ctx.theory_frame(name)
    # both sides read xi at T_B's order
    for xis in ctx.xi_stacks(_view(tf, tf.emt_belinfante)):
        lhs, rhs = master_identity_terms(tf, xis)
        yield _points(xis), lhs - rhs, lhs


@_register(
    id="current-gradient-pairing", suite="emt-onshell",
    identity="current divergence pairs with the vector gradient",
    formula="D_a(T_B^ab xi_b) = T_M^ab D_a xi_b   for any xi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY, jet_order=3,
    description="Equivalent form of the exchange identity with the full "
                "(unsymmetrized) gradient of xi; works because T_M is "
                "symmetric.")
def _chk_110(ctx, name):
    tf = ctx.theory_frame(name)
    # one xi at a time: the stack's final pairing "ab,ba->" sums in another
    # order under np.einsum than each member's; both terms read xi at T_B's
    # order
    for xis in ctx.xi_stacks(_view(tf, tf.emt_belinfante), 4):
        for xi in _members(xis):
            yield ctx.cfg.points, current_gradient_pairing_residual(tf, xi), tf.emt_metric


@_register(
    id="symmetry-current-conservation", suite="emt-onshell",
    identity="conserved current along each metric symmetry",
    formula="D_a(T_B^ab xi_b) = 0   for Killing xi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY, jet_order=3,
    description="The improved current built from any catalog symmetry vector "
                "is divergence-free on shell.")
def _chk_noether(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in ctx.vector_stacks(spacetime(scenario(name).spacetime).killing, tf.frame):
        res = divergence(noether_current(tf, xi), tf.frame)
        yield _points(xi), res, tf.emt_belinfante


@_register(
    id="improved-divergence", suite="emt-onshell",
    identity="improved tensor is divergence-free on shell",
    formula="D_a T_B^ab = 0",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY, jet_order=3,
    description="Slot-wise conservation of the improved tensor for "
                "solutions, on flat and curved backgrounds alike.")
def _chk_tb_div(ctx, name):
    tf = ctx.theory_frame(name)
    yield ctx.cfg.points, divergence(tf.emt_belinfante, tf.frame), tf.emt_belinfante


@_register(
    id="metric-emt-divergence", suite="emt-onshell",
    identity="metric tensor is divergence-free on shell",
    formula="D_a T_M^ab = 0",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY, jet_order=3,
    description="Conservation of the metric tensor for solutions; follows "
                "from the exchange identity with arbitrary localized xi.")
def _chk_tm_div(ctx, name):
    tf = ctx.theory_frame(name)
    yield ctx.cfg.points, divergence(tf.emt_metric, tf.frame), tf.emt_metric


@_register(
    id="canonical-curvature-obstruction", suite="emt-onshell",
    identity="canonical tensor divergence equals a curvature pairing",
    formula="D_a T_C^ab = dL/d(D_a psi) R^b_{adc} til(psi)^cd",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY,
    description="On shell the canonical tensor is not conserved on curved "
                "backgrounds; its divergence is an explicit curvature term. "
                "Both sides are compared pointwise.")
def _chk_can_div(ctx, name):
    tf = ctx.theory_frame(name)
    lhs, rhs = canonical_divergence_terms(tf)
    scale = max(max_abs(lhs), max_abs(rhs), max_abs(tf.emt_canonical))
    yield ctx.cfg.points, lhs - rhs, scale


@_register(
    id="canonical-obstruction-magnitude", suite="emt-onshell",
    identity="the curvature obstruction is actually nonzero",
    formula="max |D_a T_C^ab| over a curved vector-field scenario",
    tolerance=1e-6, measure="abs", mode="exceeds",
    targets=TargetSpec(None, ("schwarzschild-coulomb",)),
    description="Guards the obstruction check against passing vacuously: on "
                "the curved electromagnetic scenario the canonical tensor "
                "must demonstrably fail to be conserved.")
def _chk_can_div_magnitude(ctx, name):
    lhs, rhs = canonical_divergence_terms(ctx.theory_frame(name))
    v = np.min([max_abs(lhs), max_abs(rhs)])  # NaN-propagating
    yield ctx.cfg.points, v, 1.0


@_register(
    id="superpotential-current-closure", suite="emt-onshell",
    identity="difference current is identically conserved",
    formula="D_a[(D_c Theta^cab) xi_b + Theta^cab D_c xi_b] = 0   for any xi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL, jet_order=3,
    description="The current formed from the superpotential alone is "
                "divergence-free without field equations for its xi-part: "
                "antisymmetry plus the symmetry of the Ricci tensor.")
def _chk_diff_current(ctx, name):
    tf = ctx.theory_frame(name)
    # the current is at D Theta's order and reads xi one order above
    for xis in ctx.xi_stacks(_view(tf, tf.div_theta, 1), 4):
        yield _points(xis), divergence(difference_current(tf, xis), tf.frame), tf.theta


@_register(
    id="current-decomposition", suite="emt-onshell",
    identity="improved current splits into canonical plus superpotential parts",
    formula="T_B^ab xi_b = [T_C^ab xi_b + Theta^cab D_c xi_b] - difference current",
    tolerance=1e-9, measure="abs", mode="below", targets=_ON_SHELL,
    description="Bookkeeping control, true by construction: T_B is defined "
                "as T_C - D_c Theta^cab, so T_B xi - (T_C xi + Theta:D xi) + "
                "(D.Theta xi + Theta:D xi) cancels term by term.  It guards "
                "the three current builders against drifting apart and tests "
                "no field equation.")
def _chk_current_decomp(ctx, name):
    tf = ctx.theory_frame(name)
    # a - b + c is at D Theta's order, which is T_B's, and b and c read xi
    # one order above it
    for xis in ctx.xi_stacks(_view(tf, tf.div_theta, 1), 4):
        a = noether_current(tf, xis)
        b = alternative_current(tf, xis)
        c = difference_current(tf, xis)
        yield _points(xis), a - b + c, a


@_register(
    id="matter-flow-current", suite="emt-onshell",
    identity="conserved current from the matter flow along a symmetry",
    formula="D_a[dL/d(D_a psi) Lie_xi psi - L xi^a] = 0   for Killing xi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY,
    description="A first-derivative current built from the field flow along "
                "a symmetry vector; conserved on shell.")
def _chk_matter_current(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in ctx.vector_stacks(spacetime(scenario(name).spacetime).killing, tf.frame):
        res = divergence(lie_matter_current(tf, xi), tf.frame)
        yield _points(xi), res, tf.L


@_register(
    id="metric-derivative-identity", suite="emt-onshell",
    identity="metric derivative of L from field gradients on shell",
    formula="2 dL/dg_ab = D_c(dL/d(D_c psi) til(psi)^ab) - dL/d(D_a psi) D^b psi",
    tolerance=1e-8, measure="abs", mode="below", targets=_ON_SHELL_ONLY,
    description="On shell, the metric derivative of the Lagrangian can be "
                "rebuilt entirely from the field sector; the right side is "
                "secretly symmetric in its free slots.")
def _chk_ee(ctx, name):
    lhs, rhs = metric_derivative_identity_terms(ctx.theory_frame(name))
    yield ctx.cfg.points, lhs - rhs, lhs
    yield 0, rhs - transpose_slots(rhs, (1, 0)), lhs


@_register(
    id="first-order-emt-closed-form", suite="emt-onshell",
    identity="bracket-free closed form for scalar and one-form gauge theories",
    formula="T_M^ab = 2 dL/dg_ab + g^ab L   when the derivative bracket vanishes",
    tolerance=1e-9, measure="abs", mode="below",
    targets=TargetSpec("scenarios", _claimed_on_shell, keep=_is_first_order),
    description="For the built-in scalar and electromagnetic Lagrangians the "
                "superpotential bracket cancels identically, so T_M reduces "
                "to the bare metric-derivative form.")
def _chk_tm_closed(ctx, name):
    tf = ctx.theory_frame(name)
    want = 2.0 * tf.dL_dg + tf._g_up_L
    yield ctx.cfg.points, tf.emt_metric - want, tf.emt_metric


@_register(
    id="em-field-strength-form", suite="emt-onshell",
    identity="electromagnetic energy-momentum in field-strength form",
    formula="T_M^ab = F^ac F^b_c + g^ab L",
    tolerance=1e-9, measure="abs", mode="below", targets=_MAXWELL,
    description="On electromagnetic scenarios the machine-built T_M matches "
                "the textbook field-strength expression exactly.")
def _chk_em_form(ctx, name):
    tf = ctx.theory_frame(name)
    dA = tf.dpsi                        # [b, a] = D_a A_b
    F = transpose_slots(dA, (1, 0)) - dA
    ginv = tf.frame.ginv
    Fup = einsum("ac,cb->ab", ginv, einsum("cb,bd->cd", F, ginv))
    Fmix = einsum("ac,cb->ab", ginv, F)
    want = einsum("ac,bc->ab", Fup, Fmix) + einsum("ab,->ab", ginv, tf.L)
    yield ctx.cfg.points, tf.emt_metric - want, tf.emt_metric


# --------------------------------------------------------------------------
# suite: gauge
# --------------------------------------------------------------------------


@_register(
    id="gauge-invariance-metric-emt", suite="gauge",
    identity="metric tensor is gauge invariant",
    formula="T_M[A + d chi] = T_M[A]",
    tolerance=1e-9, measure="abs", mode="below", targets=_MAXWELL,
    description="Shifting the potential by an exact gradient leaves the "
                "metric energy-momentum tensor unchanged pointwise.")
def _chk_gauge_tm(ctx, name):
    tf = ctx.theory_frame(name)
    tm, _, _ = ctx.gauge_shifted_emts(name)
    yield ctx.cfg.points, tm - tf.emt_metric, tf.emt_metric


@_register(
    id="gauge-invariance-improved-emt", suite="gauge",
    identity="improved tensor is gauge invariant",
    formula="T_B[A + d chi] = T_B[A]",
    tolerance=1e-9, measure="abs", mode="below", targets=_MAXWELL,
    description="The superpotential correction removes the canonical "
                "tensor's gauge dependence entirely.")
def _chk_gauge_tb(ctx, name):
    tf = ctx.theory_frame(name)
    _, tb, _ = ctx.gauge_shifted_emts(name)
    yield ctx.cfg.points, tb - tf.emt_belinfante, tf.emt_belinfante


@_register(
    id="gauge-variance-canonical-emt", suite="gauge",
    identity="canonical tensor is not gauge invariant",
    formula="max |T_C[A + d chi] - T_C[A]|  is bounded away from zero",
    tolerance=1e-4, measure="abs", mode="exceeds", targets=_MAXWELL,
    description="Negative control: the canonical tensor must move under a "
                "gauge shift, demonstrating the invariance checks are not "
                "passing vacuously.")
def _chk_gauge_tc(ctx, name):
    tf = ctx.theory_frame(name)
    _, _, tc = ctx.gauge_shifted_emts(name)
    yield ctx.cfg.points, tc - tf.emt_canonical, 1.0


# --------------------------------------------------------------------------
# suite: variational
# --------------------------------------------------------------------------


def _variational_target(ctx, scen_name, grid, seed_offset=0):
    sc = scenario(scen_name)
    st = spacetime(sc.spacetime)
    box = scenario_box(sc)
    h = bump_perturbation(box, ctx.cfg.seed + 9000 + seed_offset)
    lhs, rhs = variational_pair(sc.theory, sc.field, st.metric, h, box, grid)
    return int(np.prod(grid)), lhs - rhs, max(abs(lhs), abs(rhs))


@_register(
    id="variational-agreement-2d", suite="variational",
    identity="action derivative matches the tensor pairing, two dimensions",
    formula="d/d eps S[g + eps h] = 1/2 integral T_M^ab h_ab sqrt|g|",
    tolerance=1e-6, measure="rel", mode="below", targets=TargetSpec(None, ("scalar-wave-2d",)),
    description="Direct differentiation of the quadrature-evaluated action "
                "under a compact metric perturbation against the integrated "
                "pairing with T_M, scalar field on a two-dimensional chart.")
def _chk_var_2d(ctx, name):
    yield _variational_target(ctx, name, ctx.cfg.grid_2d)


@_register(
    id="variational-agreement-4d", suite="variational",
    identity="action derivative matches the tensor pairing, four dimensions",
    formula="d/d eps S[g + eps h] = 1/2 integral T_M^ab h_ab sqrt|g|",
    tolerance=1e-3, measure="rel", mode="below", targets=TargetSpec(None, ("em-wave-4d",)),
    description="Same comparison for the electromagnetic field on a "
                "four-dimensional grid; coarser quadrature, looser tolerance.")
def _chk_var_4d(ctx, name):
    yield _variational_target(ctx, name, ctx.cfg.grid_4d, seed_offset=1)


@_register(
    id="variational-superpotential-2d", suite="variational",
    identity="tensor pairing with a live superpotential bracket",
    formula="d/d eps S = 1/2 integral T_M^ab h_ab sqrt|g|, bracket nonzero",
    tolerance=1e-6, measure="rel", mode="below",
    targets=TargetSpec(None, ("gradient-vector-2d",)),
    description="The unconstrained-gradient vector theory has a nonvanishing "
                "derivative bracket, so this comparison exercises the "
                "divergence subtraction and integration by parts for real.")
def _chk_var_super(ctx, name):
    yield _variational_target(ctx, name, ctx.cfg.grid_2d, seed_offset=2)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


def checks_for(suites) -> list:
    wanted = list(suites)
    out = []
    for suite in SUITE_ORDER:
        if suite not in wanted:
            continue
        for check in CHECKS.values():
            if check.suite == suite:
                out.append(check)
    return out


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(cfg: RunConfig) -> list:
    """The checks ``cfg`` selects; ValueError, naming the first rule the
    config breaks, if it is not one that runs.  ``cfg.jet_order`` is a
    ceiling: a selected check that declares a higher order is rejected."""
    for key in ("suites", "scenarios", "spacetimes"):
        names = getattr(cfg, key)
        if names is not None and not (isinstance(names, (tuple, list))
                                      and all(isinstance(s, str) for s in names)):
            raise ValueError(f"{key} must be a list of names")
    if not cfg.suites:
        raise ValueError("suites must name at least one suite")
    for key in ("points", "seed", "jet_order", "xi_count"):
        if not _is_int(getattr(cfg, key)):
            raise ValueError(f"{key} must be an integer")
    for key, dim in (("grid_2d", 2), ("grid_4d", 4)):
        grid = getattr(cfg, key)
        if not (isinstance(grid, (tuple, list)) and len(grid) == dim
                and all(_is_int(m) and m >= 1 for m in grid)):
            raise ValueError(f"{key} must be a list of {dim} positive integers")
    if not (isinstance(cfg.tolerances, dict)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in cfg.tolerances.values())):
        raise ValueError("tolerances must be an object mapping check ids to finite numbers")
    for name in cfg.tolerances:
        if name not in CHECKS:
            raise ValueError(f"config tolerance names unknown check '{name}'")
    for s in cfg.scenarios or ():
        if s not in SCENARIOS:
            raise ValueError(f"unknown scenario '{s}' (have: {', '.join(sorted(SCENARIOS))})")
    for s in cfg.spacetimes or ():
        if s not in SPACETIMES:
            raise ValueError(f"unknown spacetime '{s}' (have: {', '.join(sorted(SPACETIMES))})")
    if cfg.points < 1:
        raise ValueError("--points must be positive")
    if cfg.xi_count < 1:
        raise ValueError("xi_count must be at least 1")
    for s in cfg.suites:
        if s not in SUITE_ORDER:
            raise ValueError(f"unknown suite '{s}' (have: {', '.join(SUITE_ORDER)})")
    checks = checks_for(cfg.suites)
    low = [c for c in checks if c.jet_order > cfg.jet_order]
    if low:
        need = max(c.jet_order for c in low)
        raise ValueError(f"--jet-order {cfg.jet_order} is too low for the selected "
                         f"checks ({', '.join(c.id for c in low)} need {need})")
    # last, so that a config an earlier rule rejects keeps that rule's message
    if cfg.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    for key in ("scenarios", "spacetimes"):
        names = getattr(cfg, key)
        if names is not None and not names:
            raise ValueError(f"{key} must name at least one {key[:-1]}, or be left out")
        twice = [s for k, s in enumerate(names or ()) if s in names[:k]]
        if twice:
            raise ValueError(f"{key} names '{twice[0]}' more than once")
    return checks


def _refuse_targets(cfg: RunConfig, checks):
    """Raise, from the checks' target declarations under ``cfg`` alone, the
    on-shell guard (OffShellError) for a check that holds only on shell
    given a scenario claimed off shell, else a ValueError naming every
    check that the selected spacetimes or scenarios leave no target."""
    for check in checks:
        if check.targets.on_shell_only:
            for name in check.targets.names(cfg):
                if not SCENARIOS[name].on_shell:
                    raise OffShellError(f"scenario '{name}' is claimed off shell, "
                                        f"and the check holds only on shell")
    parts = []
    for key in ("spacetimes", "scenarios"):
        names = getattr(cfg, key)
        empty = [c.id for c in checks if names and c.targets.narrows == key
                 and not c.targets.names(cfg)]
        if empty:
            parts.append(f"selected {key} {', '.join(names)} leave no target "
                         f"for {', '.join(empty)}")
    if parts:
        raise ValueError("; ".join(parts))


def run_checks(cfg: RunConfig, emit=None) -> list:
    """Run the configured checks, each reading the run's one context at its
    declared jet order, returning a list of CheckOutcome.  Before any check
    runs, a config that :func:`_validate` rejects raises ValueError, and
    then :func:`_refuse_targets` raises its on-shell guard or its
    empty-selection error.  A catalog claim that fails raises when the
    frame it is read on is built; a check that measures nothing on its own
    defaults fails."""
    checks = _validate(cfg)
    _refuse_targets(cfg, checks)
    ctx = RunContext(cfg, max((c.jet_order for c in checks), default=0))
    outcomes = []
    for check in checks:
        t0 = time.perf_counter()
        targets = list(check.fn(ctx.at(check.jet_order)))
        elapsed = time.perf_counter() - t0
        outcome = CheckOutcome(check, targets, elapsed)
        outcomes.append(outcome)
        if emit:
            emit(outcome, self_tolerance(cfg, check))
    return outcomes


def self_tolerance(cfg: RunConfig, check: Check) -> float:
    return float(cfg.tolerances.get(check.id, check.tolerance))


def build_report(cfg: RunConfig, outcomes) -> dict:
    rows = []
    passed = failed = 0
    for oc in outcomes:
        tol = self_tolerance(cfg, oc.check)
        ok = oc.passed(tol)
        passed += ok
        failed += not ok
        rows.append({
            "id": oc.check.id,
            "identity": oc.check.identity,
            "suite": oc.check.suite,
            "points": oc.points,
            "max_abs": oc.max_abs,
            "max_rel": oc.max_rel,
            "tolerance": tol,
            "measure": oc.check.measure,
            "mode": oc.check.mode,
            "passed": bool(ok),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "config": cfg.echo(),
        "checks": rows,
        "summary": {
            "passed": int(passed),
            "failed": int(failed),
            # wall time is deliberately not recorded: reports are
            # byte-for-byte reproducible functions of their configuration
            "wall_ms": None,
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
