"""Verification suites: named numerical checks of the tensor-calculus and
energy-momentum identities, grouped for the command line runner.

Each check measures a residual (or a required signal) over deterministic
sample points and compares it against a tolerance.  A check body is a
generator of ``(target_name, points, residual, scale)`` tuples, one per
measurement; residual and scale are tensors, jets, arrays or numbers.
``_register`` wraps the body into ``Check.fn``, which folds consecutive
yields that share a target name (a spacetime or a field scenario) into one
:class:`Target`: their points are summed, ``value_abs`` is the largest
|residual| over the yields and ``value_rel`` is that divided by the largest
|scale|, the normwise relative error of the target.  Both maxima propagate
NaN and a scale that is not finite makes ``value_rel`` NaN, so a NaN or inf
residual or scale is never dropped.
All randomness is seeded from the run configuration, so a report is a pure
function of its configuration.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import __version__
from .jets import constant_jet, jet_einsum
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


class OffShellError(RuntimeError):
    """An on-shell identity was requested for a scenario claimed off shell."""


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
    # a check runs at its declared jet order: it reads the run's frames,
    # fields and theories truncated to this order, the lowest at which the
    # body runs and its targets equal those of every higher order
    jet_order: int = 2
    # for a check that measures only some of the catalog entries a config
    # may name: the RunConfig field naming them ("spacetimes" or
    # "scenarios") and the test an entry must pass to be a target
    keeps: tuple | None = None
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
        that measured no point."""
        if self.points == 0 or not (math.isfinite(self.max_abs)
                                    and math.isfinite(self.max_rel)):
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
      field (the xis of ``random_xis`` and the tensors of
      ``_random_tensors``) is keyed by (variance, box, seed, frame) and
      evaluated as one coefficient sum over its basis; a catalog field (a
      Killing vector) is keyed by (field, frame).

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

    def spacetime_names(self, default):
        return self.cfg.spacetimes if self.cfg.spacetimes else default

    def scenarios(self, on_shell=None, require=False, where=None):
        """``(name, scenario, theory_frame)`` for the configured scenarios, or
        else for every catalog scenario whose on-shell claim is ``on_shell``
        (None: all).  ``where(scenario)`` skips a scenario before its theory
        is evaluated; ``require`` raises OffShellError for a scenario claimed
        off shell (``theory_frame`` has verified the claim)."""
        names = self.cfg.scenarios or [
            name for name, sc in SCENARIOS.items()
            if on_shell is None or sc.on_shell == on_shell]
        for name in names:
            sc = scenario(name)
            if where is not None and not where(sc):
                continue
            tf = self.theory_frame(name)
            if require and not sc.on_shell:
                raise OffShellError(f"scenario '{name}' is claimed off shell, "
                                    f"and the check holds only on shell")
            yield name, sc, tf

    def field(self, fld, fr) -> TensorValue:
        """Catalog field ``fld`` evaluated on frame ``fr``, on first use only."""
        key = (fld, fr)
        if key not in self._fields:
            self._fields[key] = _frozen(evaluate(fld, fr))
        return self._fields[key]

    def random_field(self, variance, box, seed, fr) -> TensorValue:
        """The seeded random field of ``variance`` on ``box``, evaluated on
        frame ``fr`` as one coefficient sum over the frame's monomial basis,
        on first use only."""
        key = (variance, box, seed, fr)
        if key not in self._fields:
            if (box, fr) not in self._bases:
                self._bases[box, fr] = monomial_basis(box, fr.coords[: fr.n])
            comps = coefficient_sum(random_coefficients(variance, box, seed),
                                    self._bases[box, fr])
            self._fields[key] = _frozen(TensorValue(variance, fr.n, comps))
        return self._fields[key]

    def random_xis(self, st_name, fr, count=None) -> list:
        """The first ``count`` (default ``xi_count``) seeded random vector
        fields of a spacetime, evaluated on ``fr``."""
        box = spacetime(st_name).box
        count = self.cfg.xi_count if count is None else count
        return [self.random_field(("u",), box, self.cfg.seed + 1000 + k, fr)
                for k in range(count)]

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


CHECKS: dict[str, Check] = {}


def _register(**kw):
    def deco(body):
        check = Check(fn=lambda ctx: _fold(body(ctx)), **kw)
        CHECKS[check.id] = check
        return body
    return deco


def _fold(yields) -> list:
    """One Target per run of consecutive ``(name, points, residual, scale)``
    yields sharing a name: points summed, ``value_abs`` the largest
    |residual| and ``value_rel`` that over the largest |scale| (at least
    1e-300).  Both maxima propagate NaN, and a scale that is not finite
    makes ``value_rel`` NaN, so a non-finite residual or scale in any yield
    reaches its target.  A target of one yield reads
    ``r / max(max_abs(scale), 1e-300)``, r being ``max_abs(residual)``."""
    targets = []
    for name, points, residual, scale in yields:
        r, s = max_abs(residual), max_abs(scale)
        del residual, scale   # not kept alive while the body computes its next yield
        if not targets or targets[-1].name != name:
            targets.append(Target(name, 0, 0.0, 0.0))
            top_scale = 0.0
        t = targets[-1]
        t.points += points
        t.value_abs = float(np.maximum(t.value_abs, r))
        top_scale = float(np.maximum(top_scale, s))
        t.value_rel = (t.value_abs / max(top_scale, 1e-300) if math.isfinite(top_scale)
                       else math.nan)
    return targets


# --------------------------------------------------------------------------
# suite: tilde-algebra
# --------------------------------------------------------------------------


def _random_tensors(ctx, st_name, fr, ranks=_TENSOR_RANKS, base_seed=0):
    """Seeded random tensors of the given ranks, evaluated on ``fr``."""
    box = spacetime(st_name).box
    return [ctx.random_field(var, box, ctx.cfg.seed + base_seed + k, fr)
            for k, var in enumerate(ranks)]


@_register(
    id="tilde-identity-map", suite="tilde-algebra",
    identity="index-replacement of the identity map vanishes",
    formula="til(delta)^a_b{}^c_d = 0",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=0,
    description="The mixed identity tensor is inert under the index-replacement "
                "operator: its up-slot and down-slot contributions cancel exactly.")
def _chk_tilde_identity(ctx):
    for st_name in ctx.spacetime_names(("minkowski4", "schwarzschild")):
        n = spacetime(st_name).n
        yield st_name, 1, tilde(TensorValue(("u", "d"), n, constant_jet(np.eye(n), n, 0))), 1.0


@_register(
    id="tilde-metric-closed-form", suite="tilde-algebra",
    identity="index-replacement of the metric",
    formula="til(g)_ab{}^c_d = -g_db delta^c_a - g_ad delta^c_b",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=1,
    description="Applying the index-replacement operator to the metric gives "
                "minus two delta-weighted copies of the metric.")
def _chk_tilde_metric(ctx):
    for st_name in ctx.spacetime_names(("minkowski4", "schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        n = fr.n
        got = tilde(fr.g)
        eye = np.eye(n)
        t1 = jet_einsum("db,ca->abcd", fr.g.components, eye)
        t2 = jet_einsum("ad,cb->abcd", fr.g.components, eye)
        want = -(t1 + t2)
        yield st_name, ctx.cfg.points, got.components - want, fr.g.components


@_register(
    id="tilde-alternating-closed-form", suite="tilde-algebra",
    identity="index-replacement of the alternating symbol",
    formula="til(eps)_{a1..an}{}^c_d = -eps_{a1..an} delta^c_d",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=0,
    description="The totally antisymmetric symbol reproduces itself (times "
                "-delta) under index replacement; a determinant-style identity.")
def _chk_tilde_eps(ctx):
    for st_name in ctx.spacetime_names(("minkowski2", "minkowski4")):
        n = spacetime(st_name).n
        eps = levi_civita(n)
        got = tilde(eps)
        S = _slot_letters(n)
        want = -np.einsum(f"{S},cd->{S}cd", value_array(eps), np.eye(n))
        yield st_name, 1, value_array(got) - want, 1.0


@_register(
    id="tilde-trace-collapse", suite="tilde-algebra",
    identity="trace of the replacement slots",
    formula="til(T)^.._a{}^a_.. = (p - q) T",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=1,
    description="Contracting the two new slots of the replaced tensor counts "
                "up-slots minus down-slots times the original tensor.")
def _chk_tilde_trace(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild",)):
        fr = ctx.frame(st_name)
        for t in _random_tensors(ctx, st_name, fr):
            tr = contract(tilde(t), t.rank, t.rank + 1)
            p = t.variance.count("u")
            q = t.rank - p
            yield st_name, ctx.cfg.points, tr - float(p - q) * t, t


@_register(
    id="tilde-product-rule", suite="tilde-algebra",
    identity="replacement operator is a derivation over tensor products",
    formula="til(T ox S) = til(T) ox S + T ox til(S)  (new slots gathered last)",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=1,
    description="The index-replacement operator satisfies the Leibniz rule on "
                "outer products, once the new slots are moved to the end.")
def _chk_tilde_leibniz(ctx):
    for st_name in ctx.spacetime_names(("minkowski4",)):
        fr = ctx.frame(st_name)
        ts = _random_tensors(ctx, st_name, fr, ranks=(("u",), ("d",), ("u", "d")))
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
                yield st_name, ctx.cfg.points, res, lhs


# --------------------------------------------------------------------------
# suite: lie-calculus
# --------------------------------------------------------------------------


@_register(
    id="lie-dual-forms", suite="lie-calculus",
    identity="derivative-agnostic form of the Lie derivative",
    formula="dT xi - til(T) dxi  ==  DT xi - til(T) Dxi",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=1,
    description="The Lie derivative written through the index-replacement "
                "operator gives the same values with coordinate partials as "
                "with covariant derivatives: the connection terms cancel.")
def _chk_lie_dual(ctx):
    for st_name in ctx.spacetime_names(("minkowski4", "schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        (xi,) = ctx.random_xis(st_name, fr, 1)
        for t in _random_tensors(ctx, st_name, fr, base_seed=40):
            a = lie_derivative(t, xi, None)
            yield st_name, ctx.cfg.points, a - lie_derivative(t, xi, fr), a


@_register(
    id="killing-metric-flow", suite="lie-calculus",
    identity="metric is invariant along its symmetry vectors",
    formula="(Lie_xi g)_ab = D_a xi_b + D_b xi_a = 0",
    tolerance=1e-10, measure="abs", mode="below",
    jet_order=1,
    description="Every vector the catalog claims as a symmetry annihilates "
                "the metric under the Lie derivative.")
def _chk_killing(ctx):
    for st_name in ctx.spacetime_names(tuple(SPACETIMES)):
        fr = ctx.frame(st_name)
        for v in spacetime(st_name).killing:
            yield st_name, ctx.cfg.points, lie_derivative(fr.g, ctx.field(v, fr), fr), fr.g


@_register(
    id="parallel-claims", suite="lie-calculus",
    identity="claimed parallel vectors have vanishing covariant derivative",
    formula="D_a xi^b = 0",
    tolerance=1e-10, measure="abs", mode="below",
    jet_order=1, keeps=("spacetimes", lambda st: bool(st.parallel)),
    description="Translation generators on flat charts are claimed to be "
                "covariantly constant; the claim is re-derived numerically.")
def _chk_parallel(ctx):
    for st_name in ctx.spacetime_names(tuple(SPACETIMES)):
        fr = ctx.frame(st_name)
        for v in spacetime(st_name).parallel:
            xi = ctx.field(v, fr)
            yield st_name, ctx.cfg.points, covariant_derivative(xi, fr), xi


@_register(
    id="volume-weight-flow", suite="lie-calculus",
    identity="Lie derivative of the metric volume factor",
    formula="1/2 sqrt|g| g^ab (Lie_xi g)_ab = d_a(sqrt|g| xi^a)",
    tolerance=1e-9, measure="abs", mode="below",
    jet_order=1,
    description="The trace of the metric flow reproduces the Lie derivative "
                "of the density sqrt|g|, d_a(sqrt|g| xi^a), which reads the "
                "first derivatives of sqrt|g|.")
def _chk_volume(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        for xi in ctx.random_xis(st_name, fr, 3):
            res = volume_lie_residual(xi, fr)
            yield st_name, ctx.cfg.points, res, fr.sqrt_g


# --------------------------------------------------------------------------
# suite: commutator
# --------------------------------------------------------------------------


@_register(
    id="curvature-commutator", suite="commutator",
    identity="second-derivative commutator equals the curvature action",
    formula="(D_a D_b - D_b D_a) T = R^d_{cab} til(T)^c_d",
    tolerance=1e-9, measure="abs", mode="below",
    description="For every tensor rank, the antisymmetrized double covariant "
                "derivative matches the curvature contracted with the "
                "index-replaced tensor.  This check fixes the curvature sign "
                "and slot conventions.")
def _chk_curv_comm(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        for t in _random_tensors(ctx, st_name, fr, base_seed=60):
            res = curvature_commutator_residual(t, fr)
            yield st_name, ctx.cfg.points, res, fr.riemann


@_register(
    id="tilde-gradient-commutator", suite="commutator",
    identity="index replacement past a covariant gradient",
    formula="til(D_e T)^a_b = D_e til(T)^a_b - delta^a_e D_b T",
    tolerance=1e-9, measure="abs", mode="below",
    jet_order=1,
    description="Replacing indices after differentiation differs from "
                "differentiating the replaced tensor only by the gradient "
                "slot's own replacement term.")
def _chk_tilde_grad(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild",)):
        fr = ctx.frame(st_name)
        for t in _random_tensors(ctx, st_name, fr, base_seed=80):
            res = tilde_gradient_commutator_residual(t, fr)
            yield st_name, ctx.cfg.points, res, covariant_derivative(t, fr)


@_register(
    id="connection-tensor-dual-form", suite="commutator",
    identity="flow-connection tensor from curvature or from the metric flow",
    formula="R^c_{bda} xi^d + D_a D_b xi^c  ==  "
            "1/2 g^cd (D_b (Lg)_da + D_a (Lg)_db - D_d (Lg)_ba)",
    tolerance=1e-9, measure="abs", mode="below",
    description="The connection-deformation tensor of a flow can be built "
                "from second derivatives of xi plus curvature or from first "
                "derivatives of the metric flow; both constructions agree.")
def _chk_conn_dual(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        for xi in ctx.random_xis(st_name, fr, 3):
            a = lie_connection_tensor(xi, fr, form="direct")
            b = lie_connection_tensor(xi, fr, form="metric")
            yield st_name, ctx.cfg.points, a - b, a


@_register(
    id="lie-gradient-commutator", suite="commutator",
    identity="commutator of flow and covariant gradient",
    formula="(Lie_xi D - D Lie_xi) T = C^c_{ba} til(T)^b_c",
    tolerance=1e-9, measure="abs", mode="below",
    description="The failure of the Lie derivative to commute with the "
                "covariant gradient is exactly the connection-deformation "
                "tensor acting through index replacement.")
def _chk_lie_grad(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild", "bump2")):
        fr = ctx.frame(st_name)
        (xi,) = ctx.random_xis(st_name, fr, 1)
        C = lie_connection_tensor(xi, fr, form="direct")
        for t in _random_tensors(ctx, st_name, fr, base_seed=90):
            got = lie_nabla_commutator(t, xi, fr)
            yield st_name, ctx.cfg.points, got - tilde_contract(t, C), got


@_register(
    id="killing-gradient-commute", suite="commutator",
    identity="symmetry flows commute with the covariant gradient",
    formula="Lie_xi (D T) = D (Lie_xi T)   for Killing xi",
    tolerance=1e-9, measure="abs", mode="below",
    description="Along a metric symmetry the connection deformation vanishes, "
                "so differentiation and flow commute on arbitrary tensors.")
def _chk_killing_commute(ctx):
    for st_name in ctx.spacetime_names(("schwarzschild", "minkowski4")):
        fr = ctx.frame(st_name)
        ts = _random_tensors(ctx, st_name, fr, ranks=((), ("u",), ("d", "d")),
                             base_seed=110)
        for v in spacetime(st_name).killing[:4]:
            xi = ctx.field(v, fr)
            for t in ts:
                res = lie_nabla_commutator(t, xi, fr)
                yield st_name, ctx.cfg.points, res, covariant_derivative(t, fr)


# --------------------------------------------------------------------------
# suite: kinematic-lagrangian
# --------------------------------------------------------------------------


@_register(
    id="lagrangian-flow-chain-rule", suite="kinematic-lagrangian",
    identity="scalar Lagrangians flow by the chain rule",
    formula="dL/d(Dpsi) Lie(Dpsi) + dL/dpsi Lie(psi) + dL/dg Lie(g) = dL xi",
    tolerance=1e-9, measure="abs", mode="below",
    description="For a generally covariant scalar Lagrangian the Lie "
                "derivative distributes over its arguments; holds for any "
                "field configuration, on or off shell.")
def _chk_chain(ctx):
    for name, sc, tf in ctx.scenarios():
        for xi in ctx.random_xis(sc.spacetime, tf.frame, 3):
            res = kinematic_lie_residual(tf, xi)
            yield name, ctx.cfg.points, res, tf.L


@_register(
    id="flow-chain-rule-negative-control", suite="kinematic-lagrangian",
    identity="explicit coordinate dependence breaks the chain rule",
    formula="residual of the flow chain rule for a non-covariant Lagrangian",
    tolerance=1e-3, measure="abs", mode="exceeds",
    description="A Lagrangian with bare coordinate dependence must fail the "
                "chain-rule identity; this guards the main check against "
                "silently measuring zero.")
def _chk_chain_negative(ctx):
    sc = scenario("scalar-wave-2d")
    fr = ctx.frame(sc.spacetime)
    tf = evaluate_theory(broken_scalar_theory(0.5), sc.field, fr)
    for xi in ctx.random_xis(sc.spacetime, fr, 3):
        res = kinematic_lie_residual(tf, xi)
        yield "broken-scalar", ctx.cfg.points, res, tf.L


# --------------------------------------------------------------------------
# suite: emt-onshell
# --------------------------------------------------------------------------


def _is_maxwell(sc) -> bool:
    return sc.theory.name == "maxwell"


def _is_first_order(sc) -> bool:
    """A scalar or Maxwell theory, whose superpotential bracket cancels."""
    return sc.theory.name.startswith(("scalar", "maxwell"))


@_register(
    id="metric-emt-symmetry", suite="emt-onshell",
    identity="metric energy-momentum tensor is symmetric by construction",
    formula="T_M^ab = T_M^ba   (on or off shell)",
    tolerance=1e-9, measure="abs", mode="below",
    description="Symmetry of T_M needs no field equations: the derivative "
                "bracket it subtracts is built symmetric in its free slots.")
def _chk_tm_sym(ctx):
    for name, _, tf in ctx.scenarios():
        tm = tf.emt_metric
        yield name, ctx.cfg.points, tm - transpose_slots(tm, (1, 0)), tm


@_register(
    id="superpotential-antisymmetry", suite="emt-onshell",
    identity="superpotential antisymmetry in its first two slots",
    formula="Theta^abc = -Theta^bac",
    tolerance=1e-12, measure="abs", mode="below",
    jet_order=1,
    description="The three-term superpotential is antisymmetric under "
                "swapping its first slot pair, which is what makes its "
                "double divergence vanish.")
def _chk_theta_antisym(ctx):
    for name, _, tf in ctx.scenarios():
        th = tf.theta
        res = th + transpose_slots(th, (1, 0, 2))
        yield name, ctx.cfg.points, res, max(max_abs(th), 1.0)


@_register(
    id="improved-equals-metric", suite="emt-onshell",
    identity="improved and metric tensors coincide on shell",
    formula="T_B^ab = T_M^ab   when the field equations hold",
    tolerance=1e-9, measure="abs", mode="below",
    description="Adding the superpotential divergence to the canonical "
                "tensor lands exactly on the metric tensor for solutions.")
def _chk_tb_tm(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, require=True):
        yield name, ctx.cfg.points, tf.emt_belinfante - tf.emt_metric, tf.emt_metric


@_register(
    id="master-identity", suite="emt-onshell",
    identity="current divergence pairs with the metric flow",
    formula="D_a(T_B^ab xi_b) = 1/2 T_M^ab (Lie_xi g)_ab   for any xi",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="The central exchange identity: for an arbitrary vector "
                "field, not only symmetries, the divergence of the improved "
                "current equals the metric tensor paired with the metric "
                "flow.  Checked with a family of seeded random vectors.")
def _chk_master(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True, require=True):
        for xi in ctx.random_xis(sc.spacetime, tf.frame):
            lhs, rhs = master_identity_terms(tf, xi)
            yield name, ctx.cfg.points, lhs - rhs, lhs


@_register(
    id="current-gradient-pairing", suite="emt-onshell",
    identity="current divergence pairs with the vector gradient",
    formula="D_a(T_B^ab xi_b) = T_M^ab D_a xi_b   for any xi",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="Equivalent form of the exchange identity with the full "
                "(unsymmetrized) gradient of xi; works because T_M is "
                "symmetric.")
def _chk_110(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True, require=True):
        for xi in ctx.random_xis(sc.spacetime, tf.frame, 4):
            res = current_gradient_pairing_residual(tf, xi)
            yield name, ctx.cfg.points, res, tf.emt_metric


@_register(
    id="symmetry-current-conservation", suite="emt-onshell",
    identity="conserved current along each metric symmetry",
    formula="D_a(T_B^ab xi_b) = 0   for Killing xi",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="The improved current built from any catalog symmetry vector "
                "is divergence-free on shell.")
def _chk_noether(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True, require=True):
        for v in spacetime(sc.spacetime).killing:
            res = divergence(noether_current(tf, ctx.field(v, tf.frame)), tf.frame)
            yield name, ctx.cfg.points, res, tf.emt_belinfante


@_register(
    id="improved-divergence", suite="emt-onshell",
    identity="improved tensor is divergence-free on shell",
    formula="D_a T_B^ab = 0",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="Slot-wise conservation of the improved tensor for "
                "solutions, on flat and curved backgrounds alike.")
def _chk_tb_div(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, require=True):
        yield name, ctx.cfg.points, divergence(tf.emt_belinfante, tf.frame), tf.emt_belinfante


@_register(
    id="metric-emt-divergence", suite="emt-onshell",
    identity="metric tensor is divergence-free on shell",
    formula="D_a T_M^ab = 0",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="Conservation of the metric tensor for solutions; follows "
                "from the exchange identity with arbitrary localized xi.")
def _chk_tm_div(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, require=True):
        yield name, ctx.cfg.points, divergence(tf.emt_metric, tf.frame), tf.emt_metric


@_register(
    id="canonical-curvature-obstruction", suite="emt-onshell",
    identity="canonical tensor divergence equals a curvature pairing",
    formula="D_a T_C^ab = dL/d(D_a psi) R^b_{adc} til(psi)^cd",
    tolerance=1e-8, measure="abs", mode="below",
    description="On shell the canonical tensor is not conserved on curved "
                "backgrounds; its divergence is an explicit curvature term. "
                "Both sides are compared pointwise.")
def _chk_can_div(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, require=True):
        lhs, rhs = canonical_divergence_terms(tf)
        scale = max(max_abs(lhs), max_abs(rhs), max_abs(tf.emt_canonical))
        yield name, ctx.cfg.points, lhs - rhs, scale


@_register(
    id="canonical-obstruction-magnitude", suite="emt-onshell",
    identity="the curvature obstruction is actually nonzero",
    formula="max |D_a T_C^ab| over a curved vector-field scenario",
    tolerance=1e-6, measure="abs", mode="exceeds",
    description="Guards the obstruction check against passing vacuously: on "
                "the curved electromagnetic scenario the canonical tensor "
                "must demonstrably fail to be conserved.")
def _chk_can_div_magnitude(ctx):
    name = "schwarzschild-coulomb"
    lhs, rhs = canonical_divergence_terms(ctx.theory_frame(name))
    v = np.min([max_abs(lhs), max_abs(rhs)])  # NaN-propagating
    yield name, ctx.cfg.points, v, 1.0


@_register(
    id="superpotential-current-closure", suite="emt-onshell",
    identity="difference current is identically conserved",
    formula="D_a[(D_c Theta^cab) xi_b + Theta^cab D_c xi_b] = 0   for any xi",
    tolerance=1e-8, measure="abs", mode="below",
    jet_order=3,
    description="The current formed from the superpotential alone is "
                "divergence-free without field equations for its xi-part: "
                "antisymmetry plus the symmetry of the Ricci tensor.")
def _chk_diff_current(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True):
        for xi in ctx.random_xis(sc.spacetime, tf.frame, 4):
            res = divergence(difference_current(tf, xi), tf.frame)
            yield name, ctx.cfg.points, res, tf.theta


@_register(
    id="current-decomposition", suite="emt-onshell",
    identity="improved current splits into canonical plus superpotential parts",
    formula="T_B^ab xi_b = [T_C^ab xi_b + Theta^cab D_c xi_b] - difference current",
    tolerance=1e-9, measure="abs", mode="below",
    description="Bookkeeping control, true by construction: T_B is defined "
                "as T_C - D_c Theta^cab, so T_B xi - (T_C xi + Theta:D xi) + "
                "(D.Theta xi + Theta:D xi) cancels term by term.  It guards "
                "the three current builders against drifting apart and tests "
                "no field equation.")
def _chk_current_decomp(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True):
        for xi in ctx.random_xis(sc.spacetime, tf.frame, 4):
            a = noether_current(tf, xi)
            b = alternative_current(tf, xi)
            c = difference_current(tf, xi)
            yield name, ctx.cfg.points, a - b + c, a


@_register(
    id="matter-flow-current", suite="emt-onshell",
    identity="conserved current from the matter flow along a symmetry",
    formula="D_a[dL/d(D_a psi) Lie_xi psi - L xi^a] = 0   for Killing xi",
    tolerance=1e-8, measure="abs", mode="below",
    description="A first-derivative current built from the field flow along "
                "a symmetry vector; conserved on shell.")
def _chk_matter_current(ctx):
    for name, sc, tf in ctx.scenarios(on_shell=True, require=True):
        for v in spacetime(sc.spacetime).killing:
            res = divergence(lie_matter_current(tf, ctx.field(v, tf.frame)), tf.frame)
            yield name, ctx.cfg.points, res, tf.L


@_register(
    id="metric-derivative-identity", suite="emt-onshell",
    identity="metric derivative of L from field gradients on shell",
    formula="2 dL/dg_ab = D_c(dL/d(D_c psi) til(psi)^ab) - dL/d(D_a psi) D^b psi",
    tolerance=1e-8, measure="abs", mode="below",
    description="On shell, the metric derivative of the Lagrangian can be "
                "rebuilt entirely from the field sector; the right side is "
                "secretly symmetric in its free slots.")
def _chk_ee(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, require=True):
        lhs, rhs = metric_derivative_identity_terms(tf)
        yield name, ctx.cfg.points, lhs - rhs, lhs
        yield name, 0, rhs - transpose_slots(rhs, (1, 0)), lhs


@_register(
    id="first-order-emt-closed-form", suite="emt-onshell",
    identity="bracket-free closed form for scalar and one-form gauge theories",
    formula="T_M^ab = 2 dL/dg_ab + g^ab L   when the derivative bracket vanishes",
    tolerance=1e-9, measure="abs", mode="below", keeps=("scenarios", _is_first_order),
    description="For the built-in scalar and electromagnetic Lagrangians the "
                "superpotential bracket cancels identically, so T_M reduces "
                "to the bare metric-derivative form.")
def _chk_tm_closed(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, where=_is_first_order):
        want = 2.0 * tf.dL_dg + tf._g_up_L
        yield name, ctx.cfg.points, tf.emt_metric - want, tf.emt_metric


@_register(
    id="em-field-strength-form", suite="emt-onshell",
    identity="electromagnetic energy-momentum in field-strength form",
    formula="T_M^ab = F^ac F^b_c + g^ab L",
    tolerance=1e-9, measure="abs", mode="below", keeps=("scenarios", _is_maxwell),
    description="On electromagnetic scenarios the machine-built T_M matches "
                "the textbook field-strength expression exactly.")
def _chk_em_form(ctx):
    for name, _, tf in ctx.scenarios(on_shell=True, where=_is_maxwell):
        dA = tf.dpsi                        # [b, a] = D_a A_b
        F = transpose_slots(dA, (1, 0)) - dA
        ginv = tf.frame.ginv
        Fup = einsum("ac,cb->ab", ginv, einsum("cb,bd->cd", F, ginv))
        Fmix = einsum("ac,cb->ab", ginv, F)
        want = einsum("ac,bc->ab", Fup, Fmix) + einsum("ab,->ab", ginv, tf.L)
        yield name, ctx.cfg.points, tf.emt_metric - want, tf.emt_metric


# --------------------------------------------------------------------------
# suite: gauge
# --------------------------------------------------------------------------


def _gauge_pairs(ctx):
    """``(name, theory frame, (T_M, T_B, T_C) after the gauge shift)``."""
    for name, _, tf in ctx.scenarios(on_shell=True, where=_is_maxwell):
        yield name, tf, ctx.gauge_shifted_emts(name)


@_register(
    id="gauge-invariance-metric-emt", suite="gauge",
    identity="metric tensor is gauge invariant",
    formula="T_M[A + d chi] = T_M[A]",
    tolerance=1e-9, measure="abs", mode="below", keeps=("scenarios", _is_maxwell),
    description="Shifting the potential by an exact gradient leaves the "
                "metric energy-momentum tensor unchanged pointwise.")
def _chk_gauge_tm(ctx):
    for name, tf, (tm, _, _) in _gauge_pairs(ctx):
        yield name, ctx.cfg.points, tm - tf.emt_metric, tf.emt_metric


@_register(
    id="gauge-invariance-improved-emt", suite="gauge",
    identity="improved tensor is gauge invariant",
    formula="T_B[A + d chi] = T_B[A]",
    tolerance=1e-9, measure="abs", mode="below", keeps=("scenarios", _is_maxwell),
    description="The superpotential correction removes the canonical "
                "tensor's gauge dependence entirely.")
def _chk_gauge_tb(ctx):
    for name, tf, (_, tb, _) in _gauge_pairs(ctx):
        res = tb - tf.emt_belinfante
        yield name, ctx.cfg.points, res, tf.emt_belinfante


@_register(
    id="gauge-variance-canonical-emt", suite="gauge",
    identity="canonical tensor is not gauge invariant",
    formula="max |T_C[A + d chi] - T_C[A]|  is bounded away from zero",
    tolerance=1e-4, measure="abs", mode="exceeds", keeps=("scenarios", _is_maxwell),
    description="Negative control: the canonical tensor must move under a "
                "gauge shift, demonstrating the invariance checks are not "
                "passing vacuously.")
def _chk_gauge_tc(ctx):
    for name, tf, (_, _, tc) in _gauge_pairs(ctx):
        yield name, ctx.cfg.points, tc - tf.emt_canonical, 1.0


# --------------------------------------------------------------------------
# suite: variational
# --------------------------------------------------------------------------


def _variational_target(ctx, scen_name, grid, seed_offset=0):
    sc = scenario(scen_name)
    st = spacetime(sc.spacetime)
    box = scenario_box(sc)
    h = bump_perturbation(box, ctx.cfg.seed + 9000 + seed_offset)
    lhs, rhs = variational_pair(sc.theory, sc.field, st.metric, h, box, grid)
    return scen_name, int(np.prod(grid)), lhs - rhs, max(abs(lhs), abs(rhs))


@_register(
    id="variational-agreement-2d", suite="variational",
    identity="action derivative matches the tensor pairing, two dimensions",
    formula="d/d eps S[g + eps h] = 1/2 integral T_M^ab h_ab sqrt|g|",
    tolerance=1e-6, measure="rel", mode="below",
    description="Direct differentiation of the quadrature-evaluated action "
                "under a compact metric perturbation against the integrated "
                "pairing with T_M, scalar field on a two-dimensional chart.")
def _chk_var_2d(ctx):
    yield _variational_target(ctx, "scalar-wave-2d", ctx.cfg.grid_2d)


@_register(
    id="variational-agreement-4d", suite="variational",
    identity="action derivative matches the tensor pairing, four dimensions",
    formula="d/d eps S[g + eps h] = 1/2 integral T_M^ab h_ab sqrt|g|",
    tolerance=1e-3, measure="rel", mode="below",
    description="Same comparison for the electromagnetic field on a "
                "four-dimensional grid; coarser quadrature, looser tolerance.")
def _chk_var_4d(ctx):
    yield _variational_target(ctx, "em-wave-4d", ctx.cfg.grid_4d, seed_offset=1)


@_register(
    id="variational-superpotential-2d", suite="variational",
    identity="tensor pairing with a live superpotential bracket",
    formula="d/d eps S = 1/2 integral T_M^ab h_ab sqrt|g|, bracket nonzero",
    tolerance=1e-6, measure="rel", mode="below",
    description="The unconstrained-gradient vector theory has a nonvanishing "
                "derivative bracket, so this comparison exercises the "
                "divergence subtraction and integration by parts for real.")
def _chk_var_super(ctx):
    yield _variational_target(ctx, "gradient-vector-2d", ctx.cfg.grid_2d, seed_offset=2)


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


def _left_empty(cfg: RunConfig, checks) -> tuple:
    """The ids of the checks whose ``keeps`` test passes none of the
    spacetimes or scenarios ``cfg`` names, and a one-line message naming
    them with the selection."""
    ids, parts = set(), []
    for key, entry in (("spacetimes", spacetime), ("scenarios", scenario)):
        names = getattr(cfg, key)
        empty = [c.id for c in checks if names and c.keeps and c.keeps[0] == key
                 and not any(c.keeps[1](entry(n)) for n in names)]
        if empty:
            ids.update(empty)
            parts.append(f"selected {key} {', '.join(names)} leave no target "
                         f"for {', '.join(empty)}")
    return ids, "; ".join(parts)


def run_checks(cfg: RunConfig, emit=None) -> list:
    """Run the configured checks, each reading the run's one context at its
    declared jet order, returning a list of CheckOutcome.  A config that
    :func:`_validate` rejects raises ValueError before any check runs.  A
    selection of spacetimes or scenarios that leaves a check no target
    raises ValueError, naming every such check, when the run reaches the
    first of them (so a claim or on-shell error of an earlier check keeps
    its exit code); a check that measures nothing on its own defaults fails."""
    checks = _validate(cfg)
    empty, message = _left_empty(cfg, checks)
    ctx = RunContext(cfg, max((c.jet_order for c in checks), default=0))
    outcomes = []
    for check in checks:
        if check.id in empty:
            raise ValueError(message)
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
