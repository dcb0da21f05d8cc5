"""Stacked vector families: each check that measures a family of xis or of
catalog Killing vectors as one stack on a leading batch axis reports, per
target, the bits that a loop over the members reports, both where every
contraction goes to np.einsum (16 points) and where plain matmuls go to
``@`` (128 points).

The loops below are the check bodies written one member at a time: the
members of a seeded family are the slices of the stacks of ``xi_stacks``,
each equal to its standalone evaluation (``tests/test_catalog.py``), and
the catalog vectors are evaluated one by one.  Above 32 points, every
stack a run makes is a single member."""

import pytest

from emtkit.catalog import scenario, spacetime
from emtkit.fieldtheory import (
    alternative_current,
    broken_scalar_theory,
    difference_current,
    evaluate_theory,
    kinematic_lie_residual,
    lie_matter_current,
    master_identity_terms,
    noether_current,
)
from emtkit.geometry import (
    covariant_derivative,
    divergence,
    lie_connection_tensor,
    lie_derivative,
    lie_nabla_commutator,
    volume_lie_residual,
)
from emtkit.suites import CHECKS, RunConfig, RunContext, _fold, _members
from emtkit.tensors import tilde_contract


def _xis(ctx, fr, count=None):
    return [xi for xis in ctx.xi_stacks(fr, count) for xi in _members(xis)]


def _lie_dual(ctx, st_name):
    fr = ctx.frame(st_name)
    (xi,) = _xis(ctx, fr, 1)
    for t in ctx.random_tensors(fr, base_seed=40):
        a = lie_derivative(t, xi, None)
        yield ctx.cfg.points, a - lie_derivative(t, xi, fr), a


def _killing(ctx, st_name):
    fr = ctx.frame(st_name)
    for v in spacetime(st_name).killing:
        yield ctx.cfg.points, lie_derivative(fr.g, ctx.field(v, fr), fr), fr.g


def _parallel(ctx, st_name):
    fr = ctx.frame(st_name)
    for v in spacetime(st_name).parallel:
        xi = ctx.field(v, fr)
        yield ctx.cfg.points, covariant_derivative(xi, fr), xi


def _volume(ctx, st_name):
    fr = ctx.frame(st_name)
    for xi in _xis(ctx, fr, 3):
        yield ctx.cfg.points, volume_lie_residual(xi, fr), fr.sqrt_g


def _conn_dual(ctx, st_name):
    fr = ctx.frame(st_name)
    for xi in _xis(ctx, fr, 3):
        a = lie_connection_tensor(xi, fr, form="direct")
        b = lie_connection_tensor(xi, fr, form="metric")
        yield ctx.cfg.points, a - b, a


def _lie_grad(ctx, st_name):
    fr = ctx.frame(st_name)
    (xi,) = _xis(ctx, fr, 1)
    C = lie_connection_tensor(xi, fr, form="direct")
    for t in ctx.random_tensors(fr, base_seed=90):
        got = lie_nabla_commutator(t, xi, fr)
        yield ctx.cfg.points, got - tilde_contract(t, C), got


def _killing_commute(ctx, st_name):
    fr = ctx.frame(st_name)
    ts = ctx.random_tensors(fr, ranks=((), ("u",), ("d", "d")), base_seed=110)
    for v in spacetime(st_name).killing[:4]:
        xi = ctx.field(v, fr)
        for t in ts:
            yield ctx.cfg.points, lie_nabla_commutator(t, xi, fr), covariant_derivative(t, fr)


def _chain(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in _xis(ctx, tf.frame, 3):
        yield ctx.cfg.points, kinematic_lie_residual(tf, xi), tf.L


def _chain_negative(ctx, _name):
    sc = scenario("scalar-wave-2d")
    fr = ctx.frame(sc.spacetime)
    tf = evaluate_theory(broken_scalar_theory(0.5), sc.field, fr)
    for xi in _xis(ctx, fr, 3):
        yield ctx.cfg.points, kinematic_lie_residual(tf, xi), tf.L


def _master(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in _xis(ctx, tf.frame):
        lhs, rhs = master_identity_terms(tf, xi)
        yield ctx.cfg.points, lhs - rhs, lhs


def _noether(ctx, name):
    tf = ctx.theory_frame(name)
    for v in spacetime(scenario(name).spacetime).killing:
        res = divergence(noether_current(tf, ctx.field(v, tf.frame)), tf.frame)
        yield ctx.cfg.points, res, tf.emt_belinfante


def _diff_current(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in _xis(ctx, tf.frame, 4):
        yield ctx.cfg.points, divergence(difference_current(tf, xi), tf.frame), tf.theta


def _current_decomp(ctx, name):
    tf = ctx.theory_frame(name)
    for xi in _xis(ctx, tf.frame, 4):
        a = noether_current(tf, xi)
        yield ctx.cfg.points, a - alternative_current(tf, xi) + difference_current(tf, xi), a


def _matter_current(ctx, name):
    tf = ctx.theory_frame(name)
    for v in spacetime(scenario(name).spacetime).killing:
        res = divergence(lie_matter_current(tf, ctx.field(v, tf.frame)), tf.frame)
        yield ctx.cfg.points, res, tf.L


LOOPED = {
    "lie-dual-forms": _lie_dual,
    "killing-metric-flow": _killing,
    "parallel-claims": _parallel,
    "volume-weight-flow": _volume,
    "connection-tensor-dual-form": _conn_dual,
    "lie-gradient-commutator": _lie_grad,
    "killing-gradient-commute": _killing_commute,
    "lagrangian-flow-chain-rule": _chain,
    "flow-chain-rule-negative-control": _chain_negative,
    "master-identity": _master,
    "symmetry-current-conservation": _noether,
    "superpotential-current-closure": _diff_current,
    "current-decomposition": _current_decomp,
    "matter-flow-current": _matter_current,
}


def _bits(target):
    return (target.name, target.points, target.value_abs.hex(), target.value_rel.hex())


@pytest.mark.parametrize("points", [16, 128])
def test_each_stacked_family_reports_the_bits_of_a_loop_over_its_members(points):
    cfg = RunConfig(suites=("lie-calculus", "commutator", "kinematic-lagrangian",
                            "emt-onshell"), points=points, xi_count=4)
    ctx = RunContext(cfg, 3)
    for check_id, looped in LOOPED.items():
        check = CHECKS[check_id]
        view = ctx.at(check.jet_order)
        stacked = [_bits(t) for t in check.fn(view)]
        members = [_bits(_fold(name, looped(view, name))) for name in check.targets.names(cfg)]
        assert stacked == members, check_id
        assert all(t[1] > 0 for t in stacked)
