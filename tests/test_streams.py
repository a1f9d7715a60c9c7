"""The node streams against the materialized runs they replace.

``verify`` reads its RK4 reference and the dt/2 run in blocks of nodes,
and its one-step semigroup restart to its end state; the restart from any
node, tested here, keeps only its end state too.  The oracle is the code
that materialized them as full arrays, in ``oracles``: every streamed run
must be bitwise equal to it, with the same node counts and the same
refusals.  The class system's RK4 run, ``integrate_discrete``, is held to
the oracle's in the same way.  The frequency gaps and the class identity
evaluate their right-hand sides for a whole block of nodes at once, so
they are held to the oracle's per-node loops within ``ROUND_OFF``
max(1, S), S the largest rates (1 for the class identity, a relative
gap), at block sizes 1, 2, 3, 16 and the whole run; their node counts
and refusals are the oracle's exactly.  The finite-difference residual
reads blocks too but evaluates its field node by node, and stays bitwise
equal to the oracle's.  The pairs drawn here have vector b
and c, so RK4 takes the field step that the oracle writes out;
``test_dynamics`` holds separable pairs, which take the polynomial step,
to the oracle at round-off.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import reference_components
from evomeasure import DiscreteSystem, MeasureVec, constant_pair, matrix_kernel, zero_measure
from evomeasure.dynamics import (NodeStream, _central_difference_gap, finite_difference_residual, node_blocks,
                                 rk4_integrate, rk4_stream, sup_tv)
from evomeasure.reductions import (_class_identity, _frequency_blocks, _frequency_rows, frequency_gaps,
                                   integrate_discrete, mm_residual, replicator_check)
from oracles import class_system_gap, outcome, random_pair, random_problem, refuse_mass_above, refused

# a blocked gap is the per-node gap within ROUND_OFF max(1, S): about 45
# units of round-off (eps = 2.2e-16); property tests saw at most 1.5
ROUND_OFF = 1e-14


def _run(traj):
    return traj.times.tobytes(), traj.weights.tobytes(), traj.meta


def rate_scale(traj, fp):
    """The largest |f1| plus the largest |f2| over the nodes of ``traj``."""
    f1, f2 = fp.tables(traj.masses)
    return float(np.abs(f1).max() + np.abs(f2).max())


def close(got, want, scale):
    """Outcomes alike: refusals, node counts and a missing gap equal, and
    each gap within ROUND_OFF max(1, scale) of the oracle's (NaN to NaN)."""
    if refused(got) or refused(want):
        return got == want
    return len(got) == len(want) and all(
        abs(g - w) <= ROUND_OFF * max(1.0, scale) or math.isnan(g) and math.isnan(w) if isinstance(w, float)
        else g == w for g, w in zip(got, want))


@settings(max_examples=120, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "mean_fitness", "stiff"]),
    truncate=st.booleans(),
    vanishing=st.sampled_from([False, False, False, True]),
    n_steps=st.integers(1, 30),
    last_step=st.sampled_from([1.0, 0.3, 0.999]),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_streams_are_the_materialized_runs_bitwise(
    space_kind, n, kernel_kind, family, truncate, vanishing, n_steps, last_step, seed
):
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    dt = float(rng.uniform(0.005, 0.05))
    if family == "stiff":
        # deaths at 15-30 against dt up to 0.12 under a kernel that mixes a
        # share eps: RK4 clips round-off-sized dips (and aborts on large ones)
        eps = 10.0 ** rng.uniform(-10.0, -2.0)
        mix = rng.uniform(0.0, 1.0, (sp.n, sp.n))
        kernel = matrix_kernel(sp, (1.0 - eps) * np.eye(sp.n) + eps * mix / mix.sum(axis=1, keepdims=True))
        fp = constant_pair(sp, a=rng.uniform(0.0, 2.0, sp.n), b=rng.uniform(15.0, 30.0, sp.n))
        dt = float(rng.uniform(0.05, 0.12))
        # empty classes receive only the mixed share: there the dips show
        u = MeasureVec(sp, u.weights * (np.arange(sp.n) % 2 == 0))
    else:
        fp = random_pair(rng, sp, family)
    if truncate and family != "stiff":
        # a low level refuses some runs, from node 0 on
        fp = fp.truncated(float(rng.uniform(0.3, 3.0)))
    if vanishing:
        u = zero_measure(sp)
    T = (n_steps - 1 + last_step) * dt

    # the collected stream: nodes, times and meta with its clip keys
    want = outcome(lambda: refuse_mass_above(oracles.rk4_run(u, kernel, fp, T, dt)))
    got = outcome(lambda: rk4_integrate(u, kernel, fp, T, dt))
    if refused(want):
        assert got == want
        return
    ref = got
    assert _run(ref) == _run(want)
    fpt = fp.truncated(ref.meta["k_tilde"])

    # the restart from a node keeps only its end state
    k1 = int(rng.integers(0, ref.n_nodes))
    rest = T - ref.times[k1]
    want = outcome(lambda: refuse_mass_above(oracles.rk4_run(ref.state(k1), kernel, fpt, rest, dt))
                   .final.weights.tobytes())
    got = outcome(lambda: rk4_stream(ref.state(k1), kernel, fpt, rest, dt).run_to_end().weights.tobytes())
    assert got == want

    # the finite-difference residual
    assert (finite_difference_residual(ref, kernel, fpt)
            == oracles.finite_difference_residual(ref, kernel, fpt))
    if family == "mean_fitness":
        return
    rates = rate_scale(ref, fpt)

    # the class-system gap against the full arrays
    _, oracle = integrate_discrete(DiscreteSystem.from_measure_problem(kernel, fpt), u.weights, T, dt)
    assert sup_tv(ref.weights, oracle) == class_system_gap(ref, kernel, fpt, u, dt)

    # the frequency gaps of the trajectory and of a stream (the dt/2 run of
    # verify), against the materialized checks of the collected runs
    half = outcome(lambda: refuse_mass_above(oracles.rk4_run(u, kernel, fpt, T, dt / 2.0)))
    for read, traj in ((lambda: ref, ref), (lambda: rk4_stream(u, kernel, fpt, T, dt / 2.0), half)):
        if refused(traj):
            # every streamed check meets the refusal of the run
            assert outcome(lambda: mm_residual(read(), kernel, fpt)) == traj
            assert outcome(lambda: frequency_gaps(read(), kernel, fpt)) == traj
            continue
        want_mm = outcome(lambda: oracles.mm_residual(traj, kernel, fpt))
        assert close(outcome(lambda: astuple(mm_residual(read(), kernel, fpt))), want_mm, rates)
        want_rep = None
        if kernel.is_dirac:
            want_rep = outcome(lambda: oracles.replicator_check(traj, fpt))
            assert close(outcome(lambda: astuple(replicator_check(read(), kernel, fpt))), want_rep, rates)
        want = want_mm if refused(want_mm) else (want_rep and want_rep[0], want_mm[0])
        assert close(outcome(lambda: frequency_gaps(read(), kernel, fpt)), want, rates)


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 8),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    n_nodes=st.integers(2, 40),
    last_step=st.sampled_from([1.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_gaps_are_the_per_node_gaps_to_round_off(space_kind, n, kernel_kind, n_nodes, last_step, seed):
    # the class identity and the frequency gaps, read in blocks of 1, 2, 3,
    # 16 and all nodes, against the oracles' per-node loops: within
    # ROUND_OFF max(1, S), the node counts exact, whatever the blocks
    rng = np.random.default_rng(seed)
    sp, kernel, fp, u = random_problem(rng, space_kind, n, kernel_kind)
    dt = float(rng.uniform(0.005, 0.05))
    traj = outcome(lambda: rk4_integrate(u, kernel, fp, (n_nodes - 2 + last_step) * dt, dt))
    if refused(traj):
        return
    fpt = fp.truncated(traj.meta["k_tilde"])
    rates = rate_scale(traj, fpt)
    identity = oracles.class_identity_gap(traj, kernel, fpt)
    mm, count = oracles.mm_residual(traj, kernel, fpt)
    want = [mm, oracles.replicator_check(traj, fpt)[0]] if kernel.is_dirac else [mm]
    gaps = _class_identity(kernel, fpt)
    for size in (1, 2, 3, 16, traj.n_nodes):
        got = max(gaps(W, W.sum(axis=1)).max() for W in node_blocks(traj.weights, size))
        assert abs(got - identity) <= ROUND_OFF
        got, checked = _central_difference_gap(traj.times, _frequency_blocks(traj.weights, traj.times, size),
                                                _frequency_rows(kernel, fpt))
        assert close((*got, checked), (*want, count), rates)


def test_a_stream_read_to_the_end_has_no_node_left():
    sp, kernel, fp, u = reference_components(cells=8)
    run = rk4_stream(u, kernel, fp, 0.1, 0.03)
    assert np.array_equal(run.run_to_end().weights, rk4_integrate(u, kernel, fp, 0.1, 0.03).final.weights)
    with pytest.raises(ValueError, match="no node left"):
        run.run_to_end()
    with pytest.raises(ValueError, match="no node left"):
        NodeStream(sp, np.array([0.0]), iter(()), {}).run_to_end()
