import math

import numpy as np
import pytest
from _oracles import same_bits
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from test_engine_rates_rng import fresh_draw_tables
from test_engine_threaded import recorded_pass_draws

from dpsgd.engine import (
    DelayModel,
    ProblemSpec,
    RunConfig,
    build_oracle,
    draw_indices,
    run_with_oracle,
    substream,
)
from dpsgd.engine import sim
from dpsgd.core import UpdateVector
from dpsgd.engine.master import Master
from dpsgd.engine.rng import ROLE_DELAY, ROLE_ENV, ROLE_SAMPLE
from dpsgd.engine.sim import run_simulated
from dpsgd.errors import ConfigurationError, NumericFaultError, TransportError
from dpsgd.hsa2c import ToyEnv, hsa2c_config, run_hsa2c


def quad_config(**overrides):
    base = dict(
        T=50,
        M=1,
        nW=1,
        p=1,
        B=1,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=123,
        problem=ProblemSpec(name="quadratic", n=60, dim=8, data_seed=9),
        execution="simulated",
    )
    base.update(overrides)
    return RunConfig(**base)


def serial_reference(cfg, oracle, T):
    # straight-line serial SGD: one worker, one thread, one step per pass,
    # pass t based on version t
    v = np.zeros(oracle.dim)
    rho = cfg.resolve_rho()
    for t in range(T):
        rng = substream(cfg.seed, ROLE_SAMPLE, 0, 0, t)
        i = draw_indices(rng, oracle.n, cfg.problem.batch_size)
        g = oracle.grad_at(i, v)
        delta = -cfg.eta * np.asarray(g)
        v = v + rho(t) * delta
    return v


def lockstep_reference(cfg, oracle, T):
    # zero-delay async run with nW == M: every worker's pass t is based on
    # version t and batches combine in worker order
    v = np.zeros(oracle.dim)
    rho = cfg.resolve_rho()
    for t in range(T):
        total = np.zeros(oracle.dim)
        for w in range(cfg.nW):
            u = v.copy()
            for h in range(cfg.p):
                rng = substream(cfg.seed, ROLE_SAMPLE, w, h, t)
                for _ in range(cfg.B):
                    i = draw_indices(rng, oracle.n, cfg.problem.batch_size)
                    u -= cfg.eta * np.asarray(oracle.grad_at(i, u))
            total += u - v
        v = v + rho(t) * total
    return v


def test_serial_reduction_matches_reference_loop():
    cfg = quad_config(T=200)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    ref = serial_reference(cfg, oracle, cfg.T)
    assert np.max(np.abs(res.final.values - ref)) <= 1e-12
    assert res.version == cfg.T


def test_two_worker_lockstep_matches_reference_loop():
    cfg = quad_config(T=120, nW=2, M=2)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    ref = lockstep_reference(cfg, oracle, cfg.T)
    assert np.max(np.abs(res.final.values - ref)) <= 1e-12


def test_local_threads_and_steps_reduce_serially_in_sim():
    cfg = quad_config(T=40, p=3, B=4)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    ref = lockstep_reference(cfg, oracle, cfg.T)
    assert np.max(np.abs(res.final.values - ref)) <= 1e-12


def test_replayability_bit_identical():
    cfg = quad_config(
        T=30,
        nW=3,
        M=2,
        p=2,
        B=2,
        compute_cost_s=1e-3,
        delay=DelayModel(kind="uniform", low=0.0, high=5e-3),
    )
    a = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    b = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    assert np.array_equal(a.final.values, b.final.values)
    assert a.metrics.identical(b.metrics)
    assert a.counters == b.counters
    assert a.applied_staleness_hist == b.applied_staleness_hist


def test_message_and_eval_counters_are_exact():
    for B in (1, 10):
        cfg = quad_config(T=25, nW=2, M=2, p=2, B=B)
        res = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
        assert res.counters.pushes_applied == cfg.T * cfg.M
        assert res.counters.pushes_received == cfg.T * cfg.M
        assert res.counters.gradient_evals_applied == cfg.T * cfg.M * cfg.p * B


def test_zero_cost_with_transit_delay_is_rejected():
    cfg = quad_config(delay=DelayModel(kind="uniform", low=0.0, high=1e-3))
    with pytest.raises(ConfigurationError, match="compute_cost_s"):
        run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))


def staleness_run(policy, seed, d_prime=2):
    cfg = quad_config(
        T=40,
        nW=4,
        M=2,
        seed=seed,
        compute_cost_s=1e-3,
        delay=DelayModel(
            kind="uniform",
            low=0.0,
            high=8e-3,
            d_prime_bound=d_prime,
            enforce=policy,
        ),
    )
    return run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))


def test_staleness_off_counts_violations():
    res = staleness_run("off", seed=5, d_prime=0)
    assert res.counters.stale_applied_violations > 0
    assert res.counters.pushes_dropped_stale == 0


def test_staleness_drop_bounds_applied_staleness():
    drops = 0
    for seed in range(6):
        res = staleness_run("drop", seed=seed)
        assert max(res.applied_staleness_hist) <= 2
        assert res.counters.stale_applied_violations == 0
        drops += res.counters.pushes_dropped_stale
        assert res.counters.pushes_applied == res.counters.pushes_received - res.counters.pushes_dropped_stale
    assert drops > 0


def test_staleness_block_bounds_without_dropping():
    res = staleness_run("block", seed=11, d_prime=2)
    assert max(res.applied_staleness_hist) <= 2
    assert res.counters.pushes_dropped_stale == 0
    assert res.counters.stale_applied_violations == 0
    assert res.version == 40


def test_metrics_series_shape_and_sampling():
    cfg = quad_config(T=30, grad_norm_every=10)
    res = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    assert len(res.metrics) == 30
    gn = res.metrics.column("grad_norm_sq")
    sampled = ~np.isnan(gn)
    assert sampled.sum() == 3  # t = 0, 10, 20
    assert np.isfinite(res.metrics.column("model_norm")).all()


def test_rho_schedule_power_decays():
    cfg = quad_config(rho_schedule={"kind": "power", "tau0": 10.0, "kappa": 0.5})
    fn = cfg.resolve_rho()
    assert fn(0) == pytest.approx(10 ** -0.5)
    assert fn(90) == pytest.approx(0.1)


def test_delta_is_minus_eta_times_gradient_sum():
    # with one pass on a fixed model, the pushed delta telescopes to the
    # negative eta-scaled sum of the gradients the pass computed
    cfg = quad_config(T=1, B=3)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    rng = substream(cfg.seed, ROLE_SAMPLE, 0, 0, 0)
    u = np.zeros(oracle.dim)
    for _ in range(3):
        i = draw_indices(rng, oracle.n, 1)
        u -= cfg.eta * oracle.grad_at(i, u)
    expected = 0.5 * u  # rho * delta on a zero initial model
    assert np.allclose(res.final.values, expected, atol=1e-15)


class PerPass:
    """An oracle seen without grad_stack: the engine runs pass by pass."""

    def __init__(self, oracle):
        self._oracle = oracle

    def __getattr__(self, name):
        if name == "grad_stack":
            raise AttributeError(name)
        return getattr(self._oracle, name)


def assert_same_run(a, b):
    assert np.array_equal(a.final.values, b.final.values)
    assert a.metrics.identical(b.metrics)
    assert a.counters == b.counters
    assert a.applied_staleness_hist == b.applied_staleness_hist
    assert a.received_staleness_hist == b.received_staleness_hist


def _uniform(enforce, bound, kind="uniform", **extra):
    return DelayModel(kind=kind, low=0.0, high=5e-3, d_prime_bound=bound,
                      enforce=enforce, **extra)


STACKED_CONFIGS = {
    "drop": dict(T=60, nW=4, M=2, p=2, B=2, delay=_uniform("drop", 2)),
    "block": dict(T=60, nW=3, M=2, p=3, B=3, delay=_uniform("block", 2)),
    "seeded-jitter": dict(T=60, nW=4, M=2, p=3, B=3,
                          delay=_uniform("off", None, kind="seeded-jitter",
                                         jitter=2e-3)),
    "nW32": dict(T=40, nW=32, M=4, p=2, B=2, delay=_uniform("off", None)),
}


@pytest.mark.parametrize("name", sorted(STACKED_CONFIGS))
@pytest.mark.parametrize("problem", ["quadratic", "sigmoid"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_stacked_passes_match_pass_by_pass(name, problem, batch_size):
    cfg = quad_config(
        seed=17, compute_cost_s=1e-3, grad_norm_every=5,
        problem=ProblemSpec(name=problem, n=50, dim=6, batch_size=batch_size,
                            data_seed=4),
        **STACKED_CONFIGS[name],
    )
    oracle = build_oracle(cfg.problem, cfg.seed)
    init = np.random.default_rng(3).normal(size=oracle.dim)
    stacked = run_with_oracle(cfg, oracle, init)
    assert_same_run(stacked, run_with_oracle(cfg, PerPass(oracle), init))
    # more than one pass starts from some version, so groups really stack
    assert stacked.counters.pulls_served > cfg.T


@pytest.mark.parametrize("per_pass", [False, True])
def test_every_pulled_pass_is_computed_once_in_pull_order(monkeypatch,
                                                          per_pass):
    # a pull draws its pass's delay doubles at once; the pass's sample
    # indices are drawn when it is computed. Stateful oracles rely on
    # passes being computed in pull order.
    calls = recorded_pass_draws(monkeypatch)
    cfg = quad_config(T=40, nW=4, M=2, p=2, B=2, compute_cost_s=1e-3,
                      delay=_uniform("drop", 2))
    oracle = build_oracle(cfg.problem, cfg.seed)
    run_with_oracle(cfg, PerPass(oracle) if per_pass else oracle)
    pulled = [keys for role, keys in calls if role == ROLE_DELAY]
    computed = [(w, c) for role, (w, h, c) in
                ((r, k) for r, k in calls if r == ROLE_SAMPLE) if h == 0]
    assert computed == pulled
    assert len(set(pulled)) == len(pulled) > cfg.T


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**40), w=st.integers(0, 40) | st.integers(0, 2**33),
       c=st.integers(0, 600) | st.integers(0, 2**33),
       low=st.floats(0.0, 1.0), span=st.floats(0.0, 1.0),
       jitter=st.floats(0.0, 1.0),
       kind=st.sampled_from(["uniform", "seeded-jitter"]))
def test_pass_delays_equal_generator_uniform_draws(seed, w, c, low, span,
                                                   jitter, kind):
    # the sampler scales the stream's doubles as Generator.uniform does:
    # the transit from the first, seeded-jitter's extra time from the second
    cfg = quad_config(seed=seed, compute_cost_s=1e-3, delay=DelayModel(
        kind=kind, low=low, high=low + span, jitter=jitter))
    stream = substream(seed, ROLE_DELAY, w, c)
    transit = float(stream.uniform(low, low + span))
    extra = float(stream.uniform(0.0, jitter)) if kind == "seeded-jitter" else 0.0
    assert sim.pass_delays(cfg, w, c) == (extra, transit)


class CountingOracle:
    """Counts the engine's calls into an oracle: grad_at, grad_stack and
    the unchecked kernel _grad_stack that the engine calls on a built-in
    oracle. The kernel is counted here because __getattr__ would forward
    it uncounted."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.grad_at_calls = 0
        self.grad_stack_calls = 0
        self.kernel_calls = 0

    def grad_at(self, i, x):
        self.grad_at_calls += 1
        return self._oracle.grad_at(i, x)

    def grad_stack(self, idx, X):
        self.grad_stack_calls += 1
        return self._oracle.grad_stack(idx, X)

    def _grad_stack(self, idx, X):
        self.kernel_calls += 1
        return self._oracle._grad_stack(idx, X)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def sim_sigmoid_shape(T=200):
    # the benchmark's sim-sigmoid config
    return RunConfig(
        T=T, M=2, nW=4, p=2, B=2, eta=0.05,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=1,
        problem=ProblemSpec(name="sigmoid", n=2000, dim=20, batch_size=4),
        execution="simulated",
        compute_cost_s=1e-3,
        delay=DelayModel(kind="uniform", low=0.0, high=4e-3,
                         d_prime_bound=4, enforce="drop"),
        grad_norm_every=10,
    )


def recorded_bases(monkeypatch) -> set[int]:
    """The base version of every pass the simulator computes."""
    bases = set()
    compute = sim._Stepper.compute

    def recording(stepper):
        bases.update(push.base_version for push in stepper.deferred)
        compute(stepper)

    monkeypatch.setattr(sim._Stepper, "compute", recording)
    return bases


def test_stacked_oracle_call_budget(monkeypatch):
    # counts only, never time
    bases = recorded_bases(monkeypatch)
    cfg = sim_sigmoid_shape()
    oracle = CountingOracle(build_oracle(cfg.problem, cfg.seed))
    res = run_with_oracle(cfg, oracle)
    steps = cfg.p * cfg.B
    # the engine steps through the unchecked kernel, never the checked
    # grad_stack, one kernel call per local step of a whole group
    assert oracle.grad_at_calls == oracle.grad_stack_calls == 0
    assert 0 < oracle.kernel_calls <= steps * res.version
    assert oracle.kernel_calls % steps == 0
    # one stacked call per local step serves every pass of its group
    assert res.counters.gradient_evals_computed > oracle.kernel_calls
    # and stacks span base versions: one stack per version would take more
    assert oracle.kernel_calls < steps * len(bases)


def test_engine_checks_each_groups_index_block_once(monkeypatch):
    # counts only, never time
    checks = []
    check_block = sim._check_block

    def recording(idx, X, n, dim):
        checks.append((idx.shape, X.shape, n, dim))
        return check_block(idx, X, n, dim)

    monkeypatch.setattr(sim, "_check_block", recording)
    cfg = sim_sigmoid_shape()
    oracle = CountingOracle(build_oracle(cfg.problem, cfg.seed))
    res = run_with_oracle(cfg, oracle)
    steps = cfg.p * cfg.B
    # one check per group, of all p * B * batch_size draws of every pass
    assert len(checks) * steps == oracle.kernel_calls
    for (K, draws), X_shape, n, dim in checks:
        assert draws == steps * cfg.problem.batch_size
        assert X_shape == (K, oracle.dim) and (n, dim) == (oracle.n, oracle.dim)
    computed = sum(idx_shape[0] for idx_shape, *_ in checks)
    assert res.version * cfg.M <= computed <= res.counters.pulls_served
    assert computed > len(checks)  # groups really stack
    # the check is grad_stack's, with its message
    with pytest.raises(ConfigurationError,
                       match=r"grad_stack needs idx\[K, size\] and X\[K, 20\]"):
        run_simulated(cfg, oracle, np.zeros(oracle.dim + 1))


def test_pass_by_pass_oracle_call_budget(monkeypatch):
    # the benchmark's sim-sigmoid shape seen without grad_stack: every
    # computed pass makes exactly p * B grad_at calls; counts only, never
    # time
    calls = recorded_pass_draws(monkeypatch)
    cfg = sim_sigmoid_shape()
    oracle = CountingOracle(build_oracle(cfg.problem, cfg.seed))
    res = run_with_oracle(cfg, PerPass(oracle))
    computed = [(w, c) for role, (w, h, c) in
                ((r, k) for r, k in calls if r == ROLE_SAMPLE) if h == 0]
    assert len(set(computed)) == len(computed) >= res.version * cfg.M
    assert oracle.grad_stack_calls == oracle.kernel_calls == 0
    assert oracle.grad_at_calls == cfg.p * cfg.B * len(computed)


def recorded_seed_sequences(monkeypatch):
    """The entropy of every SeedSequence that substream builds."""
    built = []
    seed_sequence = np.random.SeedSequence

    def recording(entropy):
        built.append(list(entropy))
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    return built


def recorded_generators(monkeypatch):
    """The bit generator of every Generator that substream builds."""
    built = []
    generator = np.random.Generator

    def recording(bit_generator):
        built.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", recording)
    return built


def test_pass_stream_key_budget(monkeypatch):
    # the benchmark's sim-sigmoid shape, long enough to cross chunks:
    # counts only, never time
    built = recorded_seed_sequences(monkeypatch)
    generators = recorded_generators(monkeypatch)
    tables = fresh_draw_tables(monkeypatch)
    calls = recorded_pass_draws(monkeypatch)
    cfg = RunConfig(
        T=600, M=2, nW=4, p=2, B=2, eta=0.05,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=1,
        problem=ProblemSpec(name="sigmoid", n=2000, dim=20, batch_size=4),
        execution="simulated",
        compute_cost_s=1e-3,
        delay=DelayModel(kind="uniform", low=0.0, high=4e-3,
                         d_prime_bound=4, enforce="drop"),
        grad_norm_every=10,
    )
    run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    assert not [e for e in built if e[1] in (ROLE_SAMPLE, ROLE_DELAY)]
    # no sample or delay stream builds a generator: every pass reads
    # its draw table
    assert not [g for g in generators
                if g.seed_seq.entropy[1] in (ROLE_SAMPLE, ROLE_DELAY)]
    passes = {}
    for role, (*prefix, c) in calls:
        passes.setdefault((cfg.seed, role, *prefix), set()).add(c)
    assert all(c == set(range(len(c))) for c in passes.values())
    assert max(len(c) for c in passes.values()) > 256
    chunks = {prefix: math.ceil(len(c) / 256) for prefix, c in passes.items()}
    # exactly one draw table per prefix and chunk
    assert sorted(tables) == sorted(
        (prefix, chunk) for prefix, n in chunks.items() for chunk in range(n))


def test_episode_streams_stay_off_the_key_table(monkeypatch):
    # an episode index is random in [0, 2**31): one chunk per episode
    # would cost far more than the SeedSequence it saves
    built = recorded_seed_sequences(monkeypatch)
    tables = fresh_draw_tables(monkeypatch)
    env = ToyEnv(side=3)
    cfg = hsa2c_config(env, m=1, T=4, seed=5)
    run_hsa2c(cfg, env)
    assert sum(e[1] == ROLE_ENV for e in built) >= cfg.T
    assert {prefix[1] for prefix, _ in tables} == {ROLE_SAMPLE}
    assert all(chunk == 0 for _, chunk in tables)


class FaultAtCall(PerPass):
    """An oracle without grad_stack whose call-th grad_at returns inf or
    NaN in one dimension."""

    def __init__(self, oracle, call, dim, value):
        super().__init__(oracle)
        self.fault = (call, dim, value)
        self.calls = 0

    def grad_at(self, i, x):
        self.calls += 1
        g = self._oracle.grad_at(i, x)
        call, dim, value = self.fault
        if self.calls == call:
            g[dim] = value
        return g


def test_numeric_fault_in_a_deferred_pass_names_the_same_call():
    # passes run at the apply that leaves their base version, but in pull
    # order, so the faulting call and its message are those of running
    # each pass at its pull
    cfg = quad_config(T=60, nW=4, M=2, p=2, B=3, compute_cost_s=1e-3,
                      delay=_uniform("drop", 2))
    oracle = FaultAtCall(build_oracle(cfg.problem, cfg.seed), 101, 3,
                         float("nan"))
    with pytest.raises(NumericFaultError,
                       match=r"value \S*nan\S* in local gradient at dimension 3$"):
        run_with_oracle(cfg, oracle)
    assert oracle.calls == 101


def poisoned(problem, cells):
    """A built-in oracle whose listed (component, dim) cells are non-finite."""
    spec = ProblemSpec(name=problem, n=50, dim=6, batch_size=2, data_seed=4)
    oracle = build_oracle(spec, 0)
    data = oracle.centers if problem == "quadratic" else oracle.features
    for (i, d), value in cells.items():
        data[i, d] = value
    return spec, oracle


@pytest.mark.parametrize("problem", ["quadratic", "sigmoid"])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_numeric_fault_matches_pass_by_pass(problem, seed):
    # three poisoned components, one value each, so the message tells
    # which pass failed first
    spec, oracle = poisoned(problem, {(7, 1): float("nan"),
                                      (19, 4): float("inf"),
                                      (33, 2): -float("inf")})
    cfg = quad_config(T=60, nW=4, M=2, p=2, B=2, seed=seed, problem=spec,
                      compute_cost_s=1e-3, delay=_uniform("drop", 2))
    with pytest.raises(NumericFaultError) as per_pass:
        run_with_oracle(cfg, PerPass(oracle))
    with pytest.raises(NumericFaultError) as stacked:
        run_with_oracle(cfg, oracle)
    assert str(stacked.value) == str(per_pass.value)
    assert "local gradient" in str(stacked.value)


# the messages these runs raised while numpy still warned on the way
POISONED_FAULTS = {
    ("quadratic", 0): ("inf", 2),
    ("quadratic", 1): ("nan", 1),
    ("sigmoid", 0): ("nan", 2),
    ("sigmoid", 1): ("nan", 0),
}


@pytest.mark.parametrize("problem, seed", sorted(POISONED_FAULTS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_numeric_fault_raises_no_numpy_warning(problem, seed):
    # numpy's invalid-value and overflow warnings would leave the run as
    # errors here, ahead of the engine's own
    spec, oracle = poisoned(problem, {(7, 1): float("nan"),
                                      (19, 4): float("inf"),
                                      (33, 2): -float("inf")})
    cfg = quad_config(T=60, nW=4, M=2, p=2, B=2, seed=seed, problem=spec,
                      compute_cost_s=1e-3, delay=_uniform("drop", 2))
    value, dim = POISONED_FAULTS[problem, seed]
    with pytest.raises(NumericFaultError, match=(
            rf"^non-finite value \S*{value}\S* in local gradient "
            rf"at dimension {dim}$")):
        run_with_oracle(cfg, oracle)


class LossError(Exception):
    pass


class FaultAtBase:
    """A built-in oracle whose gradient at the model of version
    fault_version, the first local step of every pass based on it, is NaN
    in dimension 0, in grad_at and in the stacked kernel alike. loss_at
    raises LossError at the model of raise_version. With grad_norm_every=1
    loss_at sees every version's model."""

    def __init__(self, oracle, init, fault_version, raise_version=None):
        self._oracle = oracle
        self.models = [init]  # models[k] is the model of version k
        self.fault_version, self.raise_version = fault_version, raise_version

    def _poison(self, X, G):
        if self.fault_version < len(self.models):
            G[(X == self.models[self.fault_version]).all(axis=1), 0] = np.nan
        return G

    def grad_at(self, i, x):
        return self._poison(np.array(x, ndmin=2),
                            self._oracle.grad_at(i, x)[None, :])[0]

    def grad_stack(self, idx, X):
        return self._poison(X, self._oracle.grad_stack(idx, X))

    def _grad_stack(self, idx, X):
        return self._poison(X, self._oracle._grad_stack(idx, X))

    def loss_at(self, x):
        self.models.append(x)
        if len(self.models) - 1 == self.raise_version:
            raise LossError(f"loss at version {self.raise_version}")
        return self._oracle.loss_at(x)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def fault_at_base_run(cfg, stacked):
    """run(fault_version, raise_version) of cfg on a FaultAtBase oracle,
    from a zero model."""
    init = np.zeros(cfg.problem.dim)

    def run(fault_version, raise_version=None):
        oracle = FaultAtBase(build_oracle(cfg.problem, cfg.seed), init,
                             fault_version, raise_version)
        return run_simulated(cfg, oracle if stacked else PerPass(oracle),
                             init)

    return run


FAULT = r"nan\S* in local gradient at dimension 0$"


@pytest.mark.parametrize("stacked", [True, False])
def test_pass_fault_raises_before_an_apply_error(monkeypatch, stacked):
    # loss_at raises in the apply that leaves version t, and every pass
    # based on t faults. Computing each pass at its pull, they raise
    # first; here some of them are not yet computed when loss_at raises
    # (the raised fault then carries the LossError as its context), and
    # they must still raise first.
    cfg = quad_config(T=60, nW=4, M=2, p=2, B=2, compute_cost_s=1e-3,
                      delay=_uniform("drop", 2), grad_norm_every=1)
    run = fault_at_base_run(cfg, stacked)
    bases = recorded_bases(monkeypatch)
    run(cfg.T)  # no pass faults
    late = 0
    for t in range(cfg.T):
        if t not in bases:  # no pass is based on t
            with pytest.raises(LossError, match=f"loss at version {t + 1}$"):
                run(t, t + 1)
            continue
        with pytest.raises(NumericFaultError, match=FAULT) as fault:
            run(t, t + 1)
        late += isinstance(fault.value.__context__, LossError)
    assert late > 0


@pytest.mark.parametrize("stacked", [True, False])
def test_unapplied_pass_fault_on_the_last_version_raises(monkeypatch,
                                                         stacked):
    # passes based on version T - 1 are pulled but never applied: the
    # last apply takes a stale pass. A faulting one still raises.
    cfg = quad_config(T=30, nW=4, M=1, p=2, B=2, compute_cost_s=1e-3,
                      delay=_uniform("drop", 2), grad_norm_every=1)
    run = fault_at_base_run(cfg, stacked)
    bases = recorded_bases(monkeypatch)
    res = run(cfg.T)  # no pass faults
    assert cfg.T - 1 in bases
    assert res.metrics.column("batch_max_staleness")[-1] > 0
    with pytest.raises(NumericFaultError, match=FAULT):
        run(cfg.T - 1)


def test_pending_pass_fault_raises_before_starvation():
    # one worker cannot fill a batch of two under the block policy, so
    # the run starves; its one pass must still raise its own fault first
    cfg = quad_config(M=2, nW=1, delay=DelayModel(d_prime_bound=0,
                                                  enforce="block"))
    oracle = FaultAtCall(build_oracle(cfg.problem, cfg.seed), 1, 0,
                         float("inf"))
    with pytest.raises(NumericFaultError, match=r"inf\S* in local gradient"):
        run_simulated(cfg, oracle, np.zeros(oracle.dim))
    healthy = build_oracle(cfg.problem, cfg.seed)
    with pytest.raises(TransportError, match="starved"):
        run_simulated(cfg, healthy, np.zeros(healthy.dim))


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 40), elements=st.sampled_from(
    [0.0, -0.0, 1e-320, 1e200, -1e200, 1e308]) | st.floats(
        allow_nan=False, allow_infinity=False)))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_model_norm_is_bitwise_numpy_norm(x):
    # the master's model_norm column, for the model a zero delta leaves
    cfg = quad_config(problem=ProblemSpec(name="quadratic", n=5, dim=x.size))
    master = Master(cfg, object(), x)
    master.apply([UpdateVector(np.zeros(x.size), 0, 0)], 0.0)
    norm = master.metrics.column("model_norm")[0]
    assert same_bits(norm, np.linalg.norm(master.model.values))
