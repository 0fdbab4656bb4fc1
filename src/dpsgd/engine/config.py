"""Run configuration: dataclasses, JSON round-trip, validation.

Field names here are the JSON schema; configs on disk mirror them exactly.
"""
from __future__ import annotations

import functools
import inspect
import json
import typing
import warnings as _warnings
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Callable

from ..errors import ConfigurationError
from . import rates

DELAY_KINDS = ("none", "fixed", "uniform", "seeded-jitter")
ENFORCE_POLICIES = ("off", "drop", "block")
EXECUTION_MODES = ("simulated", "threaded")
COST_MODES = ("sleep",)
# each rho schedule kind's own fields, with their defaults
RHO_FIELDS = {
    "constant": {"value": 0.0},
    "power": {"tau0": 1.0, "kappa": 0.5},
    "theory-constant": {},
}


@dataclass
class DelayModel:
    """Injected transit delay for worker pushes, plus staleness policy.

    kind "none" delivers instantly; "fixed" adds a constant latency;
    "uniform" draws latency from [low, high); "seeded-jitter" additionally
    jitters each pass duration by a draw from [0, jitter). All draws come
    from a dedicated seeded stream (sim.pass_delays), so delays replay
    with the run seed. In every runtime a push's transit delays only its
    delivery to the master; the pushing worker starts its next pass at
    once. "seeded-jitter" is simulated-only (RunConfig.check_runtime).

    d_prime_bound is the staleness bound D'. Policy "drop" discards an
    update whose staleness at receipt exceeds D' (counted); "block" makes
    the master wait for stragglers so no applied update ever exceeds D'
    (preserves every update, sacrifices liveness if a worker stalls;
    simulated-only); "off" applies everything and only counts violations.
    """

    kind: str = "none"
    latency: float = 0.0
    low: float = 0.0
    high: float = 0.0
    jitter: float = 0.0
    d_prime_bound: int | None = None
    enforce: str = "off"

    def validate(self) -> None:
        if self.kind not in DELAY_KINDS:
            raise ConfigurationError(
                f"delay kind {self.kind!r} not in {DELAY_KINDS}"
            )
        if self.enforce not in ENFORCE_POLICIES:
            raise ConfigurationError(
                f"enforce policy {self.enforce!r} not in {ENFORCE_POLICIES}"
            )
        if self.latency < 0 or self.low < 0 or self.jitter < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.kind in ("uniform", "seeded-jitter") and self.high < self.low:
            # both draw the transit from [low, high) (sim.pass_delays)
            raise ConfigurationError(f"{self.kind} delay needs high >= low")
        if self.enforce != "off" and self.d_prime_bound is None:
            raise ConfigurationError(
                f"enforce={self.enforce!r} requires d_prime_bound"
            )
        if self.d_prime_bound is not None and self.d_prime_bound < 0:
            raise ConfigurationError("d_prime_bound must be >= 0")


@dataclass
class TheoryParams:
    """Problem constants the caller supplies for the rate law.

    None are estimated from data; runs that use the constant-rate law must
    provide them explicitly.
    """

    f0_minus_fstar: float
    L: float
    V: float
    alpha: float = 1.0
    mu: float = 0.5
    D: int = 0
    D_prime: int = 0

    def noise_scale(self) -> float:
        return rates.noise_scale_constant(self.L, self.V, self.alpha, self.mu)

    def validate(self) -> None:
        if self.f0_minus_fstar <= 0:
            raise ConfigurationError("f0_minus_fstar must be positive")
        if self.L <= 0 or self.V <= 0 or self.alpha <= 0:
            raise ConfigurationError("L, V, alpha must be positive")
        if not 0 < self.mu < 1:
            raise ConfigurationError("mu must lie in (0, 1)")
        if self.D < 0 or self.D_prime < 0:
            raise ConfigurationError("D and D_prime must be >= 0")


@dataclass
class ProblemSpec:
    """Which built-in objective to optimise and how to synthesise its data."""

    name: str = "quadratic"
    n: int = 100
    dim: int = 10
    batch_size: int = 1
    data_seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.n < 1 or self.dim < 1:
            raise ConfigurationError("problem needs n >= 1 and dim >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")

    def check_shape(self, n: int, dim: int) -> None:
        """ConfigurationError unless n and dim, those of the problem that
        runs, are this spec's; names the field that differs."""
        for key, actual in (("n", n), ("dim", dim)):
            if getattr(self, key) != actual:
                raise ConfigurationError(
                    f"problem.{key} is {getattr(self, key)} but the "
                    f"{self.name} problem has {key} {actual}")


@dataclass
class RunConfig:
    """Everything one engine run needs; JSON configs mirror these fields."""

    T: int = 100            # master iterations
    M: int = 1              # updates combined per master iteration
    nW: int = 1             # workers
    p: int = 1              # local threads per worker
    B: int = 1              # local steps per thread between push/pull
    eta: float = 0.05       # local step size
    rho_schedule: dict[str, Any] = field(
        default_factory=lambda: {"kind": "constant", "value": 0.1}
    )
    seed: int = 0
    delay: DelayModel = field(default_factory=DelayModel)
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    execution: str = "simulated"
    compute_cost_s: float = 0.0
    compute_cost_mode: str = "sleep"
    theory: TheoryParams | None = None
    grad_norm_every: int = 10
    trace_overwrites: bool = False

    @property
    def Btilde(self) -> int:
        return self.p * self.B

    def validate(self) -> None:
        for name in ("T", "M", "nW", "p", "B"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.eta <= 0:
            raise ConfigurationError("eta must be positive")
        if self.execution not in EXECUTION_MODES:
            raise ConfigurationError(
                f"execution {self.execution!r} not in {EXECUTION_MODES}"
            )
        if self.compute_cost_mode not in COST_MODES:
            raise ConfigurationError(
                f"compute_cost_mode {self.compute_cost_mode!r} not in {COST_MODES}"
            )
        if self.compute_cost_s < 0:
            raise ConfigurationError("compute_cost_s must be >= 0")
        if self.grad_norm_every < 0:
            raise ConfigurationError("grad_norm_every must be >= 0")
        self.delay.validate()
        if self.delay.enforce == "block":
            # A blocked worker holds exactly one unapplied push, so fewer
            # than M workers can never fill a batch, and more than
            # M * (D' + 1) can exceed the bound before the gate can act.
            bound = self.delay.d_prime_bound
            if self.nW < self.M:
                raise ConfigurationError(
                    "enforce='block' needs nW >= M to fill a batch"
                )
            if bound is not None and self.nW > self.M * (bound + 1):
                raise ConfigurationError(
                    "enforce='block' needs nW <= M * (d_prime_bound + 1)"
                )
        self.problem.validate()
        if self.theory is not None:
            self.theory.validate()
        self.resolve_rho()  # raises on malformed schedules

    def check_runtime(self, runtime: str) -> None:
        """Raise ConfigurationError unless runtime ("simulated", "threaded"
        or "tcp") can honour this config: the one list of what each
        runtime refuses, checked before a thread starts, a socket binds
        or a connection opens."""
        delay = self.delay
        if runtime != "simulated" and delay.enforce == "block":
            raise ConfigurationError(
                "enforce='block' is only available on execution='simulated'"
            )
        if runtime != "simulated" and delay.kind == "seeded-jitter":
            raise ConfigurationError(
                "delay kind 'seeded-jitter' is only available on "
                "execution='simulated'"
            )
        if runtime != "threaded" and self.trace_overwrites:
            raise ConfigurationError(
                f"overwrite tracing needs execution='threaded' (real slab "
                f"writers in one process), not the {runtime} runtime"
            )
        transit = delay.latency if delay.kind == "fixed" else delay.high
        if (runtime == "simulated" and delay.kind != "none" and transit > 0
                and self.compute_cost_s <= 0):
            raise ConfigurationError(
                "simulated transit delays need compute_cost_s > 0: a worker "
                "with zero-duration passes would send unboundedly many "
                "pushes per virtual instant"
            )

    def resolve_rho(self) -> Callable[[int], float]:
        """Turn the schedule spec into rho(t); validates as a side effect.

        A schedule takes only its kind's fields (RHO_FIELDS), each a JSON
        number."""
        sched = self.rho_schedule
        kind = sched.get("kind")
        if not isinstance(kind, str) or kind not in RHO_FIELDS:
            raise ConfigurationError(f"unknown rho schedule kind {kind!r}")
        args = dict(RHO_FIELDS[kind])
        for name, value in sched.items():
            if name == "kind":
                continue
            if name not in args:
                raise ConfigurationError(
                    f"unknown {kind} schedule fields: "
                    f"{sorted(sched.keys() - args.keys() - {'kind'})}")
            args[name] = _read(value, float, f"{kind} schedule", name)
        if kind == "constant":
            value = args["value"]
            if value <= 0:
                raise ConfigurationError("constant rho needs value > 0")
            return lambda t: value
        if kind == "power":
            tau0, kappa = args["tau0"], args["kappa"]
            if tau0 <= 0 or not 0.5 <= kappa <= 1.0:
                raise ConfigurationError(
                    "power schedule needs tau0 > 0 and kappa in [0.5, 1]"
                )
            return lambda t: (tau0 + t) ** (-kappa)
        if self.theory is None:
            raise ConfigurationError(
                "theory-constant schedule requires theory params"
            )
        value = rates.theory_constant_rate(
            self.theory.f0_minus_fstar,
            self.theory.noise_scale(),
            self.theory.alpha,
            self.T,
            self.M,
            self.Btilde,
        )
        return lambda t: value

    def theory_warnings(self) -> list[str]:
        """Advisory feasibility check; empty when theory params are absent."""
        if self.theory is None:
            return []
        rho0 = self.resolve_rho()(0)
        msgs = rates.feasibility_warnings(
            eta=self.eta,
            rho=rho0,
            L=self.theory.L,
            mu=self.theory.mu,
            D=self.theory.D,
            D_prime=self.theory.D_prime,
            M=self.M,
            Btilde=self.Btilde,
        )
        for m in msgs:
            _warnings.warn(m, stacklevel=2)
        return msgs

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        if self.theory is None:
            out.pop("theory")
        return out

    @staticmethod
    def from_dict(raw: dict[str, Any]) -> "RunConfig":
        cfg = build_section(RunConfig, raw, "config")
        cfg.validate()
        return cfg

    @staticmethod
    def from_json_file(path) -> "RunConfig":
        return RunConfig.from_dict(load_json_object(path))


def load_json_object(path, label: str = "config") -> dict[str, Any]:
    """The JSON object in file path; ConfigurationError if the file cannot
    be read, is not JSON or holds something else."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {label} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{label} {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{label} {path} must hold a JSON object")
    return raw


# the JSON name of each type a field may hold
_JSON_NAMES = {int: "integer", float: "number", str: "string",
               bool: "boolean", dict: "object"}


@functools.cache
def _fields(target) -> dict[str, tuple[Any, bool]]:
    """name -> (type, required) of each keyword argument of target, a
    dataclass or a class; the annotations are resolved once per target."""
    hints = typing.get_type_hints(
        target if is_dataclass(target) else target.__init__)
    return {name: (hints.get(name, Any), arg.default is arg.empty)
            for name, arg in inspect.signature(target).parameters.items()}


def _is(value, kind) -> bool:
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def _read(value, hint, label: str, name: str, optional: bool = False):
    """The JSON value of field name in section label, checked against
    hint; optional when hint is the X of an X | None."""
    if hint in _JSON_NAMES and _is(value, hint):  # the common case first
        return value
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if type(None) in args:  # X | None, written X first
        return None if value is None else _read(value, args[0], label, name,
                                                optional=True)
    if is_dataclass(hint):
        return build_section(hint, value, name)
    if origin in (list, tuple):
        if isinstance(value, (list, tuple)):
            kinds = args if origin is tuple else args * len(value)
            if len(value) == len(kinds) and all(map(_is, value, kinds)):
                return origin(value)
        what = f"a JSON list of {_JSON_NAMES[args[0]]}s"
    elif hint is Any or (hint is not origin and _is(value, origin)):
        return value  # Any, or a dict[...] holding a dict
    else:
        what = f"a JSON {_JSON_NAMES[origin]}"
    raise ConfigurationError(f"{label} {name} must be {what}"
                             f"{' or null' if optional else ''}, got {value!r}")


def read_section(target, data, label: str, supplied=()) -> dict[str, Any]:
    """The keyword arguments for target (a dataclass or a class) in the
    JSON object data, each of the JSON type target's annotation names: an
    int is not a bool or a float; a float may be an int, kept as given;
    X | None also takes null; list[X] and tuple[X, ...] take a JSON list,
    read as a list or a tuple; a dataclass is a section of its own, named
    by its field. The arguments in supplied come from the caller, not
    from data. ConfigurationError names the label and the field."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{label} section must be a JSON object, got {data!r}")
    fields = _fields(target)
    unknown = [k for k in data if k not in fields or k in supplied]
    if unknown:
        raise ConfigurationError(f"unknown {label} fields: {sorted(unknown)}")
    for name, (_, required) in fields.items():
        if required and name not in data and name not in supplied:
            raise ConfigurationError(f"{label} is missing field {name!r}")
    return {k: _read(v, fields[k][0], label, k) for k, v in data.items()}


def build_section(cls, data, label: str):
    """cls built from the config section data, read by read_section."""
    return cls(**read_section(cls, data, label))
