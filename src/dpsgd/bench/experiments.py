"""Sweep orchestration, time-speedup ratios, and convergence-slope fits."""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..engine import RunConfig, rescale_rate, run
from ..engine.config import build_section, load_json_object
from ..errors import ConfigurationError, DpsgdError
from .metrics import SUMMARY_SCHEMA, emit_run, write_summary_json

# least-squares slope fits need this many sweep points covering at
# least two decades of work to say anything about a rate exponent
MIN_SLOPE_POINTS = 3
MIN_SLOPE_SPAN = 100.0


def tsp(reference_time_s: float, candidate_time_s: float) -> float:
    """Time speedup: how many times faster the candidate reached the
    same quality target as the reference."""
    if reference_time_s <= 0 or candidate_time_s <= 0:
        raise ConfigurationError(
            f"times must be positive, got {reference_time_s} "
            f"and {candidate_time_s}"
        )
    return reference_time_s / candidate_time_s


def convergence_slope(work, grad_norm_sq) -> tuple[float, float]:
    """Log-log slope of mean squared gradient norm against total work.

    work is T * M * Btilde per sweep point. Returns (slope, r_squared);
    a 1/sqrt(work) decay fits slope -0.5.
    """
    x = np.asarray(work, dtype=float)
    y = np.asarray(grad_norm_sq, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigurationError("work and grad_norm_sq must be 1-D and equal length")
    if x.shape[0] < MIN_SLOPE_POINTS:
        raise ConfigurationError(
            f"slope fit needs >= {MIN_SLOPE_POINTS} points, got {x.shape[0]}"
        )
    if (x <= 0).any() or (y <= 0).any():
        raise ConfigurationError("slope fit needs positive work and norms")
    if x.max() / x.min() < MIN_SLOPE_SPAN:
        raise ConfigurationError(
            f"work values span {x.max() / x.min():.3g}x; "
            f"need >= {MIN_SLOPE_SPAN:.0f}x"
        )
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(((ly - fit) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


@dataclass
class ExperimentSpec:
    """A sweep over engine shapes sharing one base configuration.

    The cartesian product of the three axes is run in order; the tuned
    rate of the base configuration is carried to each point with the
    fourth-root work-shape law when the schedule is a constant.
    """

    base: RunConfig
    nW_list: list[int] | None = None
    p_list: list[int] | None = None
    B_list: list[int] | None = None
    reference_index: int = 0
    name: str = "sweep"
    out_dir: str = "bench_out"

    def __post_init__(self) -> None:
        # an axis left unset inherits the base shape instead of silently
        # resetting that dimension to 1
        if self.nW_list is None:
            self.nW_list = [self.base.nW]
        if self.p_list is None:
            self.p_list = [self.base.p]
        if self.B_list is None:
            self.B_list = [self.base.B]

    def validate(self) -> None:
        self.base.validate()
        for label, axis in (("nW_list", self.nW_list),
                            ("p_list", self.p_list),
                            ("B_list", self.B_list)):
            if not axis:
                raise ConfigurationError(f"{label} must be nonempty")
            if any(v < 1 for v in axis):
                raise ConfigurationError(f"{label} entries must be >= 1")
        n_runs = len(self.nW_list) * len(self.p_list) * len(self.B_list)
        if not 0 <= self.reference_index < n_runs:
            raise ConfigurationError(
                f"reference_index {self.reference_index} outside the "
                f"{n_runs}-run sweep"
            )

    def points(self) -> list[RunConfig]:
        """Expanded sweep configurations with rates rescaled per shape."""
        self.validate()
        base_shape = (self.base.p, self.base.B, self.base.M)
        out = []
        for nW in self.nW_list:
            for p in self.p_list:
                for B in self.B_list:
                    cfg = replace(
                        self.base,
                        nW=nW,
                        p=p,
                        B=B,
                        rho_schedule=dict(self.base.rho_schedule),
                        delay=replace(self.base.delay),
                        problem=replace(self.base.problem),
                    )
                    sched = cfg.rho_schedule
                    if sched.get("kind") == "constant":
                        sched["value"] = rescale_rate(
                            sched["value"],
                            base_shape,
                            (cfg.p, cfg.B, cfg.M),
                        )
                    # not validated here: an infeasible point should fail
                    # inside run_experiment and be recorded, not abort the
                    # whole sweep during expansion
                    out.append(cfg)
        return out

    def to_dict(self) -> dict:
        return {**asdict(self), "base": self.base.to_dict()}

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentSpec":
        spec = build_section(ExperimentSpec, raw, "experiment")
        spec.validate()
        return spec

    @staticmethod
    def from_json_file(path) -> "ExperimentSpec":
        return ExperimentSpec.from_dict(
            load_json_object(path, "experiment spec"))


def _usable_norm(value) -> bool:
    return isinstance(value, (int, float)) and not math.isnan(value) and value > 0


def _slope_or_none(records) -> dict | None:
    pts = [
        (r["work"], r["mean_grad_norm_sq"])
        for r in records
        if r.get("error") is None and _usable_norm(r.get("mean_grad_norm_sq"))
    ]
    works = sorted({w for w, _ in pts})
    if len(works) < MIN_SLOPE_POINTS:
        return None
    try:
        slope, r2 = convergence_slope([w for w, _ in pts],
                                      [g for _, g in pts])
    except ConfigurationError:
        return None
    return {"slope": slope, "r_squared": r2}


def run_experiment(spec: ExperimentSpec, out_dir=None) -> dict:
    """Execute the sweep sequentially; one CSV per run plus a summary.

    A failing run is recorded in the summary and the sweep continues.
    """
    spec.validate()
    out_dir = spec.out_dir if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for i, cfg in enumerate(spec.points()):
        stem = f"{spec.name}_run{i:03d}_nW{cfg.nW}_p{cfg.p}_B{cfg.B}"
        record = {
            "index": i,
            "nW": cfg.nW,
            "p": cfg.p,
            "B": cfg.B,
            "rho_schedule": dict(cfg.rho_schedule),
            "work": cfg.T * cfg.M * cfg.Btilde,
            "error": None,
        }
        try:
            result = run(cfg)
        except DpsgdError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            records.append(record)
            continue
        emitted = emit_run(out_dir, stem, cfg, result)
        record.update(
            metrics_csv=f"{stem}_metrics.csv",
            summary_json=f"{stem}_summary.json",
            wall_clock_s=result.wall_clock_s,
            messages={
                "pushes_received": result.counters.pushes_received,
                "pulls_served": result.counters.pulls_served,
            },
            effective_gradients=result.counters.gradient_evals_applied,
            gradients_per_s=(
                result.counters.gradient_evals_applied / result.wall_clock_s
                if result.wall_clock_s > 0
                else None
            ),
            mean_grad_norm_sq=emitted["mean_grad_norm_sq"],
        )
        records.append(record)

    ref = records[spec.reference_index]
    ref_ok = ref["error"] is None
    for record in records:
        usable = (
            ref_ok
            and record["error"] is None
            and ref["wall_clock_s"] > 0
            and record["wall_clock_s"] > 0
        )
        record["tsp_vs_reference"] = (
            tsp(ref["wall_clock_s"], record["wall_clock_s"]) if usable else None
        )
        record["throughput_ratio_vs_reference"] = (
            record["gradients_per_s"] / ref["gradients_per_s"]
            if usable and ref["gradients_per_s"]
            else None
        )

    summary = {
        "schema": SUMMARY_SCHEMA,
        "experiment": spec.to_dict(),
        "runs": records,
        "slope_fit": _slope_or_none(records),
    }
    write_summary_json(os.path.join(out_dir, f"{spec.name}_summary.json"),
                       summary)
    return summary


def convergence_study(base: RunConfig, t_values, out_dir=None) -> dict:
    """Rerun one configuration across horizons and fit the decay slope.

    Constant rates are scaled by sqrt(T_base / T) so every point obeys
    the same constant-rate law; the theory-constant schedule already
    recomputes itself from the horizon.
    """
    base.validate()
    if base.grad_norm_every < 1:
        raise ConfigurationError(
            "convergence_study needs grad_norm_every >= 1 to sample norms"
        )
    kind = base.rho_schedule.get("kind")
    if kind not in ("constant", "theory-constant"):
        raise ConfigurationError(
            f"convergence_study supports constant or theory-constant "
            f"schedules, not {kind!r}"
        )
    rows = []
    for T in sorted(int(t) for t in t_values):
        sched = dict(base.rho_schedule)
        if kind == "constant":
            sched["value"] = sched["value"] * math.sqrt(base.T / T)
        cfg = replace(base, T=T, rho_schedule=sched)
        result = run(cfg)
        mean_gn = result.metrics.mean_sampled_grad_norm_sq()
        if math.isnan(mean_gn):
            raise ConfigurationError(
                f"no gradient-norm samples at T={T}; "
                f"is T below grad_norm_every={base.grad_norm_every}?"
            )
        rows.append(
            {
                "T": T,
                "work": T * cfg.M * cfg.Btilde,
                "rho_schedule": sched,
                "mean_grad_norm_sq": mean_gn,
                "wall_clock_s": result.wall_clock_s,
            }
        )
        if out_dir is not None:
            emit_run(out_dir, f"convergence_T{T}", cfg, result)
    slope, r2 = convergence_slope(
        [r["work"] for r in rows], [r["mean_grad_norm_sq"] for r in rows]
    )
    study = {"rows": rows, "slope": slope, "r_squared": r2}
    if out_dir is not None:
        write_summary_json(
            os.path.join(out_dir, "convergence_summary.json"), study
        )
    return study
