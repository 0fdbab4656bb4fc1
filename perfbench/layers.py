"""Which dpsgd functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every workload wraps the same set; a layer a workload does not use
records no spans and its metrics read 0. Only spans that start inside a
timed run call count, so set-up and output checks are left out.
"""
from __future__ import annotations

import bisect

import dpsgd.engine.rng as rng_mod
import dpsgd.engine.tcp as tcp_mod
import dpsgd.engine.threaded as threaded_mod
import dpsgd.engine.wire as wire_mod
import dpsgd.hsa2c.agent as agent_mod
import dpsgd.problems as problems_mod
import dpsgd.svi_lda.inference as inference_mod
from dpsgd.core import SharedSlab, apply_global_update
from dpsgd.engine import TcpMasterServer
from dpsgd.engine.threaded import InprocHub
from dpsgd.hsa2c import GridworldOracle
from dpsgd.svi_lda import LdaSviOracle

from tracing import Tracer

RUN_SPAN = "run"


def _substream_pass(args):
    # substream(seed, role, w, h, pass) for local SGD steps,
    # substream(seed, role, w, pass) for per-pass delays
    role, keys = args[1], args[2:]
    if role == rng_mod.ROLE_SAMPLE and len(keys) == 3:
        return (int(keys[0]), int(keys[2]))
    if role == rng_mod.ROLE_DELAY and len(keys) == 2:
        return (int(keys[0]), int(keys[1]))
    return None


def install(tracer: Tracer) -> None:
    """Wrap every traced function; tracer.restore() undoes it."""
    tracer.patch_function(rng_mod.substream, "rng.substream",
                          pass_of=_substream_pass)
    tracer.patch_function(apply_global_update, "params.apply_global_update",
                          ends_pass=True)
    for cls in (problems_mod.QuadraticOracle, problems_mod.SigmoidOracle):
        tracer.patch_method(cls, "grad_at", "problems.grad_at")
        tracer.patch_method(cls, "full_grad", "problems.full_grad",
                            ends_pass=True)
        tracer.patch_method(cls, "loss_at", "problems.loss_at",
                            ends_pass=True)
    tracer.patch_method(SharedSlab, "write_step", "slab.write_step")
    tracer.patch_method(SharedSlab, "read", "slab.read")
    tracer.patch_method(SharedSlab, "load", "slab.load")
    tracer.patch_function(threaded_mod.run_local_pass,
                          "threaded.run_local_pass",
                          pass_of=lambda a: (int(a[3]), int(a[4])),
                          opens_pass=True)
    tracer.patch_method(InprocHub, "pull", "threaded.pull")
    tracer.patch_method(InprocHub, "next_delivery", "threaded.next_delivery")
    tracer.patch_method(TcpMasterServer, "next_delivery", "tcp.next_delivery")
    tracer.patch_method(TcpMasterServer, "_serve_conn", "tcp.serve_conn")
    tracer.patch_function(tcp_mod.read_frame, "tcp.read_frame")
    tracer.patch_function(tcp_mod.send_frame, "tcp.send_frame",
                          note_of=lambda a, out: len(a[1]))
    tracer.patch_function(wire_mod.encode_model, "wire.encode_model")
    tracer.patch_function(wire_mod.encode_push, "wire.encode_push")
    tracer.patch_function(wire_mod.decode_payload, "wire.decode_payload")
    tracer.patch_method(LdaSviOracle, "grad_at", "svi.grad_at")
    tracer.patch_function(inference_mod.local_estep, "svi.local_estep",
                          note_of=lambda a, out: out.sweeps)
    tracer.patch_function(inference_mod.natural_gradient,
                          "svi.natural_gradient")
    tracer.patch_method(GridworldOracle, "grad_at", "a2c.grad_at")
    tracer.patch_function(agent_mod.rollout, "a2c.rollout",
                          note_of=lambda a, out: out.length)
    tracer.patch_function(agent_mod.kstep_returns, "a2c.kstep_returns")
    tracer.patch_function(agent_mod.ac_gradients, "a2c.ac_gradients")


def _mean_us(spans) -> float:
    return 1e6 * sum(s.dur for s in spans) / len(spans) if spans else 0.0


def _total(spans) -> float:
    return sum(s.dur for s in spans)


def call_counts(spans) -> dict[str, int]:
    """Exact call counts that a simulated run repeats bit for bit."""
    names = {s.sid: s.name for s in spans}
    grad = [s for s in spans if s.name == "problems.grad_at"
            and names.get(s.parent) != "problems.full_grad"]
    return {
        "rng.substream_calls": sum(s.name == "rng.substream" for s in spans),
        "problems.grad_at_calls": len(grad),
        "params.apply_calls": sum(
            s.name == "params.apply_global_update" for s in spans),
    }


def layer_metrics(tracer: Tracer, results, compute_cost_s: float,
                  B: int) -> dict[str, float]:
    """Per-layer metrics over the spans inside run calls.

    results are the RunResults of the traced run calls, in order.
    """
    runs = sorted((s for s in tracer.spans if s.name == RUN_SPAN),
                  key=lambda s: s.start)
    starts = [r.start for r in runs]

    def inside(span) -> bool:
        i = bisect.bisect_right(starts, span.start) - 1
        return i >= 0 and span.start <= runs[i].end

    spans = [s for s in tracer.spans if s.name != RUN_SPAN and inside(s)]
    names = {s.sid: s.name for s in tracer.spans}
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name):
        return by.get(name, [])

    iterations = sum(r.version for r in results)
    run_wall = _total(runs)
    counters = [r.counters for r in results]
    received = sum(c.pushes_received for c in counters)
    local_passes = get("threaded.run_local_pass")
    passes = len(local_passes) or sum(c.pulls_served for c in counters)
    grad = [s for s in get("problems.grad_at")
            if names.get(s.parent) != "problems.full_grad"]
    serve_ids = {s.sid for s in tracer.spans if s.name == "tcp.serve_conn"}
    steps = sum(s.note for s in get("a2c.rollout"))
    estep = get("svi.local_estep")
    sim_runs = [r for r, res in zip(runs, results) if res.mode == "simulated"]

    return {
        "sim.self_us_per_iter": (
            1e6 * sum(tracer.self_time(r) for r in sim_runs)
            / sum(res.version for res in results if res.mode == "simulated")
            if sim_runs else 0.0),
        "sim.drop_frac": (sum(c.pushes_dropped_stale for c in counters)
                          / received if received else 0.0),
        "rng.substream_calls_per_pass": (len(get("rng.substream")) / passes
                                         if passes else 0.0),
        "rng.substream_us": _mean_us(get("rng.substream")),
        "problems.grad_at_us": _mean_us(grad),
        "problems.sample_us_per_iter": (
            1e6 * (_total(get("problems.full_grad"))
                   + _total(get("problems.loss_at"))) / iterations),
        "params.apply_us": _mean_us(get("params.apply_global_update")),
        "slab.write_step_us": _mean_us(get("slab.write_step")),
        "slab.read_us": _mean_us(get("slab.read")),
        "slab.load_us": _mean_us(get("slab.load")),
        "threaded.pass_overhead_us": (
            _mean_us(local_passes) - 1e6 * B * compute_cost_s
            if local_passes else 0.0),
        "threaded.master_wait_frac": (
            _total(get("threaded.next_delivery")) / run_wall),
        "threaded.pull_us": _mean_us(get("threaded.pull")),
        "wire.encode_model_us": _mean_us(get("wire.encode_model")),
        "wire.encode_push_us": _mean_us(get("wire.encode_push")),
        "wire.decode_us": _mean_us(get("wire.decode_payload")),
        "tcp.read_frame_us": _mean_us(
            [s for s in get("tcp.read_frame") if s.parent in serve_ids]),
        "tcp.send_frame_us": _mean_us(
            [s for s in get("tcp.send_frame") if s.parent in serve_ids]),
        "tcp.master_wait_frac": _total(get("tcp.next_delivery")) / run_wall,
        "tcp.bytes_per_iter": (sum(s.note for s in get("tcp.send_frame"))
                               / iterations),
        "tcp.malformed_frames": float(sum(c.malformed_frames
                                          for c in counters)),
        "svi.estep_us_per_doc": _mean_us(estep),
        "svi.estep_sweeps_per_doc": (sum(s.note for s in estep) / len(estep)
                                     if estep else 0.0),
        "svi.natgrad_us": _mean_us(get("svi.natural_gradient")),
        "a2c.rollout_us_per_step": (
            1e6 * _total(get("a2c.rollout")) / steps if steps else 0.0),
        "a2c.grad_us_per_step": (
            1e6 * (_total(get("a2c.kstep_returns"))
                   + _total(get("a2c.ac_gradients"))) / steps
            if steps else 0.0),
    }
