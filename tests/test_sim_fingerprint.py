"""Bit identity of simulated runs, gated in the test suite.

scripts/sim_fingerprint.py digests simulated runs on a fixed config set;
a change that must keep them bit for bit prints the same lines before
and after. Its eleven runs on the built-in oracles (_engine_runs) take
about a second, so they are checked here against the digests they had
when this test was written. So are one LDA run and the two short
gridworld runs, about a second more: the application oracles, which the
simulator steps pass by pass. The other LDA, corpus and gridworld lines
take several seconds more and stay a manual diff between two checkouts.
"""
import importlib.util
import sys
from pathlib import Path

from dpsgd.engine import run_with_oracle
from dpsgd.svi_lda import run_dpsvi

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sim_fingerprint.py"

ENGINE_LINES = """\
sim-sigmoid/seed1 final=57b2e748f6d9bb51 metrics=08c61aefdd48e7ea counters=e078f8a71b93b55c hists=bc2f97a347e9401c
sim-sigmoid/seed2 final=856279504a0dfdc8 metrics=865e6e003b9efdfb counters=20f7b384cbbb084b hists=15d21f0b796b0a32
sim-sigmoid/seed3 final=faa00946833403d3 metrics=3de95f7aec63eaa0 counters=5b57a3b249a75755 hists=62ec61117757e2af
test01 final=48d4811bab5d82f5 metrics=51019a3b15d25760 counters=e7e29534ce3c63a5 hists=e30b8dfbd0a4a3b7
test02a final=3218230cf4cc4f13 metrics=277859734692c672 counters=e7e29534ce3c63a5 hists=e30b8dfbd0a4a3b7
block-quadratic final=a4698d27f6140275 metrics=f6816819ac6ec7c5 counters=7231fb930baacd1c hists=5c072f0e099f6c2e
seeded-jitter final=c4bc0682a539ab55 metrics=5c0739608fe2bf21 counters=4ae4d37acc1bcb80 hists=707cf067fb48a737
off-violations final=bd40f3a7eb330291 metrics=122fc2af441cff22 counters=fb4b769ff8b68c0b hists=115fb6a4fc1713d2
wide-seed-chunks final=9d95005c576cfcd8 metrics=51889204fbd65051 counters=b52e88a3e7b40194 hists=2ae85fe88460155c
test05-serial final=19e387b6b0f53348 metrics=8c6d9daa417adffd counters=e7e29534ce3c63a5 hists=e30b8dfbd0a4a3b7
sigmoid-nW32 final=c2d17744d833a51f metrics=d6c2cc7ae4f62edf counters=dcd6e0d1f94b27d8 hists=11120d2759693596
""".splitlines()

APPLICATION_LINES = """\
apps-lda/seed1 final=beb88df78a6c0371 metrics=d1c197ce2bda087b counters=efd0940864622761 hists=528749cfe13c772e
gridworld/side3-tmax1 final=5766cdcffff8dbd7 metrics=b81b476c9f21a142 counters=871d1e39eb0186b0 hists=fbb1798ecf2d84fe episodes=eeff46784465e37a
gridworld/side3-tmax7 final=d3a848ee60e5376c metrics=2c393a7b08cb38e4 counters=871d1e39eb0186b0 hists=fbb1798ecf2d84fe episodes=30544493cd83a712
""".splitlines()


def load_script(monkeypatch):
    # the script puts perfbench/ on sys.path to import its workloads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("sim_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_runs_are_bit_identical_to_their_recorded_digests(monkeypatch):
    script = load_script(monkeypatch)
    lines = [script.fingerprint(name, run_with_oracle(cfg, oracle, init))
             for name, cfg, oracle, init in script._engine_runs()]
    assert lines == ENGINE_LINES


def test_application_runs_are_bit_identical_to_their_recorded_digests(
        monkeypatch):
    script = load_script(monkeypatch)
    ctx = script.WORKLOADS["apps"].setup(1)
    _, lda = run_dpsvi(ctx["lda_cfg"], ctx["model0"], ctx["train"])
    lines = [script.fingerprint("apps-lda/seed1", lda)]
    lines += [script.a2c_fingerprint(name, cfg, env)
              for name, cfg, env in script._gridworld_runs()
              if name.startswith("gridworld/side3")]
    assert lines == APPLICATION_LINES
