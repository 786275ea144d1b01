"""Every environment variable the package reads follows the environment.

All ``REPRO_*`` reads go through :func:`repro.exec.config.env` when they
are needed, so nothing keeps a stale value: each case sets one variable,
calls, deletes it and calls again, and checks that each call followed
the environment of its time.  Per-call variables are checked through
``sat()``, ``sat_batch()`` and ``SatService.submit`` from a client
thread; the plan-cache bound and the planner's settings are read when an
engine or a planner is made, so they are checked on the next one.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

import repro
from repro.engine import Engine
from repro.engine import batch as batch_mod
from repro.engine.batch import sat_batch
from repro.exec.config import ENV_VARS, PROFILE_ENV
from repro.obs.trace import TRACE_ENV, env_tracer
from repro.plan.planner import get_planner, set_planner
from repro.sat.api import sat
from repro.serve import SatRequest, SatService
from repro.serve import service as service_mod
from repro.shard import ShardRun
from repro.shard import executor as executor_mod

from ..helpers import make_image

IMG = make_image((64, 64), "8u32s", seed=0)

#: Per-call execution variables: (variable, value, resolved field,
#: field while set, field once deleted).
EXECUTION = [
    (ENV_VARS["sanitize"], "1", "sanitize", True, False),
    (ENV_VARS["bounds_check"], "1", "bounds_check", True, False),
    (ENV_VARS["backend"], "host", "backend", "host", "gpusim"),
    (ENV_VARS["device"], "V100", "device", "V100", "P100"),
    (ENV_VARS["autotune"], "1", "autotune", True, False),
    (PROFILE_ENV, "sanitized", "sanitize", True, False),
    (PROFILE_ENV, "autotuned", "autotune", True, False),
]

#: Sharding variables, read by ``sat()``: (variable, value, ``shard=``
#: argument, what the run shows while set, once deleted).
SHARDING = [
    (executor_mod.THRESHOLD_ENV, "1000", None,
     lambda run: isinstance(run, ShardRun), True, False),
    (executor_mod.TILE_ENV, "32x32", True,
     lambda run: run.report["n_tiles"], 4, 1),
    (executor_mod.DEVICES_ENV, "3xV100", True,
     lambda run: run.report["devices"], ["V100:0", "V100:1", "V100:2"],
     ["P100:0", "P100:1"]),
    (executor_mod.STREAMS_ENV, "1", True,
     lambda run: run.report["streams_per_device"], 1, 2),
    (executor_mod.PLACEMENT_ENV, "blockrow", True,
     lambda run: run.report["placement"], "blockrow", "roundrobin"),
]

#: Variables read when an engine or a planner is made: (variable, value,
#: the setting on the next one while set, once deleted).
CONSTRUCTION = [
    ("REPRO_ENGINE_MAX_PLANS", "7", 7, 256),
    ("REPRO_PLAN_CALIBRATION", "32", 32, 512),
    ("REPRO_PLAN_CACHE", "5", 5, 256),
]

ALL_VARIABLES = ({case[0] for case in EXECUTION} | {TRACE_ENV}
                 | {case[0] for case in SHARDING}
                 | {case[0] for case in CONSTRUCTION})


def test_every_variable_read_has_a_case():
    src = Path(repro.__file__).parent
    read = set()
    for path in src.rglob("*.py"):
        read.update(re.findall(r'"(REPRO_[A-Z_]+)"', path.read_text()))
    assert read == ALL_VARIABLES


@pytest.fixture
def clean_env(monkeypatch):
    """No ``REPRO_*`` variable set (CI legs set a profile)."""
    for var in ALL_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.fixture(scope="module")
def service():
    svc = SatService(workers=1)
    yield svc
    svc.close()


@pytest.fixture
def resolved(monkeypatch):
    """Configs resolved by the engine, the sharded executor and the
    service, in call order."""
    seen = []
    for mod in (batch_mod, executor_mod, service_mod):
        def wrap(*args, _real=mod.resolve_execution, **kwargs):
            seen.append(_real(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(mod, "resolve_execution", wrap)
    return seen


def _submit(svc: SatService, request: SatRequest):
    """Submit from a client thread; returns the response."""
    out = {}

    def client():
        out["response"] = svc.submit(request).result(timeout=120)

    t = threading.Thread(target=client, name="env-client")
    t.start()
    t.join(timeout=180)
    assert not t.is_alive()
    return out["response"]


def _call(entry: str, svc: SatService):
    if entry == "sat":
        return sat(IMG)
    if entry == "sat_batch":
        return sat_batch([IMG, IMG]).runs[0]
    return _submit(svc, SatRequest(IMG))


ENTRIES = ("sat", "sat_batch", "submit")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("var,value,field_,when_set,when_unset", EXECUTION)
def test_execution_variables(var, value, field_, when_set, when_unset, entry,
                             clean_env, resolved, service):
    for setting, want in ((value, when_set), (None, when_unset)):
        if setting is None:
            clean_env.delenv(var)
        else:
            clean_env.setenv(var, setting)
        resolved.clear()
        run = _call(entry, service)
        cfg = resolved[0]
        assert getattr(cfg, field_) == want
        if entry != "submit":
            assert (run.device, run.backend) == (cfg.device, cfg.backend)


@pytest.mark.parametrize("entry", ENTRIES)
def test_trace_variable(entry, clean_env, service):
    tracer = env_tracer()
    for setting, traced in (("1", True), (None, False)):
        if setting is None:
            clean_env.delenv(TRACE_ENV)
        else:
            clean_env.setenv(TRACE_ENV, setting)
        tracer.clear()
        _call(entry, service)
        assert (len(tracer.spans) > 0) == traced
    tracer.clear()


@pytest.mark.parametrize("var,value,shard,observe,when_set,when_unset",
                         SHARDING)
def test_sharding_variables(var, value, shard, observe, when_set, when_unset,
                            clean_env):
    for setting, want in ((value, when_set), (None, when_unset)):
        if setting is None:
            clean_env.delenv(var)
        else:
            clean_env.setenv(var, setting)
        assert observe(sat(IMG, shard=shard)) == want


@pytest.fixture
def fresh_planner():
    """Each ``set_planner(None)`` makes the next call build a planner."""
    previous = set_planner(None)
    yield
    set_planner(previous)


@pytest.mark.parametrize("var,value,when_set,when_unset", CONSTRUCTION)
def test_construction_variables(var, value, when_set, when_unset, clean_env,
                                fresh_planner):
    for setting, want in ((value, when_set), (None, when_unset)):
        if setting is None:
            clean_env.delenv(var)
        else:
            clean_env.setenv(var, setting)
        if var == "REPRO_ENGINE_MAX_PLANS":
            engine = Engine()
            sat_batch([IMG], engine=engine)
            svc = SatService(workers=1, start=False)
            assert engine.cache.max_plans == svc.engine.cache.max_plans == want
            svc.close()
        else:
            set_planner(None)
            sat(IMG, algorithm="auto")
            planner = get_planner()
            got = (planner.calibration if var == "REPRO_PLAN_CALIBRATION"
                   else planner.cache.max_size)
            assert got == want
