"""ExecutionConfig: env parsing, the resolution precedence chain, and
bit-identical behaviour across equivalent mode spellings."""

import dataclasses

import numpy as np
import pytest

from repro import sat, sat_batch
from repro.exec.config import (
    ENV_VARS,
    PROFILES,
    ExecutionConfig,
    env_flag,
    execution,
    get_default_config,
    resolve_execution,
    set_default_config,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Every execution env var unset unless a test sets it."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv("REPRO_EXEC_PROFILE", raising=False)


class TestEnvFlag:
    @pytest.mark.parametrize("raw", [
        "0", "false", "False", "FALSE", "no", "No", "off", "Off", "OFF",
        "", "  ", " 0 ", "\tfalse\n", " OFF ",
    ])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", True) is False

    @pytest.mark.parametrize("raw", [
        "1", "true", "TRUE", "yes", "on", "ON", " 1 ", "2", "anything",
    ])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_returns_default(self, monkeypatch, default):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default) is default


class TestConfigObject:
    def test_frozen(self):
        cfg = ExecutionConfig(sanitize=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sanitize = False

    def test_with_fields(self):
        cfg = ExecutionConfig(sanitize=True).with_fields(bounds_check=True)
        assert cfg.sanitize is True and cfg.bounds_check is True
        assert cfg.device is None

    def test_merged_over(self):
        top = ExecutionConfig(sanitize=False)
        bottom = ExecutionConfig(sanitize=True, bounds_check=True)
        merged = top.merged_over(bottom)
        assert merged.sanitize is False and merged.bounds_check is True

    def test_is_fully_resolved(self):
        assert not ExecutionConfig().is_fully_resolved
        assert resolve_execution().is_fully_resolved

    def test_hashable_cache_key(self):
        assert ExecutionConfig(sanitize=True) == ExecutionConfig(sanitize=True)
        assert hash(ExecutionConfig()) == hash(ExecutionConfig())

    def test_compat_key_requires_resolution(self):
        with pytest.raises(ValueError, match="fully resolved"):
            ExecutionConfig(sanitize=True).compat_key()

    def test_compat_key_round_trips_and_hashes(self):
        resolved = resolve_execution()
        key = resolved.compat_key()
        # ``autotune`` is excluded from the key by design (the planner's
        # decision is folded into the key instead), so the round-trip
        # recovers every field but that one.
        assert ExecutionConfig(**dict(key), autotune=resolved.autotune) \
            == resolved
        assert "autotune" not in dict(key)
        assert hash(key) == hash(resolved.compat_key())
        # Sorted (field, value) pairs: deterministic order.
        assert [k for k, _ in key] == sorted(k for k, _ in key)

    def test_compat_key_ignores_autotune(self):
        """Autotuned and non-autotuned spellings of one concrete config
        must coalesce: the decision is folded before keying."""
        a = resolve_execution(autotune=True)
        b = resolve_execution(autotune=False)
        assert a.compat_key() == b.compat_key()

    def test_compat_key_equivalent_spellings_agree(self, monkeypatch):
        """Profile name vs. explicit field resolve to one compat key —
        the property request coalescing in repro.serve relies on."""
        from repro.exec.config import execution

        with execution("sanitized"):
            a = resolve_execution().compat_key()
        with execution(sanitize=True):
            b = resolve_execution().compat_key()
        assert a == b
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "1")
        assert resolve_execution().compat_key() == a

    def test_compat_key_differs_when_any_field_differs(self):
        base = resolve_execution()
        changed = {"sanitize": not base.sanitize,
                   "bounds_check": not base.bounds_check,
                   "backend": "host", "device": "V100"}
        assert set(changed) == {k for k, _ in base.compat_key()}
        for field_, value in changed.items():
            flipped = resolve_execution(**{field_: value})
            assert flipped.compat_key() != base.compat_key()


class TestPrecedence:
    def test_builtin_defaults(self):
        res = resolve_execution()
        assert res == ExecutionConfig(
            sanitize=False, bounds_check=False, backend="gpusim",
            device="P100", autotune=False,
        )

    def test_env_beats_builtin(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_BOUNDS_CHECK", "on")
        monkeypatch.setenv("REPRO_EXEC_DEVICE", "V100")
        res = resolve_execution()
        assert res.bounds_check is True and res.device == "V100"

    def test_profile_below_specific_env_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_PROFILE", "sanitized")
        assert resolve_execution().sanitize is True
        # A specific env var wins over the profile's field.
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")
        assert resolve_execution().sanitize is False

    def test_unknown_profile_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_PROFILE", "nope")
        with pytest.raises(ValueError, match="nope"):
            resolve_execution()

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "1")
        with execution(sanitize=False):
            assert resolve_execution().sanitize is False
        assert resolve_execution().sanitize is True

    def test_contexts_nest_innermost_first(self):
        with execution(bounds_check=True, sanitize=True):
            with execution(bounds_check=False):
                res = resolve_execution()
                assert res.bounds_check is False
                assert res.sanitize is True  # inherited from the outer ctx
            assert resolve_execution().bounds_check is True

    def test_default_config_below_contexts(self):
        prev = set_default_config(sanitize=True)
        try:
            assert resolve_execution().sanitize is True
            with execution(sanitize=False):
                assert resolve_execution().sanitize is False
        finally:
            set_default_config(prev)
        assert resolve_execution().sanitize is False

    def test_config_object_beats_context(self):
        with execution(bounds_check=True):
            res = resolve_execution(ExecutionConfig(bounds_check=False))
            assert res.bounds_check is False

    def test_kwarg_beats_config_object(self):
        res = resolve_execution(ExecutionConfig(bounds_check=True),
                                bounds_check=False)
        assert res.bounds_check is False

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "1")
        assert resolve_execution(sanitize=False).sanitize is False

    def test_none_kwarg_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_BOUNDS_CHECK", "1")
        assert resolve_execution(bounds_check=None).bounds_check is True

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError, match="unknown execution fields"):
            resolve_execution(fuzed=True)

    @pytest.mark.parametrize("spelling", ["kwarg", "config", "mapping",
                                          "env"])
    def test_config_as_mapping_and_profile_name(self, monkeypatch, spelling):
        assert resolve_execution({"bounds_check": True}).bounds_check is True
        assert resolve_execution("sanitized").sanitize is True
        with pytest.raises(ValueError, match="unknown execution profile"):
            resolve_execution("bogus")
        # ``compiled`` is an alias of ``gpusim`` in every spelling, and
        # runs report ``gpusim``; it names no profile.
        kw = {
            "kwarg": {"backend": "compiled"},
            "config": {"config": ExecutionConfig(backend="compiled")},
            "mapping": {"config": {"backend": "compiled"}},
            "env": {},
        }[spelling]
        if spelling == "env":
            monkeypatch.setenv("REPRO_EXEC_BACKEND", "compiled")
        assert resolve_execution(**kw).backend == "gpusim"
        img = np.ones((32, 32), np.uint8)
        assert sat(img, pair="8u32s", **kw).backend == "gpusim"
        batch = sat_batch([img, img], pair="8u32s", **kw)
        assert [r.backend for r in batch.runs] == ["gpusim", "gpusim"]
        monkeypatch.setenv("REPRO_EXEC_PROFILE", "compiled")
        with pytest.raises(ValueError, match="unknown REPRO_EXEC_PROFILE"):
            resolve_execution()

    def test_profiles_registry(self):
        assert set(PROFILES) == {"default", "sanitized", "autotuned"}
        assert PROFILES["sanitized"].sanitize is True

    def test_get_default_config_roundtrip(self):
        prev = set_default_config(ExecutionConfig(device="M40"))
        try:
            assert get_default_config().device == "M40"
        finally:
            set_default_config(prev)


class TestResolveMemo:
    def test_repeat_returns_the_memoised_config(self):
        assert resolve_execution(device="V100") is resolve_execution(
            device="V100")

    def test_environment_change_applies_to_the_next_call(self, monkeypatch):
        first = resolve_execution()
        monkeypatch.setenv("REPRO_EXEC_DEVICE", "V100")
        assert resolve_execution().device == "V100"
        monkeypatch.setenv("REPRO_EXEC_PROFILE", "sanitized")
        assert resolve_execution().sanitize is True
        monkeypatch.delenv("REPRO_EXEC_DEVICE")
        monkeypatch.delenv("REPRO_EXEC_PROFILE")
        assert resolve_execution() == first

    def test_contexts_and_default_key_the_memo(self):
        first = resolve_execution()
        with execution(device="M40"):
            assert resolve_execution().device == "M40"
        prev = set_default_config(ExecutionConfig(device="A100"))
        try:
            assert resolve_execution().device == "A100"
        finally:
            set_default_config(prev)
        assert resolve_execution() == first

    def test_mapping_config_resolves_afresh(self):
        a = resolve_execution({"bounds_check": True})
        b = resolve_execution({"bounds_check": True})
        assert a == b and a is not b and a.bounds_check is True


def _counters(run):
    return [s.counters.as_dict() for s in run.launches]


def _timings(run):
    return [dataclasses.asdict(s.timing) for s in run.launches]


class TestEquivalentSpellingsBitIdentical:
    """The same resolved mode must produce the same bits no matter how it
    was spelled: kwarg, config object, context manager, or env var."""

    @pytest.fixture
    def img(self):
        return np.random.default_rng(11).integers(
            0, 256, (64, 96)).astype(np.uint8)

    def test_bounds_check_spellings(self, monkeypatch, img):
        from repro.engine import batch
        from repro.exec import backends

        # A cold call launches; a warm bounds-checked one replays the
        # recorded launches.  Both must see the check.
        checked = []

        def recording(real):
            def wrapper(*args, **kwargs):
                checked.append(kwargs["bounds_check"])
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(backends, "launch_kernel",
                            recording(backends.launch_kernel))
        monkeypatch.setattr(batch, "replay_kernel",
                            recording(batch.replay_kernel))
        # An explicit algorithm keeps planner calibrations (autotuned
        # profile) out of the recorded launches.
        kw = dict(pair="8u32s", algorithm="brlt_scanrow")
        via_kwarg = sat(img, bounds_check=True, **kw)
        via_config = sat(img, config=ExecutionConfig(bounds_check=True), **kw)
        with execution(bounds_check=True):
            via_ctx = sat(img, **kw)
        monkeypatch.setenv("REPRO_GPUSIM_BOUNDS_CHECK", "1")
        via_env = sat(img, **kw)
        assert checked == [True] * 8  # two launches per spelling
        for other in (via_config, via_ctx, via_env):
            np.testing.assert_array_equal(other.output, via_kwarg.output)
            assert _counters(other) == _counters(via_kwarg)
            assert _timings(other) == _timings(via_kwarg)

    def test_sanitize_spellings(self, monkeypatch, img):
        via_kwarg = sat(img, pair="8u32s", sanitize=True)
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "on")
        via_env = sat(img, pair="8u32s")
        assert all(s.timing.sanitizer is not None for s in via_kwarg.launches)
        assert all(s.timing.sanitizer is not None for s in via_env.launches)
        assert _counters(via_env) == _counters(via_kwarg)

    def test_device_resolves_through_config(self):
        img = np.ones((32, 32), np.uint8)
        with execution(device="V100"):
            run = sat(img, pair="8u32s")
        assert run.device == "V100"
        # Explicit kwarg still beats the context.
        run = sat(img, pair="8u32s", device="M40")
        assert run.device == "M40"
