"""Chaos harness: spec grammar, deterministic fault draws, kernel seam."""

import numpy as np
import pytest

from repro.runtime.chaos import (
    ChaosError,
    ChaosSpec,
    ShardChaos,
    active_shard_chaos,
    chaos_context,
    chaos_kernels,
    flip_words,
    parse_chaos,
)
from repro.vsa.kernels import WORD_BITS, get_kernels


class TestGrammar:
    def test_full_spec(self):
        spec = ChaosSpec.parse("raise:0.05,delay:10ms,bitflip:1e-4,seed:9")
        assert spec.raise_rate == pytest.approx(0.05)
        assert spec.delay_s == pytest.approx(0.010)
        assert spec.bitflip_rate == pytest.approx(1e-4)
        assert spec.seed == 9
        assert spec.enabled

    def test_duration_units(self):
        assert ChaosSpec.parse("delay:250us").delay_s == pytest.approx(250e-6)
        assert ChaosSpec.parse("delay:0.5s").delay_s == pytest.approx(0.5)
        assert ChaosSpec.parse("delay:0.25").delay_s == pytest.approx(0.25)

    def test_empty_is_disabled(self):
        for text in (None, "", "   "):
            spec = ChaosSpec.parse(text)
            assert not spec.enabled

    def test_seed_argument_vs_directive(self):
        assert ChaosSpec.parse("raise:0.1", seed=4).seed == 4
        assert ChaosSpec.parse("raise:0.1,seed:7", seed=4).seed == 7

    def test_unknown_directive_raises(self):
        with pytest.raises(ValueError, match="unknown chaos directive"):
            ChaosSpec.parse("explode:0.5")

    def test_malformed_pair_raises(self):
        with pytest.raises(ValueError, match="bad chaos directive"):
            ChaosSpec.parse("raise=0.5")

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="raise_rate"):
            ChaosSpec(raise_rate=1.5)
        with pytest.raises(ValueError, match="delay"):
            ChaosSpec(delay_s=-1.0)

    def test_from_env(self):
        spec = ChaosSpec.from_env(
            {"REPRO_CHAOS": "raise:0.2,delay:1ms", "REPRO_CHAOS_SEED": "11"}
        )
        assert spec.raise_rate == pytest.approx(0.2)
        assert spec.seed == 11
        assert not ChaosSpec.from_env({}).enabled

    def test_parse_chaos_alias(self):
        assert parse_chaos("raise:0.3").raise_rate == pytest.approx(0.3)

    def test_as_dict_roundtrips_rates(self):
        spec = ChaosSpec.parse("raise:0.1,bitflip:1e-3")
        state = spec.as_dict()
        assert state["raise"] == pytest.approx(0.1)
        assert state["bitflip"] == pytest.approx(1e-3)
        assert state["targeted"] is False

    def test_state_plane_directives(self):
        spec = ChaosSpec.parse("corrupt:0.05,truncate,seed:7")
        assert spec.corrupt_rate == pytest.approx(0.05)
        assert spec.truncate is True
        assert spec.seed == 7
        assert spec.enabled
        assert spec.as_dict()["corrupt"] == pytest.approx(0.05)
        assert spec.as_dict()["truncate"] is True
        # truncate also accepts an explicit boolean value
        assert ChaosSpec.parse("truncate:1").truncate
        assert not ChaosSpec.parse("truncate:0").truncate
        with pytest.raises(ValueError, match="corrupt_rate"):
            ChaosSpec(corrupt_rate=2.0)


class TestDeterminism:
    def test_same_key_same_fate(self):
        spec = ChaosSpec(raise_rate=0.5, seed=3)

        def fate(shard, attempt):
            try:
                with chaos_context(spec, shard, attempt):
                    pass
                return "ok"
            except ChaosError:
                return "raise"

        fates = [fate(s, a) for s in range(8) for a in range(2)]
        assert fates == [fate(s, a) for s in range(8) for a in range(2)]
        assert "raise" in fates and "ok" in fates  # both outcomes occur

    def test_retry_rerolls_fate(self):
        spec = ChaosSpec(raise_rate=0.5, seed=0)
        draws = {
            (s, a): ShardChaos(spec, s, a).rng.random()
            for s in range(4)
            for a in range(3)
        }
        assert len(set(draws.values())) == len(draws)

    def test_targeted_injection(self):
        spec = ChaosSpec(raise_on=frozenset({(1, 0)}))
        with pytest.raises(ChaosError, match="shard=1"):
            with chaos_context(spec, 1, 0):
                pass
        with chaos_context(spec, 1, 1):
            pass  # the retry attempt is clean
        with chaos_context(spec, 0, 0):
            pass


class TestFlipWords:
    def test_zero_rate_is_identity(self):
        words = np.arange(16, dtype=np.uint64)
        assert flip_words(words, 0.0, np.random.default_rng(0)) is words

    def test_does_not_mutate_input(self):
        words = np.arange(64, dtype=np.uint64)
        snapshot = words.copy()
        flip_words(words, 0.5, np.random.default_rng(0))
        np.testing.assert_array_equal(words, snapshot)

    def test_deterministic_under_seed(self):
        words = np.arange(256, dtype=np.uint64)
        a = flip_words(words, 1e-2, np.random.default_rng(5))
        b = flip_words(words, 1e-2, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_flip_count_matches_binomial_draw(self):
        words = np.zeros(64, dtype=np.uint64)
        rate = 1e-3
        out = flip_words(words, rate, np.random.default_rng(7))
        expected = int(
            np.random.default_rng(7).binomial(words.size * WORD_BITS, rate)
        )
        # XOR-at with replacement: duplicate positions cancel pairwise, so
        # set bits == draws - 2 * collision pairs (rare at SEU rates).
        set_bits = int(np.bitwise_count(out).sum())
        assert set_bits <= expected
        assert (expected - set_bits) % 2 == 0
        assert set_bits > 0


class TestContext:
    def test_thread_local_scoping(self):
        spec = ChaosSpec(bitflip_rate=1e-4)
        assert active_shard_chaos() is None
        with chaos_context(spec, 0, 0):
            state = active_shard_chaos()
            assert state is not None and state.shard == 0
            with chaos_context(spec, 1, 2):
                assert active_shard_chaos().shard == 1
            assert active_shard_chaos() is state
        assert active_shard_chaos() is None

    def test_disabled_spec_installs_nothing(self):
        with chaos_context(ChaosSpec(), 0, 0):
            assert active_shard_chaos() is None
        with chaos_context(None, 0, 0):
            assert active_shard_chaos() is None


class TestChaosKernels:
    def test_passthrough_outside_context(self):
        base = get_kernels()
        wrapped = chaos_kernels(base)
        words = np.random.default_rng(0).integers(
            0, 2**63, size=128, dtype=np.uint64
        )
        np.testing.assert_array_equal(wrapped.popcount8(words), base.popcount8(words))
        assert wrapped.name.endswith("+chaos")

    def test_wrap_is_idempotent(self):
        """Re-wrapping an already-chaos set is a no-op — a fork pool
        worker inheriting the parent's install must not double the
        effective flip rate."""
        wrapped = chaos_kernels(get_kernels())
        assert chaos_kernels(wrapped) is wrapped

    def test_flips_inside_context(self):
        base = get_kernels()
        wrapped = chaos_kernels(base)
        words = np.zeros(512, dtype=np.uint64)
        spec = ChaosSpec(bitflip_rate=1e-2, seed=1)
        with chaos_context(spec, 0, 0):
            counts = wrapped.popcount8(words)
        # All-zero words popcount to the injected flips exactly.
        assert int(np.asarray(counts, dtype=np.int64).sum()) > 0
        np.testing.assert_array_equal(
            base.popcount8(words), np.zeros_like(base.popcount8(words))
        )

    def test_flips_are_transient(self):
        """Corruption never leaks outside the chaos context."""
        base = get_kernels()
        wrapped = chaos_kernels(base)
        words = np.zeros(512, dtype=np.uint64)
        spec = ChaosSpec(bitflip_rate=1e-2, seed=1)
        with chaos_context(spec, 0, 0):
            wrapped.popcount8(words)
        counts = wrapped.popcount8(words)
        assert int(np.asarray(counts, dtype=np.int64).sum()) == 0
