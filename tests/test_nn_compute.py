"""Tests for the pluggable inference compute backends (exact/fp32/int8)."""

import copy

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, ClassifierError, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import DeepCsiModelConfig, build_deepcsi_model
from repro.core.service import StreamingService
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.nn.attention import SpatialAttention
from repro.nn.compute import (
    COMPUTE_NAMES,
    ArenaPool,
    ComputeError,
    ExactBackend,
    Fp32ArenaBackend,
    Int8Backend,
    compute_backend_names,
    create_compute_backend,
    fused_selu,
)
from repro.nn.layers import SELU_ALPHA, SELU_SCALE, Conv2D, Dense, MaxPool2D, Selu, Softmax
from repro.nn.serialization import load_compute_state, save_compute_state
from repro.nn.training import TrainingConfig

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


@pytest.fixture()
def model_and_input():
    rng = np.random.default_rng(7)
    model = build_deepcsi_model((4, 1, 48), 5, config=TINY_MODEL, rng=rng)
    x = rng.standard_normal((12, 4, 1, 48))
    return model, x


@pytest.fixture(scope="module")
def trained_classifier(tiny_d1):
    train, _ = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=3,
            feature=FeatureConfig(
                stream_indices=(0,), subcarrier_positions=strided_subcarriers(234, 8)
            ),
            model=TINY_MODEL,
            training=TrainingConfig(
                epochs=4, batch_size=16, validation_split=0.2,
                early_stopping_patience=None, seed=0,
            ),
            learning_rate=3e-3,
        )
    )
    classifier.fit(train)
    return classifier


@pytest.fixture(scope="module")
def split_samples(tiny_d1):
    return d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)


class TestRegistry:
    def test_all_three_backends_registered(self):
        assert COMPUTE_NAMES == ("exact", "fp32", "int8")
        assert compute_backend_names() == COMPUTE_NAMES

    def test_unknown_backend_rejected(self):
        with pytest.raises(ComputeError):
            create_compute_backend("fp16")

    def test_instances_pass_through(self):
        backend = Fp32ArenaBackend()
        assert create_compute_backend(backend) is backend

    def test_names_by_factory(self):
        assert isinstance(create_compute_backend("exact"), ExactBackend)
        assert isinstance(create_compute_backend("fp32"), Fp32ArenaBackend)
        assert isinstance(create_compute_backend("int8"), Int8Backend)


class TestArenaPool:
    def test_grow_only_reuse(self):
        pool = ArenaPool()
        first = pool.get(("k",), (8, 4))
        assert pool.allocations == 1
        again = pool.get(("k",), (8, 4))
        assert again.base is first.base or again is first
        assert pool.allocations == 1
        smaller = pool.get(("k",), (3, 4))
        assert smaller.shape == (3, 4)
        assert pool.allocations == 1
        bigger = pool.get(("k",), (16, 4))
        assert bigger.shape == (16, 4)
        assert pool.allocations == 2

    def test_distinct_keys_and_dtypes_get_distinct_buffers(self):
        pool = ArenaPool()
        pool.get(("a",), (4, 4))
        pool.get(("b",), (4, 4))
        pool.get(("a",), (4, 4), dtype=np.float64)
        assert pool.allocations == 3

    def test_zero_initialised_buffers(self):
        pool = ArenaPool()
        buffer = pool.get(("pad",), (2, 3), zero=True)
        assert np.all(buffer == 0.0)


class TestFusedSelu:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64,)).astype(np.float32) * 4.0
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        fused_selu(x, out, scratch)
        reference = SELU_SCALE * np.where(
            x > 0, x, SELU_ALPHA * (np.exp(x.astype(np.float64)) - 1.0)
        )
        np.testing.assert_allclose(out, reference, rtol=1e-6, atol=1e-6)

    def test_fp64_is_bitwise_the_reference_formula(self):
        # The exact backend's Selu layer runs this kernel on fp64 maps.
        rng = np.random.default_rng(4)
        specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 800.0, -800.0]
        x = np.concatenate([rng.standard_normal(4096) * 8.0, specials])
        out = fused_selu(x, np.empty_like(x), np.empty_like(x))
        with np.errstate(over="ignore"):
            reference = SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * (np.exp(x) - 1.0))
        assert np.array_equal(out, reference, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(reference))
        assert np.array_equal(out[:4096].view(np.int64), reference[:4096].view(np.int64))


class TestExactBackend:
    def test_bitwise_identical_to_fp64(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x, training=False)
        model.set_compute("exact")
        assert np.array_equal(model.forward(x, training=False), reference)

    def test_exact_is_flagged(self):
        assert ExactBackend().is_exact
        assert not Fp32ArenaBackend().is_exact


class TestFp32Backend:
    def test_logits_close_and_argmax_equal(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x, training=False)
        model.set_compute("fp32")
        logits = model.forward(x, training=False)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, reference, rtol=1e-4, atol=1e-4)
        assert np.array_equal(logits.argmax(axis=1), reference.argmax(axis=1))

    def test_steady_state_does_not_allocate(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        model.forward(x, training=False)
        warm = backend.arena_allocations
        model.forward(x, training=False)
        model.forward(x, training=False)
        assert backend.arena_allocations == warm

    def test_smaller_batch_reuses_larger_arena(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        reference_small = model.forward(x[:5], training=False)
        model.forward(x, training=False)  # grow to the full batch
        warm = backend.arena_allocations
        small = model.forward(x[:5], training=False)
        assert backend.arena_allocations == warm
        np.testing.assert_allclose(small, reference_small, rtol=1e-6, atol=1e-6)

    def test_larger_batch_regrows_arena(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        model.forward(x, training=False)
        warm = backend.arena_allocations
        doubled = np.concatenate([x, x], axis=0)
        out = model.forward(doubled, training=False)
        assert backend.arena_allocations > warm
        reference = model_without_compute_forward(model, doubled)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-4)

    def test_outputs_do_not_alias_the_arena(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        first = model.forward(x, training=False)
        snapshot = np.array(first, copy=True)
        model.forward(x[::-1], training=False)
        # A second forward must not clobber the first result in place.
        np.testing.assert_array_equal(first, snapshot)

    def test_training_forward_bypasses_the_backend(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        out = model.forward(x, training=True)
        assert out.dtype == np.float64


def model_without_compute_forward(model, x):
    """fp64 reference forward regardless of the attached backend."""
    backend = model.compute
    model.set_compute(None)
    try:
        return model.forward(x, training=False)
    finally:
        model.set_compute(backend)


class TestInt8Backend:
    def test_uncalibrated_backend_refuses_to_run(self, model_and_input):
        model, x = model_and_input
        model.set_compute("int8")
        with pytest.raises(ComputeError):
            model.forward(x, training=False)

    def test_per_channel_quantisation_scheme(self, model_and_input):
        model, _ = model_and_input
        backend = model.set_compute("int8")
        assert backend.quantized_states, "no Conv2D/Dense layer was quantised"
        for index, state in backend.quantized_states.items():
            layer = model.layers[index]
            assert state.weight_q.dtype == np.int8
            assert state.weight_q.shape == layer.weight.shape
            assert np.max(np.abs(state.weight_q)) <= 127
            out_channels = (
                layer.weight.shape[0]
                if isinstance(layer, Conv2D)
                else layer.weight.shape[1]
            )
            assert state.weight_scale.shape == (out_channels,)
            assert np.all(state.weight_scale > 0)

    def test_logits_within_tolerance_and_argmax_equal(
        self, trained_classifier, split_samples
    ):
        train, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        reference = classifier.predict_logits(test)
        classifier.set_compute("int8", calibration=train)
        quantized = classifier.predict_logits(test)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(quantized - reference)) <= 0.05 * scale
        assert np.array_equal(
            quantized.argmax(axis=1), reference.argmax(axis=1)
        )

    def test_attention_stays_fp32(self, model_and_input):
        model, _ = model_and_input
        backend = model.set_compute("int8")
        attention_indices = [
            index
            for index, layer in enumerate(model.layers)
            if isinstance(layer, SpatialAttention)
        ]
        assert attention_indices
        for index in attention_indices:
            assert index not in backend.quantized_states

    def test_reprepare_preserves_calibration(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("int8")
        backend.calibrate(np.asarray(x, dtype=np.float32))
        before = model.forward(x, training=False)
        # set_weights re-prepares the backend; the activation scales must
        # survive by layer position.
        model.set_weights(model.get_weights())
        assert backend.calibrated
        after = model.forward(x, training=False)
        np.testing.assert_array_equal(before, after)

    def test_quantized_state_roundtrips_through_serialization(
        self, model_and_input, tmp_path
    ):
        model, x = model_and_input
        backend = model.set_compute("int8")
        backend.calibrate(np.asarray(x, dtype=np.float32))
        reference = model.forward(x, training=False)
        path = save_compute_state(model, tmp_path / "compute.npz")

        clone = build_deepcsi_model(
            (4, 1, 48), 5, config=TINY_MODEL, rng=np.random.default_rng(7)
        )
        clone.set_weights(model.get_weights())
        restored = load_compute_state(clone, path)
        assert restored.name == "int8"
        assert restored.calibrated
        np.testing.assert_array_equal(clone.forward(x, training=False), reference)
        for index, state in backend.quantized_states.items():
            restored_state = restored.quantized_states[index]
            np.testing.assert_array_equal(restored_state.weight_q, state.weight_q)
            np.testing.assert_array_equal(
                restored_state.weight_scale, state.weight_scale
            )
            assert restored_state.act_scale == pytest.approx(state.act_scale)

    def test_uncalibrated_state_cannot_be_serialised(self, model_and_input, tmp_path):
        model, _ = model_and_input
        model.set_compute("int8")
        with pytest.raises(ComputeError):
            save_compute_state(model, tmp_path / "compute.npz")

    def test_backend_survives_pickle_and_deepcopy(self, model_and_input):
        import pickle

        model, x = model_and_input
        backend = model.set_compute("int8")
        backend.calibrate(np.asarray(x, dtype=np.float32))
        reference = model.forward(x, training=False)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone.compute.calibrated
            np.testing.assert_array_equal(
                clone.forward(x, training=False), reference
            )


class TestInferenceCachesDropped:
    """Regression: forwards at training=False must retain no cached arrays."""

    CACHE_ATTRS = ("_input", "_padded_input", "_windows", "_out", "_output", "_cache")

    def _assert_no_caches(self, layer):
        for attr in self.CACHE_ATTRS:
            assert getattr(layer, attr, None) is None, (layer, attr)
        if isinstance(layer, SpatialAttention):
            self._assert_no_caches(layer.conv)

    def test_individual_layers(self):
        rng = np.random.default_rng(0)
        cases = [
            (Dense(6, 3, rng=rng), rng.standard_normal((4, 6))),
            (
                Conv2D(2, 3, (1, 3), rng=rng),
                rng.standard_normal((4, 2, 1, 8)),
            ),
            (MaxPool2D((1, 2)), rng.standard_normal((4, 2, 1, 8))),
            (Selu(), rng.standard_normal((4, 6))),
            (Softmax(), rng.standard_normal((4, 6))),
            (SpatialAttention((1, 3), rng=rng), rng.standard_normal((4, 2, 1, 8))),
        ]
        for layer, x in cases:
            layer.forward(x, training=False)
            self._assert_no_caches(layer)

    def test_training_forward_still_retains_caches(self):
        rng = np.random.default_rng(0)
        layer = Dense(6, 3, rng=rng)
        layer.forward(rng.standard_normal((4, 6)), training=True)
        assert layer._input is not None

    def test_whole_model_after_predict(self, model_and_input):
        model, x = model_and_input
        model.predict(x)
        for layer in model.layers:
            self._assert_no_caches(layer)


class TestProfiling:
    def test_disabled_by_default(self, model_and_input):
        model, x = model_and_input
        model.forward(x, training=False)
        assert all(entry.calls == 0 for entry in model.profile())

    def test_accumulates_per_layer_counters(self, model_and_input):
        model, x = model_and_input
        model.enable_profiling()
        model.forward(x, training=False)
        model.forward(x, training=False)
        profile = model.profile()
        assert len(profile) == len(model.layers)
        assert all(entry.calls == 2 for entry in profile)
        assert all(entry.total_ns > 0 for entry in profile)
        assert profile[0].mean_ms > 0.0
        model.disable_profiling()
        model.forward(x, training=False)
        assert all(entry.calls == 2 for entry in model.profile())

    def test_reset_zeroes_counters(self, model_and_input):
        model, x = model_and_input
        model.enable_profiling()
        model.forward(x, training=False)
        model.reset_profile()
        assert all(entry.calls == 0 for entry in model.profile())

    def test_profiles_compute_backend_forwards(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        model.enable_profiling()
        out = model.forward(x, training=False)
        assert out.dtype == np.float32
        assert all(entry.calls == 1 for entry in model.profile())


class TestClassifierCompute:
    def test_default_is_fp64(self, trained_classifier):
        assert trained_classifier.compute is None
        assert trained_classifier.compute_name == "fp64"

    def test_int8_requires_calibration_data(self, trained_classifier):
        classifier = copy.deepcopy(trained_classifier)
        with pytest.raises(ClassifierError):
            classifier.set_compute("int8")
        # The failed attach must not leave a half-configured backend.
        assert classifier.compute is None

    def test_same_name_is_a_noop(self, trained_classifier, split_samples):
        train, _ = split_samples
        classifier = copy.deepcopy(trained_classifier)
        backend = classifier.set_compute("int8", calibration=train)
        assert classifier.set_compute("int8") is backend

    def test_save_load_roundtrip_restores_backend(
        self, trained_classifier, split_samples, tmp_path
    ):
        train, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        classifier.set_compute("int8", calibration=train)
        reference = classifier.predict_logits(test)
        classifier.save(tmp_path / "model")

        restored = DeepCsiClassifier(classifier.config).load(tmp_path / "model")
        assert restored.compute_name == "int8"
        np.testing.assert_array_equal(restored.predict_logits(test), reference)

    def test_calibration_accepts_v_tilde_batches(
        self, trained_classifier, split_samples
    ):
        train, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        v_batch = np.stack([sample.v_tilde for sample in train], axis=0)
        backend = classifier.set_compute("int8", calibration=v_batch)
        assert backend.calibrated


def _drain_engine(classifier, samples, **kwargs):
    engine = InferenceEngine(classifier, batch_size=8, **kwargs)
    results = []
    for sample in samples:
        results.extend(
            engine.submit(sample, source=f"module-{sample.module_id:02d}")
        )
    results.extend(engine.flush())
    return engine, [(r.predicted_module_id, r.confidence) for r in results]


def _drain_service(classifier, samples, backend, compute=None):
    with StreamingService(
        classifier,
        num_workers=2,
        batch_size=8,
        backend=backend,
        compute=compute,
    ) as service:
        for sample in samples:
            service.submit(sample, source=f"module-{sample.module_id:02d}")
        service.flush()
        results = service.collect()
        stats = service.stats
    results.sort(key=lambda result: result.sequence)
    return stats, [(r.predicted_module_id, r.confidence) for r in results]


class TestEngineAndServiceCompute:
    def test_engine_stats_carry_compute_name(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], compute="fp32")
        assert engine.stats.compute == "fp32"

    def test_engine_profile_surfaces_in_stats(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], profile=True)
        profile = engine.stats.layer_profile
        assert profile and all(entry.calls > 0 for entry in profile)

    def test_unprofiled_engine_stats_have_empty_profile(
        self, trained_classifier, split_samples
    ):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16])
        assert engine.stats.layer_profile == ()

    def test_exact_compute_is_bitwise_across_all_backends(
        self, trained_classifier, split_samples
    ):
        """Acceptance: --compute exact stays bitwise identical to the fp64
        verdicts through the single engine and both service backends."""
        _, test = split_samples
        samples = test[:24]
        _, reference = _drain_engine(copy.deepcopy(trained_classifier), samples)
        _, exact_engine = _drain_engine(
            copy.deepcopy(trained_classifier), samples, compute="exact"
        )
        assert exact_engine == reference
        for backend in ("threads", "processes"):
            stats, results = _drain_service(
                copy.deepcopy(trained_classifier), samples, backend, compute="exact"
            )
            assert stats.compute == "exact"
            assert results == reference

    def test_int8_quantised_weights_travel_to_process_shards(
        self, trained_classifier, split_samples
    ):
        train, test = split_samples
        samples = test[:24]
        classifier = copy.deepcopy(trained_classifier)
        classifier.set_compute("int8", calibration=train)
        _, reference = _drain_engine(copy.deepcopy(classifier), samples)
        stats, results = _drain_service(classifier, samples, "processes")
        assert stats.compute == "int8"
        assert results == reference

    def test_fp32_service_on_threads(self, trained_classifier, split_samples):
        _, test = split_samples
        samples = test[:24]
        _, reference = _drain_engine(
            copy.deepcopy(trained_classifier), samples, compute="fp32"
        )
        stats, results = _drain_service(
            copy.deepcopy(trained_classifier), samples, "threads", compute="fp32"
        )
        assert stats.compute == "fp32"
        assert results == reference
