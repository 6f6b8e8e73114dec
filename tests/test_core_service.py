"""Tests for the sharded multi-worker streaming service."""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import DeepCsiModelConfig
from repro.core.service import (
    ServiceError,
    ServiceStats,
    StreamingService,
    resolve_num_workers,
    shard_for_source,
)
from repro.core.transport import RECORD_CODEWORDS, TransportError
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.capture import station_mac
from repro.feedback.frames import FeedbackFrame, VhtMimoControl, pack_feedback_frame
from repro.feedback.givens import compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, quantize_angles
from repro.nn.training import TrainingConfig

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


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
def test_samples(tiny_d1):
    _, test = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return test


@pytest.fixture(scope="module")
def multi_source_stream(test_samples):
    """(source, sample) pairs: 6 sources, round-robin interleaved."""
    sources = [station_mac(index) for index in range(6)]
    return [
        (sources[index % len(sources)], sample)
        for index, sample in enumerate(test_samples[:24])
    ]


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 7):
            for index in range(64):
                source = station_mac(index)
                shard = shard_for_source(source, num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_for_source(source, num_shards)

    def test_many_sources_cover_every_shard(self):
        shards = {shard_for_source(station_mac(index), 4) for index in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ServiceError):
            shard_for_source("02:00:00:00:00:01", 0)

    def test_one_source_never_spans_two_shards(
        self, trained_classifier, test_samples
    ):
        with StreamingService(trained_classifier, num_workers=4) as service:
            service.drain(test_samples[:8], source="alice")
            owners = [
                index
                for index, shard in enumerate(service._shards)
                if shard.engine.sources
            ]
        assert owners == [shard_for_source("alice", 4)]


class TestServiceResults:
    def test_drain_matches_single_engine_bitwise(
        self, trained_classifier, multi_source_stream
    ):
        engine = InferenceEngine(trained_classifier, batch_size=5)
        expected = []
        for source, sample in multi_source_stream:
            expected.extend(engine.submit(sample, source=source))
        expected.extend(engine.flush())
        expected.sort(key=lambda result: result.sequence)

        with StreamingService(
            trained_classifier, num_workers=3, batch_size=5
        ) as service:
            for source, sample in multi_source_stream:
                service.submit(sample, source=source)
            service.flush()
            actual = sorted(service.collect(), key=lambda result: result.sequence)

        assert [result.sequence for result in actual] == list(
            range(len(multi_source_stream))
        )
        for got, want in zip(actual, expected):
            assert got.source == want.source
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == pytest.approx(want.confidence, rel=1e-12)

    def test_verdicts_match_single_engine(
        self, trained_classifier, multi_source_stream
    ):
        engine = InferenceEngine(trained_classifier, batch_size=4, vote_window=8)
        for source, sample in multi_source_stream:
            engine.submit(sample, source=source)
        engine.flush()

        with StreamingService(
            trained_classifier, num_workers=4, batch_size=4, vote_window=8
        ) as service:
            for source, sample in multi_source_stream:
                service.submit(sample, source=source)
            service.flush()
            assert service.sources == engine.sources
            for source in engine.sources:
                got = service.verdict(source)
                want = engine.verdict(source)
                assert got.module_id == want.module_id
                assert got.num_votes == want.num_votes
                assert got.window_size == want.window_size
                assert got.confidence == pytest.approx(want.confidence, rel=1e-12)

    def test_drain_returns_submission_order(self, trained_classifier, test_samples):
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            results = service.drain(test_samples[:10])
        assert [result.sequence for result in results] == list(range(10))

    def test_stream_yields_every_result(self, trained_classifier, test_samples):
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            results = list(service.stream(test_samples[:7]))
        assert len(results) == 7

    def test_unknown_source_verdict_rejected(self, trained_classifier):
        from repro.core.engine import EngineError

        with StreamingService(trained_classifier, num_workers=2) as service:
            with pytest.raises(EngineError):
                service.verdict("nobody")


class TestConcurrentProducers:
    def test_parallel_submitters_get_unique_sequences(
        self, trained_classifier, test_samples
    ):
        """Regression: the service-wide sequence stamp must not race."""
        import threading

        from repro.analysis.runtime import validate_guarded

        sources = [station_mac(index) for index in range(4)]
        per_producer = 8
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            # Runtime lock validation: the # guarded-by: _submit_lock sequence
            # counter must be locked on every access, including the stats
            # snapshots the producers interleave with their submissions.
            monitor = validate_guarded(service)

            def produce(source):
                for sample in test_samples[:per_producer]:
                    service.submit(sample, source=source)
                    service.stats

            threads = [
                threading.Thread(target=produce, args=(source,))
                for source in sources
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.flush()
            results = service.collect()
            monitor.assert_clean()
            monitor.restore()

        sequences = sorted(result.sequence for result in results)
        assert sequences == list(range(len(sources) * per_producer))


class TestBackpressureAndLifecycle:
    def test_bounded_queue_loses_no_frames(self, trained_classifier, test_samples):
        with StreamingService(
            trained_classifier, num_workers=2, queue_depth=1, batch_size=4
        ) as service:
            results = service.drain(test_samples[:20])
            stats = service.stats
        assert len(results) == 20
        assert stats.frames_in == stats.frames_out == 20
        assert stats.queue_full_waits >= 0

    def test_invalid_observation_surfaces_as_service_error(
        self, trained_classifier, test_samples
    ):
        with StreamingService(trained_classifier, num_workers=2) as service:
            service.submit(np.zeros((4, 4)))
            with pytest.raises(ServiceError):
                service.flush()

    def test_closed_service_rejects_submissions(
        self, trained_classifier, test_samples
    ):
        service = StreamingService(trained_classifier, num_workers=2)
        service.drain(test_samples[:2])
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(test_samples[0])
        with pytest.raises(ServiceError):
            service.flush()

    def test_invalid_configuration_rejected(self, trained_classifier):
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, num_workers=0)
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, queue_depth=0)


class TestWorkerHeuristic:
    def test_explicit_worker_count_always_wins(self):
        assert resolve_num_workers(2, "threads", cpu_count=1) == 2
        assert resolve_num_workers(7, "processes", cpu_count=1) == 7

    def test_single_core_defaults_to_one_shard(self):
        # On one core extra shards only add queue handshakes (threads: the
        # GIL already serialises them; processes: they time-slice the core
        # while paying transport copies) - the default must never be slower
        # than 1 worker.
        assert resolve_num_workers(None, "threads", cpu_count=1) == 1
        assert resolve_num_workers(None, "processes", cpu_count=1) == 1

    def test_multi_core_grows_with_cores_up_to_cap(self):
        assert resolve_num_workers(None, "threads", cpu_count=2) == 2
        assert resolve_num_workers(None, "processes", cpu_count=3) == 3
        assert resolve_num_workers(None, "threads", cpu_count=16) == 4

    def test_service_applies_heuristic_for_default_workers(
        self, trained_classifier
    ):
        import os

        expected = resolve_num_workers(None, "threads", cpu_count=os.cpu_count())
        with StreamingService(trained_classifier) as service:
            assert service.num_workers == expected

    def test_unknown_backend_rejected(self, trained_classifier):
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, num_workers=1, backend="fibers")


class TestProcessBackend:
    def test_results_match_threads_backend_bitwise(
        self, trained_classifier, multi_source_stream
    ):
        """Identical traffic through both backends: bitwise-identical results."""

        def run(backend):
            with StreamingService(
                trained_classifier, num_workers=2, batch_size=5, backend=backend
            ) as service:
                for source, sample in multi_source_stream:
                    service.submit(sample, source=source)
                service.flush()
                results = sorted(
                    service.collect(), key=lambda result: result.sequence
                )
                verdicts = {
                    source: service.verdict(source) for source in service.sources
                }
            return results, verdicts

        thread_results, thread_verdicts = run("threads")
        process_results, process_verdicts = run("processes")
        assert len(process_results) == len(thread_results) == len(
            multi_source_stream
        )
        for thread_result, process_result in zip(thread_results, process_results):
            assert thread_result.sequence == process_result.sequence
            assert thread_result.source == process_result.source
            assert (
                thread_result.predicted_module_id
                == process_result.predicted_module_id
            )
            assert thread_result.confidence == process_result.confidence  # bitwise
            assert thread_result.timestamp_s == process_result.timestamp_s
        assert set(process_verdicts) == set(thread_verdicts)
        for source, process_verdict in process_verdicts.items():
            thread_verdict = thread_verdicts[source]
            assert process_verdict.module_id == thread_verdict.module_id
            assert process_verdict.num_votes == thread_verdict.num_votes
            assert process_verdict.window_size == thread_verdict.window_size
            assert process_verdict.confidence == thread_verdict.confidence

    def test_worker_crash_raises_instead_of_hanging(
        self, trained_classifier, test_samples
    ):
        """Killing a child process surfaces as ServiceError, not a deadlock."""
        service = StreamingService(
            trained_classifier,
            num_workers=2,
            batch_size=4,
            queue_depth=4,
            backend="processes",
        )
        try:
            service.drain(test_samples[:4])
            for shard in service._shards:
                shard.process.kill()
                shard.process.join(timeout=5.0)
            with pytest.raises(ServiceError, match="died"):
                # The dead consumers never drain their rings, so keep
                # submitting until backpressure makes the liveness check run;
                # the small ring bounds the number of iterations needed.
                for sample in test_samples * 20:
                    service.submit(sample, source="alice")
        finally:
            service.close()

    def test_flush_with_dead_worker_raises(self, trained_classifier, test_samples):
        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        try:
            service.drain(test_samples[:4])
            for shard in service._shards:
                shard.process.kill()
                shard.process.join(timeout=5.0)
            with pytest.raises(ServiceError):
                service.flush()
        finally:
            service.close()

    def test_close_unlinks_every_shm_segment(self, trained_classifier, test_samples):
        from repro.core.transport import segment_exists

        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        names = service._backend.segment_names
        assert all(segment_exists(name) for name in names)
        service.drain(test_samples[:6])
        service.close()
        assert not any(segment_exists(name) for name in names)

    def test_close_unlinks_segments_after_worker_crash(
        self, trained_classifier, test_samples
    ):
        from repro.core.transport import segment_exists

        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        names = service._backend.segment_names
        service.drain(test_samples[:4])
        for shard in service._shards:
            shard.process.kill()
            shard.process.join(timeout=5.0)
        service.close()
        assert not any(segment_exists(name) for name in names)

    def test_stats_aggregate_per_shard_sums(
        self, trained_classifier, multi_source_stream
    ):
        with StreamingService(
            trained_classifier, num_workers=3, batch_size=4, backend="processes"
        ) as service:
            for source, sample in multi_source_stream:
                service.submit(sample, source=source)
            service.flush()
            stats = service.stats
        assert stats.backend == "processes"
        assert stats.num_workers == 3
        assert len(stats.worker_stats) == 3
        assert stats.frames_in == len(multi_source_stream)
        assert stats.frames_out == sum(w.frames_out for w in stats.worker_stats)
        assert stats.frames_out == len(multi_source_stream)
        assert stats.batches == sum(w.batches for w in stats.worker_stats)
        assert stats.inference_seconds == pytest.approx(
            sum(w.inference_seconds for w in stats.worker_stats)
        )

    def test_invalid_observation_surfaces_as_service_error(
        self, trained_classifier
    ):
        with StreamingService(
            trained_classifier, num_workers=2, backend="processes"
        ) as service:
            service.submit(np.zeros((4, 4, 4, 4)))
            with pytest.raises(ServiceError):
                service.flush()

    def test_oversize_frames_span_ring_slots(self, trained_classifier, test_samples):
        """Frames bigger than one shm slot still arrive bit for bit."""
        with StreamingService(
            trained_classifier,
            num_workers=2,
            batch_size=4,
            backend="processes",
            slot_bytes=1024,  # far below one (234, 3, 2) complex128 payload
        ) as service:
            results = service.drain(test_samples[:6])
        assert len(results) == 6

    def test_closed_service_rejects_submissions(
        self, trained_classifier, test_samples
    ):
        service = StreamingService(
            trained_classifier, num_workers=2, backend="processes"
        )
        service.drain(test_samples[:2])
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(test_samples[0])


def _quantize(samples, config=QuantizationConfig()):
    return [quantize_angles(compress_v_matrix(sample.v_tilde), config) for sample in samples]


def _frame(quantized, source, timestamp_s):
    control = VhtMimoControl(
        num_columns=quantized.num_streams,
        num_rows=quantized.num_tx,
        bandwidth_mhz=80,
        codebook=1,
        num_subcarriers=quantized.num_subcarriers,
    )
    return FeedbackFrame(
        source_address=source,
        destination_address="02:00:00:00:aa:00",
        timestamp_s=timestamp_s,
        payload=pack_feedback_frame(quantized, control),
    )


def _run_backend(classifier, backend, drive, **kwargs):
    """Run ``drive(service)`` on a fresh service; flush, then return the
    results in sequence order and every source's verdict."""
    with StreamingService(classifier, backend=backend, **kwargs) as service:
        drive(service)
        service.flush()
        results = sorted(service.collect(), key=lambda result: result.sequence)
        verdicts = {source: service.verdict(source) for source in service.sources}
    return results, verdicts


def _assert_backends_agree(classifier, drive, expected_frames, **kwargs):
    threads = _run_backend(classifier, "threads", drive, **kwargs)
    processes = _run_backend(classifier, "processes", drive, **kwargs)
    assert len(processes[0]) == expected_frames
    # Dataclass equality compares every field, floats bit for bit.
    assert processes == threads
    return processes


def _count_ring_records(service, shard_index=0):
    """Record the kind byte of every record the parent puts on one ring."""
    ring = service._shards[shard_index].ring
    kinds = []
    put = ring.put

    def counting_put(record, *args, **kwargs):
        kinds.append(record[0])
        return put(record, *args, **kwargs)

    ring.put = counting_put
    return kinds


class TestProcessBackendTrains:
    """Codeword frames cross the ring in trains cut at the engine's own
    batch boundaries; everything the service returns stays bitwise equal
    to the thread backend."""

    SOURCES = [station_mac(index) for index in range(5)]

    @pytest.mark.parametrize("batch_size", [8, 64])
    @pytest.mark.parametrize("max_latency_frames", [None, 1, 4])
    def test_parity_with_threads(
        self, trained_classifier, test_samples, batch_size, max_latency_frames
    ):
        codewords = _quantize(test_samples[:24]) * 3

        def drive(service):
            for index, quantized in enumerate(codewords):
                service.submit(quantized, source=self.SOURCES[index % 5])

        _assert_backends_agree(
            trained_classifier,
            drive,
            len(codewords),
            num_workers=2,
            batch_size=batch_size,
            max_latency_frames=max_latency_frames,
        )

    def test_codewords_mixed_with_frame_and_vtilde_records(
        self, trained_classifier, test_samples
    ):
        samples = test_samples[:24]
        codewords = _quantize(samples)

        def drive(service):
            for index, (sample, quantized) in enumerate(zip(samples, codewords)):
                source = self.SOURCES[index % 5]
                if index % 5 == 3:
                    service.submit(_frame(quantized, source, float(index)))
                elif index % 7 == 6:
                    service.submit(sample, source=source)
                else:
                    service.submit(quantized, source=source)

        _assert_backends_agree(
            trained_classifier, drive, len(samples), num_workers=1, batch_size=4
        )

    def test_flush_and_swap_in_the_middle_of_a_train(
        self, trained_classifier, test_samples
    ):
        codewords = _quantize(test_samples[:24])

        def drive(service):
            for index, quantized in enumerate(codewords[:5]):
                service.submit(quantized, source=self.SOURCES[index % 5])
            service.flush()
            assert len(service.collect()) == 5
            for index, quantized in enumerate(codewords[5:11]):
                service.submit(quantized, source=self.SOURCES[index % 5])
            service.swap_model(trained_classifier)
            for index, quantized in enumerate(codewords[11:]):
                service.submit(quantized, source=self.SOURCES[index % 5])

        results, _ = _run_backend(
            trained_classifier, "processes", drive, num_workers=1, batch_size=8
        )
        # Frames 5..10 sat in a train when the swap came; the swap record
        # ships them first, so the old weights classify them.
        assert [result.model_version for result in results] == [0] * 6 + [1] * 13
        _assert_backends_agree(
            trained_classifier, drive, 19, num_workers=1, batch_size=8
        )

    def test_config_change_in_the_middle_of_a_train(
        self, trained_classifier, test_samples
    ):
        samples = test_samples[:24]
        high = _quantize(samples)
        low = _quantize(samples, QuantizationConfig(b_phi=7, b_psi=5))

        def drive(service):
            # Blocks of three frames alternate between the two codebooks.
            for index in range(len(samples)):
                quantized = (high if (index // 3) % 2 == 0 else low)[index]
                service.submit(quantized, source=self.SOURCES[index % 5])

        _assert_backends_agree(
            trained_classifier, drive, len(samples), num_workers=1, batch_size=8
        )
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=8, backend="processes"
        ) as service:
            kinds = _count_ring_records(service)
            drive(service)
            service.flush()
        # A train is cut at every codebook change (frames 3, 6, 9, ...) and
        # at every batch boundary (frames 8, 16, 24), whichever comes first:
        # [0-2] [3-5] [6-7] [8] [9-11] [12-14] [15] [16-17] [18-20] [21-23].
        assert kinds.count(RECORD_CODEWORDS) == 10

    @pytest.mark.parametrize(
        "batch_size, max_latency_frames, threshold",
        [(8, None, 8), (64, 4, 4), (3, 16, 3)],
    )
    def test_one_ring_record_per_engine_batch(
        self, trained_classifier, test_samples, batch_size, max_latency_frames, threshold
    ):
        codewords = _quantize(test_samples[:29])
        with StreamingService(
            trained_classifier,
            num_workers=1,
            batch_size=batch_size,
            max_latency_frames=max_latency_frames,
            backend="processes",
        ) as service:
            kinds = _count_ring_records(service)
            for index, quantized in enumerate(codewords):
                service.submit(quantized, source=self.SOURCES[index % 5])
            assert kinds.count(RECORD_CODEWORDS) == len(codewords) // threshold
            service.flush()
            assert kinds.count(RECORD_CODEWORDS) == -(-len(codewords) // threshold)
            assert len(service.collect()) == len(codewords)

    def test_train_larger_than_the_ring_is_split(self, trained_classifier, test_samples):
        codewords = _quantize(test_samples[:16])
        with StreamingService(
            trained_classifier,
            num_workers=1,
            batch_size=16,
            queue_depth=2,
            slot_bytes=4096,  # about one (234, 3, 2) codeword frame per slot
            backend="processes",
        ) as service:
            results = service.drain(codewords, source=self.SOURCES[0])
        assert len(results) == len(codewords)

    def test_concurrent_producers_lose_no_codeword_frame(
        self, trained_classifier, test_samples
    ):
        """More producer threads than cores share each shard's train."""
        import sys
        import threading

        from repro.analysis.runtime import validate_guarded

        codewords = _quantize(test_samples[:24])
        producers, per_producer = 6, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StreamingService(
                trained_classifier, num_workers=2, batch_size=8, backend="processes"
            ) as service:
                # The train and the engine-pending count are declared
                # guarded-by the shard lock; check every access holds it.
                monitors = [validate_guarded(shard) for shard in service._shards]

                def produce(producer):
                    for index in range(per_producer):
                        position = producer * per_producer + index
                        service.submit(
                            codewords[position % len(codewords)],
                            source=self.SOURCES[position % 5],
                        )

                threads = [
                    threading.Thread(target=produce, args=(producer,))
                    for producer in range(producers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                service.flush()
                results = service.collect()
                for monitor in monitors:
                    monitor.assert_clean()
                    monitor.restore()
        finally:
            sys.setswitchinterval(interval)
        sequences = sorted(result.sequence for result in results)
        assert sequences == list(range(producers * per_producer))

    def test_untransportable_codewords_fail_their_own_submit(
        self, trained_classifier, test_samples
    ):
        codewords = _quantize(test_samples[:3])
        wide = dataclasses.replace(
            codewords[0], config=QuantizationConfig(b_phi=300, b_psi=7, strict=False)
        )
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=8, backend="processes"
        ) as service:
            for quantized in codewords:
                service.submit(quantized, source=self.SOURCES[0])
            with pytest.raises(TransportError, match="subheader"):
                service.submit(wide, source=self.SOURCES[1])
            service.flush()
            # The frames already in the train are still delivered.
            assert len(service.collect()) == len(codewords)

    @pytest.mark.parametrize(
        "source, match",
        [
            ("x" * 70_000, "does not fit the record"),
            ("x" * 6_000, "does not fit the 8192-byte ring"),
        ],
        ids=["longer-than-entry-table", "longer-than-ring"],
    )
    def test_unshippable_source_fails_its_own_submit(
        self, trained_classifier, test_samples, source, match
    ):
        codewords = _quantize(test_samples[:3])
        with StreamingService(
            trained_classifier,
            num_workers=1,
            batch_size=8,
            queue_depth=2,
            slot_bytes=4096,  # two (234, 3, 2) codeword frames per train
            backend="processes",
        ) as service:
            kinds = _count_ring_records(service)
            for quantized in codewords:
                service.submit(quantized, source=self.SOURCES[0])
            assert kinds.count(RECORD_CODEWORDS) == 1  # frames 0-1; 2 waits
            with pytest.raises(TransportError, match=match):
                service.submit(codewords[0], source=source)
            service.flush()
            results = service.collect()
        # The frames on the ring and in the train are still delivered.
        assert [result.sequence for result in results] == [0, 1, 2]
        assert kinds.count(RECORD_CODEWORDS) == 2

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize(
        "settings", [{"batch_size": 0}, {"max_latency_frames": 0}]
    )
    def test_non_positive_batch_settings_rejected(
        self, trained_classifier, backend, settings
    ):
        with pytest.raises(ServiceError, match="must be >= 1"):
            StreamingService(
                trained_classifier, num_workers=1, backend=backend, **settings
            )

    @staticmethod
    def _poisoned(test_samples):
        """Codewords the worker's decoder rejects (phi outside the codebook)."""
        bad = _quantize(test_samples[:1])[0]
        bad.q_phi[0, 0] = 9999
        return bad

    def test_worker_failure_surfaces_on_next_collect(
        self, trained_classifier, test_samples
    ):
        codewords = _quantize(test_samples[:7])
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=8, backend="processes"
        ) as service:
            service.submit(self._poisoned(test_samples), source="rogue")
            for quantized in codewords:  # completes the train: it ships
                service.submit(quantized, source=self.SOURCES[0])
            with pytest.raises(ServiceError, match="TransportError"):
                for _ in range(500):
                    service.collect()
                    time.sleep(0.01)
            with pytest.raises(ServiceError):
                service.flush()

    def test_worker_failure_surfaces_on_next_flush(
        self, trained_classifier, test_samples
    ):
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=8, backend="processes"
        ) as service:
            service.submit(self._poisoned(test_samples), source="rogue")
            with pytest.raises(ServiceError, match="TransportError"):
                service.flush()
            with pytest.raises(ServiceError):
                service.collect()


class TestServiceStats:
    def test_counters_aggregate_worker_stats(
        self, trained_classifier, multi_source_stream
    ):
        with StreamingService(
            trained_classifier, num_workers=3, batch_size=4
        ) as service:
            for source, sample in multi_source_stream:
                service.submit(sample, source=source)
            service.flush()
            stats = service.stats
        assert stats.num_workers == 3
        assert stats.frames_out == len(multi_source_stream)
        assert stats.batches == sum(w.batches for w in stats.worker_stats)
        assert stats.inference_seconds == pytest.approx(
            sum(w.inference_seconds for w in stats.worker_stats)
        )
        assert stats.frames_per_second > 0.0
        assert stats.wall_frames_per_second > 0.0
        assert stats.mean_batch_size > 0.0

    def test_fresh_service_stats_guard_zero_division(self, trained_classifier):
        with StreamingService(trained_classifier, num_workers=2) as service:
            stats = service.stats
        assert stats.frames_per_second == 0.0
        assert stats.mean_batch_size == 0.0

    def test_stats_without_wall_time_guard_zero_division(self):
        stats = ServiceStats(num_workers=1)
        assert stats.frames_per_second == 0.0
        assert stats.wall_frames_per_second == 0.0
        assert stats.mean_batch_size == 0.0
